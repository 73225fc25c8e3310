// DFG construction directly from an event log and a mapping.
//
// build_serial is the single-pass O(n) construction of Sec. V step 3.
// Parallel and sharded construction is the same unit step folded per
// case on a pool (pipeline::DfgSink) and merged through the Dfg
// monoid; the test suite asserts that it equals build_serial.
#pragma once

#include "dfg/dfg.hpp"
#include "model/case_walk.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::dfg {

/// One pass over the cases; no intermediate ActivityLog materialized.
[[nodiscard]] Dfg build_serial(const model::EventLog& log, const model::Mapping& f);

/// Folds ONE case's activity trace into `g` — the unit step
/// build_serial and the pipeline's DfgSink are made of. Node and edge
/// counts are tallied per local id first, so `g`'s maps are touched
/// once per distinct activity and directly-follows pair of the case.
void add_case_trace(Dfg& g, const model::MappedCase& walk);

}  // namespace st::dfg
