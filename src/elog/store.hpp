// elog store: read either container version into an EventLog.
//
// v1 ("STELOG1\n", format.hpp) mirrors the paper's HDF5 layout: one
// group per case with columns pid / call / start / dur / fp / size,
// call and fp dictionary-encoded against a per-case string pool. It is
// read-only: every writer produces v2 (v2_store.hpp), and
// `elog_tool convert` upgrades old v1 files. Reading rebuilds Cases
// whose events are re-sorted by start (idempotent for valid files).
#pragma once

#include <istream>
#include <memory>
#include <string>

#include "model/event_log.hpp"
#include "support/run_policy.hpp"

namespace st::elog {

class MappedElog;

/// keep_going (inherited RunPolicy, support/run_policy.hpp) == true: a
/// v2 case section failing CRC is quarantined with a warning on the
/// returned log instead of aborting the read (v2_store.hpp
/// V2ReadOptions). v1 stays fail-fast either way — its chunk stream
/// has no per-case recovery boundary.
struct ElogReadOptions : RunPolicy {};

/// Deserializes either container version (the 8-byte magic is sniffed;
/// STELOG1 parses the chunk stream, STELOG2 dispatches to the columnar
/// reader in v2_store.hpp — read_event_log_file uses its mmap fast
/// path). Throws IoError on truncation/corruption and ParseError on
/// malformed case names.
[[nodiscard]] model::EventLog read_event_log(std::istream& in);
[[nodiscard]] model::EventLog read_event_log_file(const std::string& path,
                                                  const ElogReadOptions& opts = {});

/// read_event_log_file plus the mapped container handle when (and only
/// when) the file is a CLEANLY-read v2 corpus: no quarantined cases, so
/// the log's case numbering lines up 1:1 with the container's and the
/// indexed query planner (elog/v2_select.hpp) may evaluate predicates
/// directly on the mapped columns. v1 files, and v2 reads that
/// quarantined anything under keep_going, come back with mapped ==
/// nullptr — queries over them take the materialized path.
struct LoadedElog {
  model::EventLog log;
  std::shared_ptr<MappedElog> mapped;
};
[[nodiscard]] LoadedElog read_event_log_file_indexed(const std::string& path,
                                                     const ElogReadOptions& opts = {});

}  // namespace st::elog
