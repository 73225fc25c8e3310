// Reference per-case folds — the original per-event implementations,
// kept as the test oracle of the production folds over
// model::MappedCase (model/case_walk.hpp), in the role
// layout_reference.hpp plays for the layout. Every event is mapped
// again by every fold and every event costs string-keyed map lookups,
// so only tests call these.
//
// Differences from the original text: the functions are renamed
// (`*_reference`), made inline, and the IoStatistics/EdgeStatistics
// folds build a CaseContribution / edge map that the caller turns into
// a Partial through the codec hooks (from_cases, from_stats), since a
// Partial's members are private.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::reference {

/// Calls `fn(activity, event)` for every event of `c` that f maps, in
/// event (start) order.
template <typename Fn>
void for_each_mapped_event(const model::Case& c, const model::Mapping& f, Fn&& fn) {
  for (const model::Event& e : c.events()) {
    if (auto a = f(e)) fn(std::move(*a), e);
  }
}

inline model::ActivityTrace activity_trace_reference(const model::Case& c,
                                                     const model::Mapping& f) {
  model::ActivityTrace trace;
  trace.reserve(c.size());
  for_each_mapped_event(c, f,
                        [&](model::Activity&& a, const model::Event&) { trace.push_back(std::move(a)); });
  return trace;
}

inline void add_case_trace_reference(dfg::Dfg& g, const model::Case& c, const model::Mapping& f) {
  g.add_trace(activity_trace_reference(c, f), 1);
}

inline dfg::IoStatistics::CaseContribution io_case_reference(const model::Case& c,
                                                            const model::Mapping& f) {
  using dfg::IoStatistics;
  IoStatistics::CaseContribution contribution;
  contribution.id = c.id();
  for_each_mapped_event(c, f, [&](model::Activity&& a, const model::Event& e) {
    IoStatistics::ActivityContribution& slot = contribution.activities[std::move(a)];
    slot.total_dur += e.dur;
    ++slot.event_count;
    if (e.has_size()) {
      slot.bytes += e.size;
      slot.has_bytes = true;
      if (e.dur > 0) {
        slot.rate_sum += static_cast<double>(e.size) /
                         (static_cast<double>(e.dur) / static_cast<double>(kMicrosPerSecond));
        ++slot.rate_samples;
      }
    }
    slot.intervals.push_back(dfg::Interval{e.start, e.end()});
  });
  return contribution;
}

inline void edge_case_reference(std::map<dfg::EdgeStatistics::Edge, dfg::EdgeStat>& stats,
                                const model::Case& c, const model::Mapping& f) {
  std::optional<model::Activity> prev_activity;
  Micros prev_end = 0;
  for_each_mapped_event(c, f, [&](model::Activity&& activity, const model::Event& e) {
    if (prev_activity) {
      dfg::EdgeStat& stat = stats[{*prev_activity, activity}];
      ++stat.count;
      const Micros gap = e.start - prev_end;
      if (gap >= 0) {
        stat.total_gap += gap;
        stat.max_gap = std::max(stat.max_gap, gap);
      } else {
        ++stat.overlapped;
      }
    }
    prev_activity = std::move(activity);
    prev_end = e.end();
  });
}

// ---- whole-log references ------------------------------------------------

inline dfg::Dfg build_reference(const model::EventLog& log, const model::Mapping& f) {
  dfg::Dfg g;
  for (const model::Case& c : log.cases()) add_case_trace_reference(g, c, f);
  return g;
}

inline dfg::IoStatistics::Partial io_stats_partial_reference(const model::EventLog& log,
                                                             const model::Mapping& f) {
  std::vector<dfg::IoStatistics::CaseContribution> cases;
  for (const model::Case& c : log.cases()) cases.push_back(io_case_reference(c, f));
  return dfg::IoStatistics::Partial::from_cases(std::move(cases));
}

inline dfg::EdgeStatistics::Partial edge_partial_reference(const model::EventLog& log,
                                                           const model::Mapping& f) {
  std::map<dfg::EdgeStatistics::Edge, dfg::EdgeStat> stats;
  for (const model::Case& c : log.cases()) edge_case_reference(stats, c, f);
  return dfg::EdgeStatistics::Partial::from_stats(std::move(stats));
}

inline model::VariantCounts variants_reference(const model::EventLog& log,
                                               const model::Mapping& f) {
  model::VariantCounts out;
  for (const model::Case& c : log.cases()) ++out[activity_trace_reference(c, f)];
  return out;
}

inline std::vector<dfg::TimelineEntry> timeline_reference(const model::EventLog& log,
                                                          const model::Mapping& f,
                                                          const model::Activity& a) {
  std::vector<dfg::TimelineEntry> out;
  for (const model::Case& c : log.cases()) {
    for (const model::Event& e : c.events()) {
      const auto mapped = f(e);
      if (mapped && *mapped == a) {
        out.push_back(dfg::TimelineEntry{c.id(), dfg::Interval{e.start, e.end()}});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const dfg::TimelineEntry& x, const dfg::TimelineEntry& y) {
    return x.interval.start < y.interval.start;
  });
  return out;
}

}  // namespace st::reference
