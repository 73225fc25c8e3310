// The one per-case walk every activity-level analytic is a fold of:
// apply the partial mapping f (paper Sec. IV) to each event of a case,
// in event (start) order — the order Case already guarantees — and
// skip the events f does not cover.
//
// MappedCase runs that walk ONCE per case and keeps its result in
// dense per-case ids, so the analytics never re-map an event and never
// look up a string per event:
//   - activities(): the case's distinct activities in first-seen
//     order; local activity id i names activities()[i];
//   - ids() / event(k): one entry per mapped event, in event order —
//     its local activity id and the Event itself;
//   - edges() / edge_ids(): the case's distinct directly-follows pairs
//     of local ids in first-seen order, and for each consecutive pair
//     of mapped events (k, k+1) the local id of their pair.
// dfg::add_case_trace, IoStatistics/EdgeStatistics::Partial::add_case,
// model::activity_trace and IoStatistics::timeline all fold this one
// structure into per-case local accumulators and then touch their
// string-keyed containers once per DISTINCT activity or edge of the
// case. Everything the walk feeds is either an integer sum or (the I/O
// rate sums) still added in event order within the case, so every
// output — doubles included — is what a per-event fold produces
// (test_fold_oracle holds it against that fold, kept in
// tests/fold_reference.hpp).
//
// assign() reuses every buffer, so a serial loop over a log allocates
// only for the mapped activity strings. Within one pipeline::run the
// walk is shared by every sink folding the case (pipeline::CaseContext
// memoizes it per mapping), so a case is mapped once, not once per
// sink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::model {

class MappedCase {
 public:
  /// A directly-follows pair of local activity ids.
  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };

  MappedCase() = default;
  MappedCase(const Case& c, const Mapping& f) { assign(c, f); }

  /// Re-walks `c` under `f`, reusing this object's buffers. `c` must
  /// outlive every later use of this walk (event() points into it).
  void assign(const Case& c, const Mapping& f);

  [[nodiscard]] const Case& source() const { return *case_; }

  /// Distinct activities of the case, first-seen order.
  [[nodiscard]] std::span<const Activity> activities() const { return activities_; }

  /// Local activity id of each mapped event, event order.
  [[nodiscard]] std::span<const std::uint32_t> ids() const { return ids_; }

  /// Number of mapped events (== ids().size()).
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// The k-th mapped event.
  [[nodiscard]] const Event& event(std::size_t k) const {
    return case_->events()[event_indices_[k]];
  }

  /// Distinct directly-follows pairs, first-seen order (the start/end
  /// markers are not included).
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Local edge id of mapped events (k, k+1), k < size() - 1.
  [[nodiscard]] std::span<const std::uint32_t> edge_ids() const { return edge_ids_; }

  /// Local id of `a`, or nullopt when no event of the case maps to it.
  [[nodiscard]] std::optional<std::uint32_t> find(const Activity& a) const;

 private:
  const Case* case_ = nullptr;
  std::vector<Activity> activities_;
  std::vector<std::size_t> hashes_;  ///< std::hash of each activity
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> event_indices_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> edge_ids_;
  // Open-addressing tables (linear probing, power-of-two size, at most
  // half full) from an activity / a packed edge to its local id.
  std::vector<std::uint32_t> activity_slots_;
  std::vector<std::uint32_t> edge_slots_;
};

}  // namespace st::model
