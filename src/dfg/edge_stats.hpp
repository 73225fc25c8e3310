// Edge-level statistics — an extension beyond the paper (DESIGN.md §5).
//
// The DFG's edges carry frequencies; this module adds *gap timing*: for
// every directly-follows pair (a1, a2) observed within a case, the gap
// is the time between the end of the a1 event and the start of the a2
// event. Long gaps on an edge reveal think-time or synchronization
// stalls between I/O phases that node statistics cannot show (e.g. the
// barrier wait between the write and read phases of IOR appears as a
// large write->openat gap).
//
// Negative gaps are possible in SMT cases (the next event may start
// before the previous returns) and are clamped into the `overlapped`
// counter instead of polluting the mean.
//
// Every accumulator here is an integer, so the per-case Partial merge
// below is a plain commutative sum: any grouping of cases — worker
// partials, shard blobs, the serial loop — produces identical maps,
// and compute() delegates to it (ISSUE 7).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "model/case_walk.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::dfg {

struct EdgeStat {
  std::uint64_t count = 0;        ///< directly-follows observations
  Micros total_gap = 0;           ///< Σ max(0, gap)
  Micros max_gap = 0;
  std::uint64_t overlapped = 0;   ///< observations with negative gap

  [[nodiscard]] double mean_gap() const {
    return count > 0 ? static_cast<double>(total_gap) / static_cast<double>(count) : 0.0;
  }

  [[nodiscard]] bool operator==(const EdgeStat&) const = default;
};

class EdgeStatistics {
 public:
  using Edge = std::pair<model::Activity, model::Activity>;

  /// Per-case partial: the same std::map the final statistics hold, so
  /// merge is an integer fold and finalize a move. All paths (serial
  /// compute, streamed EdgeStatsSink, decoded shard blobs) are exact.
  class Partial {
   public:
    /// Folds one case's directly-follows gaps (edges never span cases),
    /// touching the map once per distinct edge of the case.
    void add_case(const model::MappedCase& walk);

    /// Integer sums per edge: counts and gaps add, max_gap maxes.
    void merge(Partial&& other);

    [[nodiscard]] EdgeStatistics finalize() const&;
    /// Moves the map out instead of copying it.
    [[nodiscard]] EdgeStatistics finalize() &&;

    [[nodiscard]] const std::map<Edge, EdgeStat>& stats() const { return stats_; }

    /// Serialization hook (pipeline/partial_codec).
    [[nodiscard]] static Partial from_stats(std::map<Edge, EdgeStat> stats);

    [[nodiscard]] bool operator==(const Partial&) const = default;

   private:
    std::map<Edge, EdgeStat> stats_;
  };

  /// Single pass over the cases; start/end markers carry no gaps and
  /// are not included. Delegates to the Partial path above.
  [[nodiscard]] static EdgeStatistics compute(const model::EventLog& log,
                                              const model::Mapping& f);

  [[nodiscard]] const std::map<Edge, EdgeStat>& per_edge() const { return stats_; }
  [[nodiscard]] const EdgeStat* find(const model::Activity& from,
                                     const model::Activity& to) const;

  /// Edge with the largest mean gap — the dominant stall. Tie-break is
  /// pinned: strict > over the ordered edge map, so among equal means
  /// the LEXICOGRAPHICALLY SMALLEST edge wins, on every path (sharded
  /// and in-process reports must render byte-identical labels).
  [[nodiscard]] const Edge* slowest_edge() const;

 private:
  friend class Partial;
  std::map<Edge, EdgeStat> stats_;
};

}  // namespace st::dfg
