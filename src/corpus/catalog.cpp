#include "corpus/catalog.hpp"

#include <future>
#include <mutex>
#include <utility>

#include "dfg/builder.hpp"
#include "dfg/coloring.hpp"
#include "elog/store.hpp"
#include "pipeline/stream.hpp"
#include "support/errors.hpp"

namespace st::corpus {

report::ReportOptions query_report_options(const model::Query& q, const model::Mapping& f) {
  report::ReportOptions opts;
  opts.title = "trace_explorer report";
  opts.description = "query: " + q.describe() + ", mapping: " + f.name();
  return opts;
}

/// The LRU memo table. One mutex guards everything; computations run
/// OUTSIDE the lock (the map holds shared_futures, so latecomers to an
/// in-flight key block on the winner without holding the mutex).
struct Catalog::Cache {
  struct Slot {
    std::shared_future<std::shared_ptr<const void>> future;
    std::list<std::string>::iterator pos;  ///< position in `lru`
    std::uint64_t id = 0;                  ///< flight identity (safe erase)
  };

  std::mutex mu;
  std::list<std::string> lru;  ///< front = most recently used
  std::unordered_map<std::string, Slot> map;
  CacheStats stats;
  std::uint64_t next_id = 0;
};

Catalog::Catalog(CatalogOptions opts) : opts_(std::move(opts)), cache_(new Cache) {
  if (opts_.cache_capacity == 0) opts_.cache_capacity = 1;
  mapping_ = model::mapping_by_name(opts_.mapping);
}

Catalog::~Catalog() = default;
Catalog::Catalog(Catalog&&) noexcept = default;
Catalog& Catalog::operator=(Catalog&&) noexcept = default;

void Catalog::load(const std::vector<std::string>& inputs, ThreadPool& pool) {
  if (base_) throw LogicError("Catalog::load: already loaded (the catalog is immutable)");
  // Same partition-and-merge order as the CLI tools' positional
  // inputs, so the base log is byte-identical to the offline path.
  std::vector<std::string> elogs;
  std::vector<std::string> traces;
  for (const auto& p : inputs) {
    (p.ends_with(".elog") ? elogs : traces).push_back(p);
  }
  model::EventLog log;
  if (!traces.empty()) {
    pipeline::StreamOptions stream_opts;
    static_cast<RunPolicy&>(stream_opts) = opts_.policy;
    log = pipeline::event_log_streamed(traces, pool, stream_opts);
  }
  // Ingestion warnings before the unions: derived logs drop them.
  for (const auto& w : log.warnings()) load_warnings_.push_back(w);
  for (const auto& p : elogs) {
    try {
      auto part = elog::read_event_log_file_indexed(p, elog::ElogReadOptions{opts_.policy});
      for (const auto& w : part.log.warnings()) load_warnings_.push_back(p + ": " + w);
      if (part.mapped) {
        // A cleanly-read v2 container: its cases land contiguously at
        // the current tail of the merged log, so record the slice for
        // the indexed query planner.
        segments_.push_back(elog::IndexedSegment{log.case_count(),
                                                 part.log.case_count(),
                                                 std::move(part.mapped)});
      }
      log = model::EventLog::merge(log, std::move(part.log));
    } catch (const IoError& e) {
      if (!opts_.policy.keep_going) throw;
      load_warnings_.push_back(p + ": skipped: " + e.what());
    }
  }
  base_ = std::make_shared<const model::EventLog>(std::move(log));
}

std::shared_ptr<const model::EventLog> Catalog::filtered(const model::Query& q) {
  return artifact<model::EventLog>("filtered", &Catalog::compute_filtered, q);
}

std::shared_ptr<const dfg::Dfg> Catalog::graph(const model::Query& q) {
  return artifact<dfg::Dfg>("graph", &Catalog::compute_graph, q);
}

std::shared_ptr<const dfg::IoStatistics> Catalog::io_stats(const model::Query& q) {
  return artifact<dfg::IoStatistics>("iostats", &Catalog::compute_io_stats, q);
}

std::shared_ptr<const std::vector<model::CaseSummary>> Catalog::summaries(const model::Query& q) {
  return artifact<std::vector<model::CaseSummary>>("summaries", &Catalog::compute_summaries, q);
}

std::shared_ptr<const model::VariantCounts> Catalog::variants(const model::Query& q) {
  return artifact<model::VariantCounts>("variants", &Catalog::compute_variants, q);
}

std::shared_ptr<const std::string> Catalog::report_html(const model::Query& q) {
  return artifact<std::string>("report", &Catalog::compute_report, q);
}

CacheStats Catalog::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  CacheStats s = cache_->stats;
  s.entries = cache_->map.size();
  return s;
}

std::shared_ptr<const void> Catalog::memoized(const std::string& key,
                                              std::shared_ptr<const void> (Catalog::*compute)(
                                                  const model::Query&),
                                              const model::Query& q) {
  std::promise<std::shared_ptr<const void>> flight;
  std::shared_future<std::shared_ptr<const void>> result;
  std::uint64_t flight_id = 0;
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (auto it = cache_->map.find(key); it != cache_->map.end()) {
      ++cache_->stats.hits;
      cache_->lru.splice(cache_->lru.begin(), cache_->lru, it->second.pos);
      result = it->second.future;
    } else {
      ++cache_->stats.misses;
      winner = true;
      flight_id = ++cache_->next_id;
      result = flight.get_future().share();
      cache_->lru.push_front(key);
      cache_->map.emplace(key, Cache::Slot{result, cache_->lru.begin(), flight_id});
    }
  }
  if (winner) {
    try {
      flight.set_value((this->*compute)(q));
      std::lock_guard<std::mutex> lock(cache_->mu);
      while (cache_->map.size() > opts_.cache_capacity) {
        // The just-inserted key sits at the LRU front, so with
        // capacity >= 1 it is never its own victim. An in-flight
        // victim only loses its cache slot — waiters hold future
        // copies, and its winner's set_value still reaches them.
        cache_->map.erase(cache_->lru.back());
        cache_->lru.pop_back();
        ++cache_->stats.evictions;
      }
    } catch (...) {
      // Failures are not cached: drop the slot (if it is still ours)
      // so the next request retries, then wake every waiter with the
      // error.
      {
        std::lock_guard<std::mutex> lock(cache_->mu);
        if (auto it = cache_->map.find(key);
            it != cache_->map.end() && it->second.id == flight_id) {
          cache_->lru.erase(it->second.pos);
          cache_->map.erase(it);
        }
      }
      flight.set_exception(std::current_exception());
    }
  }
  return result.get();  // rethrows the flight's exception for everyone
}

std::shared_ptr<const void> Catalog::compute_filtered(const model::Query& q) {
  if (!base_) throw LogicError("Catalog: load() the corpus before querying it");
  if (!segments_.empty() && elog::query_index_enabled()) {
    // Byte-identical to q.apply(*base_) by the v2_select contract (the
    // equivalence tests and the CI serve cmp hold it there), so the
    // cache key and every derived artifact are unchanged.
    return std::make_shared<const model::EventLog>(
        elog::apply_query_indexed(q, *base_, segments_));
  }
  return std::make_shared<const model::EventLog>(q.apply(*base_));
}

std::shared_ptr<const void> Catalog::compute_graph(const model::Query& q) {
  return std::make_shared<const dfg::Dfg>(dfg::build_serial(*filtered(q), mapping_));
}

std::shared_ptr<const void> Catalog::compute_io_stats(const model::Query& q) {
  return std::make_shared<const dfg::IoStatistics>(
      dfg::IoStatistics::compute(*filtered(q), mapping_));
}

std::shared_ptr<const void> Catalog::compute_summaries(const model::Query& q) {
  return std::make_shared<const std::vector<model::CaseSummary>>(
      model::summarize_cases(*filtered(q)));
}

std::shared_ptr<const void> Catalog::compute_variants(const model::Query& q) {
  return std::make_shared<const model::VariantCounts>(
      model::ActivityLog::build(*filtered(q), mapping_).variants());
}

std::shared_ptr<const void> Catalog::compute_report(const model::Query& q) {
  const auto log = filtered(q);
  const auto stats = io_stats(q);
  const dfg::StatisticsColoring styler(*stats);
  // build_report minus its IoStatistics::compute: the cached artifact
  // is that same computation over the same filtered log.
  const auto opts = query_report_options(q, mapping_);
  return std::make_shared<const std::string>(report::render_report(
      report::assemble_report_data(*log, mapping_, *stats, opts), mapping_, &styler, opts));
}

}  // namespace st::corpus
