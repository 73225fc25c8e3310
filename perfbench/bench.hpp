// Shared pieces of the iobench program: the span tracer, sample
// statistics, the metric sink and the workload entry points.
//
// Everything here lives OUTSIDE the library: spans wrap the
// benchmark's own calls into the library's public functions, so the
// library itself carries no instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace iobench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- spans --------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<what>"; the layer
/// is the library module the call enters (strace, model, pipeline,
/// elog, dfg, report, corpus). Spans of one request share
/// `rid`; `parent` is the index of the enclosing span on the same
/// thread, or -1.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  std::uint64_t rid = 0;
};

/// In-memory span recorder. Disabled, a span costs one branch; the
/// spans are written out once, when the benchmark ends.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  /// Times `fn()` as span `name`, nested under the thread's open span.
  template <typename F>
  auto span(const char* name, std::uint64_t rid, F&& fn) -> decltype(fn()) {
    if (!on_) return fn();
    const int id = open(name, rid);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Records an already-measured interval (e.g. a client-side request
  /// timed on another thread) as a top-level span.
  void record(const char* name, std::uint64_t rid, Clock::time_point a, Clock::time_point b);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] double now_ms() const { return ms_between(t0_, Clock::now()); }

  /// Self time per layer (span time not covered by its children),
  /// summed over all spans of that layer. Spans whose prefix is not a
  /// library module ("bench.*", "client.*") are not attributed.
  [[nodiscard]] std::map<std::string, double> layer_self_ms() const;

  /// Durations (ms) of every span called exactly `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  void write_jsonl(const std::string& path) const;

 private:
  int open(const char* name, std::uint64_t rid);
  void close(int id);

  bool on_ = false;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();

// -- sample statistics ---------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest sample, named "p<100*(n-10)/n>". With ten samples or
/// fewer no percentile qualifies and the maximum ("max") is used.
struct Tail {
  double value = 0;
  std::string name;
};
[[nodiscard]] Tail tail(std::vector<double> v);

// -- results -------------------------------------------------------------

/// Metrics in insertion order, printed as the benchmark's last line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Operations attempted/failed, and why the first few failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// One `key: value` line of informational output (shape counts, the
/// per-request layout table, ...). Printed as `{"<section>": {...}}`.
class Info {
 public:
  explicit Info(std::string section) : section_(std::move(section)) {}
  Info& num(const std::string& key, double v);
  Info& str(const std::string& key, const std::string& v);
  Info& raw(const std::string& key, const std::string& json);
  void print() const;

 private:
  std::string section_;
  std::string body_;
};

// -- workloads -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   ///< generated inputs (iobench gen wrote them)
  std::string work_dir;   ///< scratch for containers written by the run
  std::string elog_tool;  ///< fold-shard child binary for run_sharded
};

/// The trace files of one generated campaign, in ingestion order.
struct Corpus {
  std::vector<std::string> files;
  std::uint64_t bytes = 0;
};

/// Scale of each workload's IOR campaign (ranks per run, ranks/node).
struct Scale {
  int ranks;
  int ranks_per_node;
};
[[nodiscard]] Scale workload_scale(const std::string& workload);

/// Writes the four IOR runs (ssf, fpp, po, mpiio) as .st files.
void generate(const std::string& workload, std::uint64_t seed, const std::string& dir);
[[nodiscard]] Corpus load_corpus(const std::string& dir);

[[nodiscard]] std::size_t nproc();

/// Runs one workload; prints info lines and returns the metrics.
Metrics run_ingest(const Args& args, Outcome& out);
Metrics run_serve(const Args& args, Outcome& out);

}  // namespace iobench
