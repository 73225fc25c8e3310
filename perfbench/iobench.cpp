// iobench — end-to-end benchmark over IOR campaign traces.
//
//   iobench gen --workload W --seed N --out DIR
//       writes the workload's four IOR runs (ssf, fpp, po, mpiio) as
//       cid_host_rid.st files under DIR/<run>/ (iosim, seeded).
//   iobench run --workload W --seed N --seconds S --trace 0|1
//               --data DIR --work DIR --elog-tool PATH [--commit ID]
//               [--spans FILE]
//       measures one workload over the generated files and prints, as
//       its LAST stdout line, {"correct","attempted","failed","metrics"}.
//
// perfbench/run.py builds this binary and drives both steps; see
// perfbench/README.md for the workloads and the metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "iosim/campaign.hpp"
#include "iosim/ior.hpp"

#ifndef IOBENCH_COMPILER
#define IOBENCH_COMPILER "unknown"
#endif
#ifndef IOBENCH_FLAGS
#define IOBENCH_FLAGS "unknown"
#endif

namespace iobench {

// -- tracer ----------------------------------------------------------------

namespace {

thread_local std::vector<int> open_spans;

/// The library modules whose calls the benchmark wraps in spans. The
/// parallel module has none of its own: it is measured by the scaling
/// ratio of a whole pass.
const std::vector<std::string> kLayers = {"strace", "model",  "pipeline", "elog",
                                          "dfg",    "report", "corpus"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, std::uint64_t rid) {
  const double start = now_ms();
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, start, parent, rid});
  const int id = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double end = now_ms();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = end;
}

void Tracer::record(const char* name, std::uint64_t rid, Clock::time_point a,
                    Clock::time_point b) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, ms_between(t0_, a), ms_between(t0_, b), -1, rid});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  const auto all = spans();
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) self[i] = all[i].end_ms - all[i].start_ms;
  for (const auto& s : all) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (const auto& layer : kLayers) out[layer] = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string layer = all[i].name.substr(0, all[i].name.find('.'));
    if (out.contains(layer)) out[layer] += self[i];
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans()) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << std::setprecision(12);
  for (const auto& s : spans()) {
    out << "{\"name\":" << json_string(s.name) << ",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// -- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail tail(std::vector<double> v) {
  if (v.empty()) return {0, "none"};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), "max"};
  std::ostringstream name;
  name << 'p' << std::fixed << std::setprecision(1)
       << 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return {v[n - 11], name.str()};
}

// -- output ----------------------------------------------------------------

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}
}  // namespace

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, vu] = entries_[i];
    if (i) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  return out + "}";
}

Info& Info::num(const std::string& key, double v) { return raw(key, json_number(v)); }
Info& Info::str(const std::string& key, const std::string& v) { return raw(key, json_string(v)); }
Info& Info::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}
void Info::print() const {
  std::cout << "{" << json_string(section_) << ": {" << body_ << "}}" << std::endl;
}

// -- inputs ------------------------------------------------------------------

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

Scale workload_scale(const std::string& workload) {
  if (workload == "ingest") return {768, 48};       // 8x the paper's 96-rank runs
  if (workload == "serve_mixed") return {96, 48};   // the paper's scale
  if (workload == "serve_wide") return {48, 48};
  throw std::invalid_argument("unknown workload: " + workload);
}

void generate(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  const Scale sc = workload_scale(workload);
  st::iosim::CampaignScale scale;
  scale.num_ranks = sc.ranks;
  scale.ranks_per_node = sc.ranks_per_node;
  scale.seed = seed;
  const std::pair<const char*, st::iosim::IorOptions> runs[] = {
      {"ssf", st::iosim::make_ssf_options(scale)},
      {"fpp", st::iosim::make_fpp_options(scale)},
      {"po", st::iosim::make_posix_options(scale)},
      {"mpiio", st::iosim::make_mpiio_options(scale)},
  };
  for (const auto& [name, options] : runs) {
    st::iosim::run_ior(options).write_files(dir + "/" + name);
  }
}

Corpus load_corpus(const std::string& dir) {
  Corpus c;
  for (const char* run : {"ssf", "fpp", "po", "mpiio"}) {
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir + "/" + run)) {
      if (e.path().extension() == ".st") {
        files.push_back(e.path().string());
        c.bytes += e.file_size();
      }
    }
    if (files.empty()) throw std::runtime_error("no trace files under " + dir + "/" + run);
    std::sort(files.begin(), files.end());
    c.files.insert(c.files.end(), files.begin(), files.end());
  }
  return c;
}

namespace {

// -- calibration ---------------------------------------------------------------

/// Spin-loop iterations one thread completes in `ms`.
std::uint64_t spin(double ms) {
  const auto end = Clock::now() + std::chrono::duration<double, std::milli>(ms);
  std::uint64_t iters = 0;
  std::uint64_t x = 88172645463325252ull;
  while (Clock::now() < end) {
    for (int i = 0; i < 1024; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++iters;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return iters;
}

/// nproc threads spinning together over one thread spinning alone (the
/// faster of two solo runs, one before and one after).
double effective_parallelism() {
  const double ms = 150;
  std::uint64_t one = spin(ms);
  std::vector<std::uint64_t> counts(nproc());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    threads.emplace_back([&counts, i, ms] { counts[i] = spin(ms); });
  }
  for (auto& t : threads) t.join();
  one = std::max(one, spin(ms));
  std::uint64_t all = 0;
  for (const auto c : counts) all += c;
  return one ? static_cast<double>(all) / static_cast<double>(one) : 0;
}

void print_calibration(const std::string& commit) {
  Info("calibration")
      .num("nproc", static_cast<double>(nproc()))
      .num("effective_parallelism", effective_parallelism())
      .str("compiler", IOBENCH_COMPILER)
      .str("build_flags", IOBENCH_FLAGS)
      .str("commit", commit)
      .print();
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (!key.starts_with("--") || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got: " + key);
    }
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

int run(const std::map<std::string, std::string>& flags) {
  Args args;
  args.workload = need(flags, "workload");
  args.seed = std::stoull(need(flags, "seed"));
  args.seconds = std::stod(need(flags, "seconds"));
  args.trace = need(flags, "trace") == "1";
  args.data_dir = need(flags, "data");
  args.work_dir = need(flags, "work");
  args.elog_tool = need(flags, "elog-tool");
  const auto commit = flags.contains("commit") ? flags.at("commit") : std::string("unknown");
  const auto spans_path =
      flags.contains("spans") ? flags.at("spans") : args.work_dir + "/spans.jsonl";
  (void)workload_scale(args.workload);  // rejects unknown names early

  // A client that goes away must not kill the benchmark process.
  std::signal(SIGPIPE, SIG_IGN);
  print_calibration(commit);
  tracer().enable(false);

  Outcome out;
  Metrics metrics =
      args.workload == "ingest" ? run_ingest(args, out) : run_serve(args, out);
  if (!args.trace) metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (args.trace) {
    tracer().write_jsonl(spans_path);
    Info("spans").str("file", spans_path).num("count", static_cast<double>(tracer().spans().size()))
        .print();
  }
  for (const auto& f : out.failures) Info("failure").str("what", f).print();
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics.to_json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace iobench

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: iobench gen|run --flag value...");
    const std::string cmd = argv[1];
    const auto flags = iobench::parse_flags(argc, argv, 2);
    if (cmd == "gen") {
      iobench::generate(iobench::need(flags, "workload"),
                        std::stoull(iobench::need(flags, "seed")), iobench::need(flags, "out"));
      return 0;
    }
    if (cmd == "run") return iobench::run(flags);
    throw std::invalid_argument("unknown command: " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "iobench: " << e.what() << "\n";
    return 1;
  }
}
