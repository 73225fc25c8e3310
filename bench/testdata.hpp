// Synthetic event-log generators shared by the scaling benchmarks, and
// the barrier the staged baselines put behind the streamed reader.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/event_log.hpp"
#include "strace/reader.hpp"
#include "support/rng.hpp"

namespace st::bench {

/// Every buffer's ReadResult in input order, once all have parsed on
/// opts.pool (wait() rethrows the earliest failure).
inline std::vector<strace::ReadResult> read_collected(
    std::vector<std::shared_ptr<strace::TraceBuffer>> buffers,
    const strace::ParallelReadOptions& opts) {
  std::vector<strace::ReadResult> results(buffers.size());
  auto handle = strace::read_trace_buffers_streamed(
      std::move(buffers), opts,
      [&results](std::size_t i, strace::ReadResult&& r) { results[i] = std::move(r); });
  handle.wait();
  return results;
}

/// The same over mmap-opened files.
inline std::vector<strace::ReadResult> read_collected(const std::vector<std::string>& paths,
                                                      const strace::ParallelReadOptions& opts) {
  std::vector<std::shared_ptr<strace::TraceBuffer>> buffers;
  buffers.reserve(paths.size());
  for (const auto& path : paths) buffers.push_back(strace::TraceBuffer::from_file_mmap(path));
  return read_collected(std::move(buffers), opts);
}

/// `cases` cases of `events_per_case` events over `distinct_paths`
/// file paths (which bounds the activity count m of the DFG).
inline model::EventLog synthetic_log(std::uint64_t seed, std::size_t cases,
                                     std::size_t events_per_case, std::size_t distinct_paths) {
  Xoshiro256 rng(seed);
  model::EventLog log;
  // Event string fields are views; intern the distinct strings once
  // into the log's own arena so the log is self-contained.
  const std::vector<std::string_view> calls = {
      log.arena().intern("read"), log.arena().intern("write"), log.arena().intern("openat"),
      log.arena().intern("lseek")};
  std::vector<std::string_view> paths;
  paths.reserve(distinct_paths);
  for (std::size_t i = 0; i < distinct_paths; ++i) {
    paths.push_back(
        log.arena().intern("/data/dir" + std::to_string(i) + "/file" + std::to_string(i)));
  }
  const std::string_view cid = log.arena().intern("bench");
  const std::string_view host = log.arena().intern("node1");
  for (std::size_t c = 0; c < cases; ++c) {
    std::vector<model::Event> events;
    events.reserve(events_per_case);
    Micros t = 0;
    for (std::size_t i = 0; i < events_per_case; ++i) {
      model::Event e;
      e.cid = cid;
      e.host = host;
      e.rid = c + 1;
      e.pid = c + 100;
      e.call = calls[rng.below(calls.size())];
      e.fp = paths[rng.below(paths.size())];
      e.start = t;
      e.dur = static_cast<Micros>(1 + rng.below(200));
      e.size = (e.call == "read" || e.call == "write")
                   ? static_cast<std::int64_t>(rng.below(1 << 20))
                   : -1;
      t += static_cast<Micros>(1 + rng.below(50));
      events.push_back(std::move(e));
    }
    log.add_case(model::Case(model::CaseId{"bench", "node1", c + 1}, std::move(events)));
  }
  return log;
}

}  // namespace st::bench
