// Shared helpers for building small synthetic event logs in tests,
// plus the seeded byte mutator of the hostile-input sweeps.
//
// Event string fields are std::string_views; hand-built test events
// intern their strings into a process-lifetime arena (test_arena), so
// the views outlive every log a test can construct and no test needs
// to thread ownership around.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "model/event_log.hpp"
#include "strace/arena.hpp"
#include "support/rng.hpp"

namespace st::testing {

/// Process-lifetime arena backing the string fields of hand-built test
/// events. Never freed (tests exit anyway); single-threaded use only.
inline strace::StringArena& test_arena() {
  static strace::StringArena arena;
  return arena;
}

/// Interns `s` for the remaining lifetime of the test process.
inline std::string_view intern(std::string_view s) { return test_arena().intern(s); }

/// Compact event builder: ev("read", "/usr/lib/x/y.so", start, dur, size).
inline model::Event ev(std::string_view call, std::string_view fp, Micros start, Micros dur,
                       std::int64_t size = -1) {
  model::Event e;
  e.cid = "t";
  e.host = "host1";
  e.rid = 1;
  e.pid = 100;
  e.call = intern(call);
  e.fp = intern(fp);
  e.start = start;
  e.dur = dur;
  e.size = size;
  return e;
}

inline model::Case make_case(std::string cid, std::uint64_t rid, std::vector<model::Event> events,
                             std::string host = "host1") {
  const std::string_view cid_view = intern(cid);
  const std::string_view host_view = intern(host);
  for (auto& e : events) {
    e.cid = cid_view;
    e.host = host_view;
    e.rid = rid;
    e.pid = rid + 12;
  }
  return model::Case(model::CaseId{std::move(cid), std::move(host), rid}, std::move(events));
}

/// One to three seeded hostile edits of `s`, in the spirit of the
/// bit-flip sweeps: flip one bit, insert a byte (half the time one of
/// the grammar's structural characters), delete a byte, or truncate.
inline std::string mutate_bytes(std::string s, Xoshiro256& rng) {
  static constexpr char kStructural[] = "{}[](),~\"\\ %?&=+/:\n\0";  // NUL included
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t n = s.size();
    switch (rng.below(4)) {
      case 0:
        if (n != 0) s[rng.below(n)] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1: {
        const char c = rng.below(2) == 0 ? kStructural[rng.below(sizeof kStructural - 1)]
                                         : static_cast<char>(rng.below(256));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(n + 1)), c);
        break;
      }
      case 2:
        if (n != 0) s.erase(rng.below(n), 1);
        break;
      default:
        s.resize(rng.below(n + 1));
        break;
    }
  }
  return s;
}

}  // namespace st::testing
