// The elog v1 encoder ("STELOG1\n", layout in elog/format.hpp), kept
// only to produce v1 bytes for the reader's tests: every tool writes
// v2, but v1 files remain a supported input (read_event_log sniffs the
// magic and `elog_tool convert` upgrades them). The output is exactly
// what the retired v1 writer produced: per case a CHDR chunk, a POOL
// chunk with the case's call/fp dictionary in first-use order, the six
// columns and CEND; FEND closes the file.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "elog/format.hpp"
#include "model/event_log.hpp"
#include "strace/filename.hpp"
#include "support/crc32.hpp"
#include "support/errors.hpp"

namespace st::testing {

/// u32 length + bytes.
inline void put_string(std::string& out, std::string_view s) {
  elog::put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// One chunk: tag | u64 payload_len | payload | u32 crc32(payload).
inline void write_chunk(std::ostream& out, const elog::ChunkTag& tag, std::string_view payload) {
  std::string bytes(tag.data(), tag.size());
  elog::put_u64(bytes, payload.size());
  bytes.append(payload);
  elog::put_u32(bytes, Crc32::of(payload.data(), payload.size()));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline void write_case_v1(std::ostream& out, const model::Case& c) {
  std::string header;
  put_string(header, strace::format_trace_filename(
                         strace::TraceFileId{c.id().cid, c.id().host, c.id().rid}));
  write_chunk(out, elog::kTagCaseHeader, header);

  std::vector<std::string> pool;
  std::map<std::string, std::uint32_t, std::less<>> ids;
  const auto intern = [&](std::string_view s) {
    if (const auto it = ids.find(s); it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(pool.size());
    pool.emplace_back(s);
    ids.emplace(std::string(s), id);
    return id;
  };
  std::string col_pid;
  std::string col_call;
  std::string col_start;
  std::string col_dur;
  std::string col_fp;
  std::string col_size;
  const auto events = c.events();
  elog::put_u64(col_pid, events.size());
  for (const model::Event& e : events) {
    elog::put_u64(col_pid, e.pid);
    elog::put_u32(col_call, intern(e.call));
    elog::put_i64(col_start, e.start);
    elog::put_i64(col_dur, e.dur);
    elog::put_u32(col_fp, intern(e.fp));
    elog::put_i64(col_size, e.size);
  }

  std::string pool_payload;
  elog::put_u32(pool_payload, static_cast<std::uint32_t>(pool.size()));
  for (const auto& s : pool) put_string(pool_payload, s);
  write_chunk(out, elog::kTagPool, pool_payload);
  write_chunk(out, elog::kTagColPid, col_pid);
  write_chunk(out, elog::kTagColCall, col_call);
  write_chunk(out, elog::kTagColStart, col_start);
  write_chunk(out, elog::kTagColDur, col_dur);
  write_chunk(out, elog::kTagColFp, col_fp);
  write_chunk(out, elog::kTagColSize, col_size);
  write_chunk(out, elog::kTagCaseEnd, {});
}

/// Serializes a whole event log as elog v1.
inline void write_event_log_v1(std::ostream& out, const model::EventLog& log) {
  out.write(elog::kMagic.data(), static_cast<std::streamsize>(elog::kMagic.size()));
  std::string count;
  elog::put_u64(count, log.case_count());
  out.write(count.data(), static_cast<std::streamsize>(count.size()));
  for (const model::Case& c : log.cases()) write_case_v1(out, c);
  write_chunk(out, elog::kTagFileEnd, {});
  if (!out) throw IoError("elog v1 fixture: write failed");
}

inline void write_event_log_v1_file(const std::string& path, const model::EventLog& log) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create elog file: " + path);
  write_event_log_v1(out, log);
}

}  // namespace st::testing
