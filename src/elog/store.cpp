#include "elog/store.hpp"

#include <fstream>
#include <sstream>

#include "elog/format.hpp"
#include "elog/v2_store.hpp"
#include "strace/filename.hpp"
#include "strace/trace_buffer.hpp"
#include "support/errors.hpp"

namespace st::elog {

namespace {

/// Rebuilds one case. The events' string fields are interned into
/// `arena` (owned by the destination EventLog), so the views stay
/// valid for the log's lifetime.
model::Case read_case(std::istream& in, const Chunk& header, strace::StringArena& arena) {
  PayloadReader header_reader(header.payload);
  const std::string name = header_reader.str();
  const auto id = strace::parse_trace_filename(name);
  if (!id) throw ParseError("elog case name not cid_host_rid.st: " + name);

  std::vector<std::string> pool;
  std::vector<std::uint64_t> pids;
  std::vector<std::uint32_t> calls;
  std::vector<std::int64_t> starts;
  std::vector<std::int64_t> durs;
  std::vector<std::uint32_t> fps;
  std::vector<std::int64_t> sizes;
  std::uint64_t rows = 0;

  while (true) {
    const Chunk chunk = read_chunk(in);
    if (chunk.tag == kTagCaseEnd) break;
    PayloadReader r(chunk.payload);
    // Element counts are attacker-controlled until checked: bound them
    // against the bytes actually present in the payload BEFORE any
    // reserve, so a corrupt count is an IoError, not a giant allocation.
    if (chunk.tag == kTagPool) {
      const std::uint32_t n = r.u32();
      if (n > r.remaining() / 4) {
        throw IoError("elog: string pool count exceeds payload in case " + name);
      }
      pool.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) pool.push_back(r.str());
    } else if (chunk.tag == kTagColPid) {
      rows = r.u64();
      if (rows > r.remaining() / 8) {
        throw IoError("elog: row count exceeds payload in case " + name);
      }
      pids.reserve(rows);
      for (std::uint64_t i = 0; i < rows; ++i) pids.push_back(r.u64());
    } else if (chunk.tag == kTagColCall) {
      for (std::uint64_t i = 0; i < rows; ++i) calls.push_back(r.u32());
    } else if (chunk.tag == kTagColStart) {
      for (std::uint64_t i = 0; i < rows; ++i) starts.push_back(r.i64());
    } else if (chunk.tag == kTagColDur) {
      for (std::uint64_t i = 0; i < rows; ++i) durs.push_back(r.i64());
    } else if (chunk.tag == kTagColFp) {
      for (std::uint64_t i = 0; i < rows; ++i) fps.push_back(r.u32());
    } else if (chunk.tag == kTagColSize) {
      for (std::uint64_t i = 0; i < rows; ++i) sizes.push_back(r.i64());
    } else {
      throw IoError("elog: unexpected chunk inside case: " +
                    std::string(chunk.tag.data(), chunk.tag.size()));
    }
  }

  if (calls.size() != rows || starts.size() != rows || durs.size() != rows ||
      fps.size() != rows || sizes.size() != rows) {
    throw IoError("elog: column row counts disagree in case " + name);
  }

  // Intern each distinct pool string once; events then share views.
  std::vector<std::string_view> pool_views;
  pool_views.reserve(pool.size());
  for (const auto& s : pool) pool_views.push_back(arena.intern(s));
  const std::string_view cid = arena.intern(id->cid);
  const std::string_view host = arena.intern(id->host);

  std::vector<model::Event> events;
  events.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    model::Event e;
    e.cid = cid;
    e.host = host;
    e.rid = id->rid;
    e.pid = pids[i];
    if (calls[i] >= pool_views.size() || fps[i] >= pool_views.size()) {
      throw IoError("elog: string pool id out of range in case " + name);
    }
    e.call = pool_views[calls[i]];
    e.start = starts[i];
    e.dur = durs[i];
    e.fp = pool_views[fps[i]];
    e.size = sizes[i];
    events.push_back(e);
  }
  return model::Case(model::CaseId{id->cid, id->host, id->rid}, std::move(events));
}

/// Remainder of the v1 reader, after the magic has been consumed.
model::EventLog read_event_log_v1_body(std::istream& in) {
  std::array<char, 8> count_bytes{};
  in.read(count_bytes.data(), 8);
  if (in.gcount() != 8) throw IoError("elog truncated: case count");
  std::uint64_t case_count = 0;
  for (int i = 0; i < 8; ++i) {
    case_count |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(count_bytes[static_cast<std::size_t>(i)]))
                  << (8 * i);
  }

  model::EventLog log;
  strace::StringArena& arena = log.arena();
  for (std::uint64_t c = 0; c < case_count; ++c) {
    const Chunk header = read_chunk(in);
    if (header.tag != kTagCaseHeader) {
      throw IoError("elog: expected CHDR chunk, got " +
                    std::string(header.tag.data(), header.tag.size()));
    }
    log.add_case(read_case(in, header, arena));
  }
  const Chunk fin = read_chunk(in);
  if (fin.tag != kTagFileEnd) throw IoError("elog: missing FEND chunk");
  return log;
}

}  // namespace

model::EventLog read_event_log(std::istream& in) {
  // Both container versions open with an 8-byte magic — sniff it and
  // dispatch, so every caller reads both transparently.
  std::string magic(kMagic.size(), '\0');
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  if (static_cast<std::size_t>(in.gcount()) != kMagic.size()) {
    throw IoError("elog: bad magic");
  }
  if (magic == kMagic) return read_event_log_v1_body(in);
  if (magic == kMagicV2) {
    // v2 is footer-indexed, so a stream must be slurped; open files by
    // path (read_event_log_file / open_v2) to get the mmap fast path.
    std::ostringstream rest;
    rest << in.rdbuf();
    if (in.bad()) throw IoError("elog: read failed");
    auto buffer = std::make_shared<strace::TraceBuffer>(magic + std::move(rest).str());
    return read_event_log_v2(MappedElog::from_buffer(std::move(buffer)));
  }
  throw IoError("elog: bad magic");
}

model::EventLog read_event_log_file(const std::string& path, const ElogReadOptions& opts) {
  return read_event_log_file_indexed(path, opts).log;
}

LoadedElog read_event_log_file_indexed(const std::string& path, const ElogReadOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open elog file: " + path);
  std::string magic(kMagicV2.size(), '\0');
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  if (static_cast<std::size_t>(in.gcount()) == kMagicV2.size() && magic == kMagicV2) {
    in.close();
    auto mapped = open_v2(path);
    model::EventLog log = read_event_log_v2(mapped, V2ReadOptions{opts.keep_going});
    // Quarantines break the 1:1 case correspondence the planner needs;
    // such a log (and any v1 log) is served by the materialized path.
    const bool clean = log.warnings().empty() && log.case_count() == mapped->case_count();
    return {std::move(log), clean ? std::move(mapped) : nullptr};
  }
  in.clear();
  in.seekg(0);
  return {read_event_log(in), nullptr};
}

}  // namespace st::elog
