// The elog v1 reader. No tool writes v1 any more, but v1 files stay a
// supported input: round trips over v1 bytes from the test encoder
// (elog_v1_fixture.hpp), golden bytes of the retired writer, and
// truncation, corruption and malformed-chunk sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>

#include "elog/format.hpp"
#include "elog/store.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "elog_v1_fixture.hpp"
#include "testing_util.hpp"

namespace st::elog {
namespace {

using testing::ev;
using testing::make_case;
using testing::put_string;
using testing::write_chunk;
using testing::write_event_log_v1;
using testing::write_event_log_v1_file;

model::EventLog sample_log() {
  model::EventLog log;
  log.add_case(make_case("a", 9042,
                         {ev("read", "/usr/lib/x/libselinux.so.1", 100, 203, 832),
                          ev("read", "/usr/lib/x/libselinux.so.1", 400, 79, 832),
                          ev("write", "/dev/pts/7", 600, 111, 50)}));
  log.add_case(make_case("b", 9157, {ev("openat", "/p/scratch/ssf/test", 0, 25, -1)}, "node2"));
  return log;
}

bool logs_equal(const model::EventLog& a, const model::EventLog& b) {
  if (a.case_count() != b.case_count()) return false;
  for (std::size_t i = 0; i < a.case_count(); ++i) {
    const auto& ca = a.cases()[i];
    const auto& cb = b.cases()[i];
    if (ca.id() != cb.id() || ca.size() != cb.size()) return false;
    for (std::size_t j = 0; j < ca.size(); ++j) {
      if (!(ca.events()[j] == cb.events()[j])) return false;
    }
  }
  return true;
}

TEST(Elog, RoundTripThroughStream) {
  const auto log = sample_log();
  std::stringstream buf;
  write_event_log_v1(buf, log);
  const auto reloaded = read_event_log(buf);
  EXPECT_TRUE(logs_equal(log, reloaded));
}

// A two-event log exactly as the retired v1 writer stored it.
constexpr std::string_view kRetiredWriterHex =
    "5354454c4f47310a01000000000000004348445210000000000000000c000000615f686f7374315f312e7374"
    "8e1e6134504f4f4c1d00000000000000030000000400000072656164040000002f702f780500000077726974"
    "65b2f4030f43504944180000000000000002000000000000000d000000000000000d00000000000000a751b5"
    "e84343414c08000000000000000000000002000000e2172bcf43535441100000000000000064000000000000"
    "00c800000000000000d7d688a8434455521000000000000000050000000000000007000000000000005a9f27"
    "9c434650410800000000000000010000000100000092b834114353495a100000000000000040000000000000"
    "002000000000000000f9dfb33b43454e4400000000000000000000000046454e440000000000000000000000"
    "00";

TEST(Elog, ReadsTheBytesOfTheRetiredWriter) {
  std::string bytes;
  for (std::size_t i = 0; i < kRetiredWriterHex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(std::string(kRetiredWriterHex.substr(i, 2)),
                                                nullptr, 16)));
  }
  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("read", "/p/x", 100, 5, 64), ev("write", "/p/x", 200, 7, 32)}));
  std::stringstream in(bytes);
  EXPECT_TRUE(logs_equal(log, read_event_log(in)));
  // The fixture every other v1 test writes through is that writer.
  std::stringstream out;
  write_event_log_v1(out, log);
  EXPECT_EQ(out.str(), bytes);
}

TEST(Elog, RoundTripEmptyLog) {
  std::stringstream buf;
  write_event_log_v1(buf, model::EventLog{});
  EXPECT_EQ(read_event_log(buf).case_count(), 0u);
}

TEST(Elog, RoundTripEmptyCase) {
  model::EventLog log;
  log.add_case(make_case("a", 1, {}));
  std::stringstream buf;
  write_event_log_v1(buf, log);
  const auto reloaded = read_event_log(buf);
  EXPECT_EQ(reloaded.case_count(), 1u);
  EXPECT_EQ(reloaded.cases()[0].size(), 0u);
}

TEST(Elog, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/elog_roundtrip.elog";
  write_event_log_v1_file(path, sample_log());
  EXPECT_TRUE(logs_equal(sample_log(), read_event_log_file(path)));
  std::filesystem::remove(path);
}

TEST(Elog, MissingFileThrows) {
  EXPECT_THROW((void)read_event_log_file("/nonexistent/x.elog"), IoError);
}

TEST(Elog, BadMagicThrows) {
  std::stringstream buf("NOTELOG0rest of data");
  EXPECT_THROW((void)read_event_log(buf), IoError);
}

TEST(Elog, TruncationThrows) {
  std::stringstream buf;
  write_event_log_v1(buf, sample_log());
  const std::string data = buf.str();
  for (const std::size_t cut : {data.size() / 4, data.size() / 2, data.size() - 3}) {
    std::stringstream cut_buf(data.substr(0, cut));
    EXPECT_THROW((void)read_event_log(cut_buf), IoError) << "cut at " << cut;
  }
}

// Failure injection: flipping any payload byte must surface as a CRC
// error (or a structural IoError if the flip lands in framing).
TEST(Elog, CorruptionDetectedAtManyOffsets) {
  std::stringstream buf;
  write_event_log_v1(buf, sample_log());
  const std::string data = buf.str();
  Xoshiro256 rng(99);
  int detected = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    std::string corrupt = data;
    // Skip the magic (first 8 bytes): bad magic is its own test.
    const std::size_t pos = 8 + rng.below(corrupt.size() - 8);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.below(255)));
    std::stringstream cbuf(corrupt);
    try {
      const auto reloaded = read_event_log(cbuf);
      // A flip in the case-count field can only shrink/grow structure;
      // reads that "succeed" must at least differ from the original.
      if (!logs_equal(sample_log(), reloaded)) ++detected;
    } catch (const Error&) {
      ++detected;
    }
  }
  EXPECT_EQ(detected, trials);
}

TEST(Elog, StringPoolDeduplicatesPaths) {
  // 1000 events on one path must store the path once, not 1000 times.
  model::EventLog log;
  std::vector<model::Event> events;
  const std::string path = "/p/scratch/ssf/a-rather-long-file-path-name";
  for (int i = 0; i < 1000; ++i) events.push_back(ev("write", path, i * 10, 5, 100));
  log.add_case(make_case("w", 1, std::move(events)));
  std::stringstream buf;
  write_event_log_v1(buf, log);
  const std::string data = buf.str();

  std::size_t occurrences = 0;
  for (std::size_t pos = data.find(path); pos != std::string::npos;
       pos = data.find(path, pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
  std::stringstream reread(data);
  EXPECT_TRUE(logs_equal(log, read_event_log(reread)));
}

TEST(Elog, PreservesEventOrderAndIdentity) {
  const auto reloaded = [] {
    std::stringstream buf;
    write_event_log_v1(buf, sample_log());
    return read_event_log(buf);
  }();
  const auto* c = reloaded.find_case(model::CaseId{"b", "node2", 9157});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->events()[0].call, "openat");
  EXPECT_EQ(c->events()[0].cid, "b");
  EXPECT_EQ(c->events()[0].host, "node2");
  EXPECT_EQ(c->events()[0].size, -1);
}

// ---- hardening: corrupt counts/lengths must fail fast, not allocate ----

TEST(ElogHardening, PayloadReaderTruncatedPrimitivesThrow) {
  PayloadReader r("ab");
  EXPECT_THROW((void)r.u32(), IoError);
  PayloadReader r64("abcdefg");
  EXPECT_THROW((void)r64.u64(), IoError);
  std::string short_str;
  put_u32(short_str, 100);  // claims 100 bytes, provides none
  PayloadReader rs(short_str);
  EXPECT_THROW((void)rs.str(), IoError);
  PayloadReader ri("1234567");
  EXPECT_THROW((void)ri.i64(), IoError);
}

/// A syntactically valid v1 prefix (magic + case count + CHDR) so
/// crafted chunks land inside a case body.
std::stringstream v1_case_prelude() {
  std::stringstream buf;
  buf.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
  std::string count;
  put_u64(count, 1);
  buf.write(count.data(), static_cast<std::streamsize>(count.size()));
  std::string header;
  put_string(header, "a_host1_1.st");
  write_chunk(buf, kTagCaseHeader, header);
  return buf;
}

TEST(ElogHardening, HugePoolCountRejectedBeforeAllocating) {
  // The chunk CRC is valid — only the count is hostile. The reader
  // must bound it against the payload size, not reserve 4G strings.
  auto buf = v1_case_prelude();
  std::string pool_payload;
  put_u32(pool_payload, 0xFFFFFFFFu);
  write_chunk(buf, kTagPool, pool_payload);
  EXPECT_THROW((void)read_event_log(buf), IoError);
}

TEST(ElogHardening, HugeRowCountRejectedBeforeAllocating) {
  auto buf = v1_case_prelude();
  std::string pool_payload;
  put_u32(pool_payload, 0);
  write_chunk(buf, kTagPool, pool_payload);
  std::string pid_payload;
  put_u64(pid_payload, 1ULL << 50);
  write_chunk(buf, kTagColPid, pid_payload);
  EXPECT_THROW((void)read_event_log(buf), IoError);
}

TEST(ElogHardening, ChunkLengthPastStreamEndFailsFast) {
  // A corrupt chunk length claiming ~0.5 TiB of payload with a few
  // bytes present must be an IoError after at most one bounded read
  // step — not a terabyte resize.
  auto buf = v1_case_prelude();
  buf.write("POOL", 4);
  std::string len;
  put_u64(len, 1ULL << 39);
  buf.write(len.data(), static_cast<std::streamsize>(len.size()));
  buf << "only a little data";
  EXPECT_THROW((void)read_event_log(buf), IoError);
}

TEST(ElogHardening, ImplausibleChunkLengthRejected) {
  auto buf = v1_case_prelude();
  buf.write("POOL", 4);
  std::string len;
  put_u64(len, ~0ULL);
  buf.write(len.data(), static_cast<std::streamsize>(len.size()));
  EXPECT_THROW((void)read_event_log(buf), IoError);
}

TEST(Elog, LargeRandomLogRoundTrips) {
  Xoshiro256 rng(7);
  model::EventLog log;
  for (int c = 0; c < 20; ++c) {
    std::vector<model::Event> events;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back(ev(rng.below(2) != 0 ? "read" : "write",
                          "/p/" + std::to_string(rng.below(10)),
                          static_cast<Micros>(rng.below(100000)),
                          static_cast<Micros>(rng.below(500)),
                          static_cast<std::int64_t>(rng.below(1 << 20)) - 1));
    }
    log.add_case(make_case("r", static_cast<std::uint64_t>(c + 1), std::move(events)));
  }
  std::stringstream buf;
  write_event_log_v1(buf, log);
  EXPECT_TRUE(logs_equal(log, read_event_log(buf)));
}

}  // namespace
}  // namespace st::elog
