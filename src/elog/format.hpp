// elog: the on-disk event-log container (HDF5 stand-in).
//
// The paper stores the processed trace files in one HDF5 file: one
// group per case, one table per group with columns pid, call, start,
// dur, fp, size, rows sorted by start. elog mirrors that layout with a
// self-contained binary format:
//
//   file   := magic "STELOG1\n" | u64 case_count | case* | chunk FEND
//   case   := chunk CHDR (case name)        — "cid_host_rid"
//           | chunk POOL (string pool)      — dictionary for call/fp
//           | chunk CPID | CCAL | CSTA | CDUR | CFPA | CSIZ
//           | chunk CEND
//   chunk  := tag[4] | u64 payload_len | payload | u32 crc32(payload)
//
// Every chunk is CRC-checked on read; corruption surfaces as IoError
// instead of silently wrong analysis. All integers are little-endian.
// v1 is read-only: the writers produce v2 (v2_format.hpp), which
// shares the little-endian primitives below.
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace st::elog {

inline constexpr std::string_view kMagic = "STELOG1\n";

using ChunkTag = std::array<char, 4>;

inline constexpr ChunkTag kTagCaseHeader = {'C', 'H', 'D', 'R'};
inline constexpr ChunkTag kTagPool = {'P', 'O', 'O', 'L'};
inline constexpr ChunkTag kTagColPid = {'C', 'P', 'I', 'D'};
inline constexpr ChunkTag kTagColCall = {'C', 'C', 'A', 'L'};
inline constexpr ChunkTag kTagColStart = {'C', 'S', 'T', 'A'};
inline constexpr ChunkTag kTagColDur = {'C', 'D', 'U', 'R'};
inline constexpr ChunkTag kTagColFp = {'C', 'F', 'P', 'A'};
inline constexpr ChunkTag kTagColSize = {'C', 'S', 'I', 'Z'};
inline constexpr ChunkTag kTagCaseEnd = {'C', 'E', 'N', 'D'};
inline constexpr ChunkTag kTagFileEnd = {'F', 'E', 'N', 'D'};

// -- little-endian primitives (byte-order independent) -----------------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);

// Raw loads/stores shared by the v1 reader and the v2 mmap views: byte
// assembly only (the compiler folds it to a single mov on
// little-endian hardware), never a pointer cast, so they are free of
// alignment/strict-aliasing UB and byte-order independent. The caller
// guarantees the pointed-to range is in bounds.
[[nodiscard]] std::uint32_t load_u32(const char* p);
[[nodiscard]] std::uint64_t load_u64(const char* p);
[[nodiscard]] std::int64_t load_i64(const char* p);
void store_u32(char* p, std::uint32_t v);

/// Cursor-based payload reader; throws IoError past the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] std::string str();
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  /// Bytes left in the payload. Element counts decoded from the
  /// payload must be bounded against this BEFORE any reserve/resize —
  /// a corrupted count must never become a giant allocation.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

struct Chunk {
  ChunkTag tag{};
  std::string payload;
};

/// Reads and CRC-validates the next chunk. Throws IoError on
/// truncation or checksum mismatch.
[[nodiscard]] Chunk read_chunk(std::istream& in);

}  // namespace st::elog
