#include "elog/format.hpp"

#include <algorithm>

#include "support/crc32.hpp"
#include "support/errors.hpp"

namespace st::elog {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::int64_t load_i64(const char* p) { return static_cast<std::int64_t>(load_u64(p)); }

void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}

std::uint32_t PayloadReader::u32() {
  if (pos_ + 4 > data_.size()) throw IoError("elog payload truncated (u32)");
  const std::uint32_t v = load_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  if (pos_ + 8 > data_.size()) throw IoError("elog payload truncated (u64)");
  const std::uint64_t v = load_u64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t PayloadReader::i64() { return static_cast<std::int64_t>(u64()); }

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  if (pos_ + len > data_.size()) throw IoError("elog payload truncated (string)");
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Chunk read_chunk(std::istream& in) {
  Chunk chunk;
  in.read(chunk.tag.data(), static_cast<std::streamsize>(chunk.tag.size()));
  if (in.gcount() != static_cast<std::streamsize>(chunk.tag.size())) {
    throw IoError("elog truncated: missing chunk tag");
  }
  std::array<char, 8> len_bytes{};
  in.read(len_bytes.data(), 8);
  if (in.gcount() != 8) throw IoError("elog truncated: missing chunk length");
  const std::uint64_t len = load_u64(len_bytes.data());
  if (len > (1ULL << 40)) throw IoError("elog chunk length implausible");
  // Read the payload in bounded steps so a corrupted length field can
  // only ever allocate one step beyond the bytes actually present —
  // truncation surfaces as IoError, not as a multi-gigabyte resize.
  constexpr std::uint64_t kReadStep = 4ULL << 20;
  std::uint64_t left = len;
  while (left > 0) {
    const auto step = static_cast<std::size_t>(std::min(left, kReadStep));
    const std::size_t old_size = chunk.payload.size();
    chunk.payload.resize(old_size + step);
    in.read(chunk.payload.data() + old_size, static_cast<std::streamsize>(step));
    if (static_cast<std::size_t>(in.gcount()) != step) {
      throw IoError("elog truncated: chunk payload");
    }
    left -= step;
  }
  std::array<char, 4> crc_bytes{};
  in.read(crc_bytes.data(), 4);
  if (in.gcount() != 4) throw IoError("elog truncated: chunk crc");
  const std::uint32_t stored = load_u32(crc_bytes.data());
  const std::uint32_t actual = Crc32::of(chunk.payload.data(), chunk.payload.size());
  if (stored != actual) {
    throw IoError("elog corruption: crc mismatch in chunk " +
                  std::string(chunk.tag.data(), chunk.tag.size()));
  }
  return chunk;
}

}  // namespace st::elog
