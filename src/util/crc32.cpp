#include "fabp/util/crc32.hpp"

#include <array>

namespace fabp::util {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][i]
// is the CRC contribution of byte i followed by k zero bytes, so eight
// table lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

/// Advances the (pre-inverted) CRC over the eight bytes of `word`, taken
/// least-significant byte first.
std::uint32_t step8(std::uint32_t c, std::uint64_t word) noexcept {
  const std::uint32_t lo = c ^ static_cast<std::uint32_t>(word);
  const auto hi = static_cast<std::uint32_t>(word >> 32);
  return kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
         kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
         kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
         kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
}

/// Eight bytes as a little-endian word, whatever the host byte order (the
/// compiler folds the shifts into one load on little-endian hosts).
std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) c = step8(c, load_le64(p));
  for (; size > 0; ++p, --size) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_words(std::span<const std::uint64_t> words,
                          std::uint32_t crc) noexcept {
  // Byte order must not depend on the host: step8 takes each word's bytes
  // little-endian-first explicitly.
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint64_t word : words) c = step8(c, word);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fabp::util
