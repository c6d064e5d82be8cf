#include "fabp/util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fabp/util/rng.hpp"

namespace fabp::util {
namespace {

// Byte-at-a-time CRC-32/ISO-HDLC, bit by bit: the reference the sliced
// kernel is held to.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t size,
                              std::uint32_t crc = 0) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t size, Xoshiro256& rng) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  return bytes;
}

TEST(Crc32, CheckValue) {
  // CRC-32/ISO-HDLC check value over the standard test vector.
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32(data.data(), split);
    const std::uint32_t both = crc32(data.data() + split, data.size() - split,
                                     head);
    EXPECT_EQ(both, whole) << "split=" << split;
  }
}

TEST(Crc32, WordsMatchLittleEndianBytes) {
  const std::vector<std::uint64_t> words{0x0123456789abcdefULL,
                                         0xfedcba9876543210ULL};
  std::vector<unsigned char> bytes(words.size() * 8);
  for (std::size_t w = 0; w < words.size(); ++w)
    for (int b = 0; b < 8; ++b)
      bytes[w * 8 + static_cast<std::size_t>(b)] =
          static_cast<unsigned char>((words[w] >> (8 * b)) & 0xFF);
  EXPECT_EQ(crc32_words(words), crc32(bytes.data(), bytes.size()));
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<std::uint64_t> words(64, 0x5555555555555555ULL);
  const std::uint32_t clean = crc32_words(words);
  for (std::size_t bit : {0u, 63u, 64u, 1000u, 4095u}) {
    auto flipped = words;
    flipped[bit / 64] ^= 1ULL << (bit % 64);
    EXPECT_NE(crc32_words(flipped), clean) << "bit=" << bit;
  }
}

TEST(Crc32, ChainingWordsIsIncremental) {
  const std::vector<std::uint64_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t whole = crc32_words(words);
  const std::uint32_t head = crc32_words(std::span{words}.subspan(0, 3));
  EXPECT_EQ(crc32_words(std::span{words}.subspan(3), head), whole);
}

// Every length 0..4096 at every start offset 0..7: the 8-byte main loop,
// the byte tail and unaligned loads all meet the reference.
TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  Xoshiro256 rng{0xC3C};
  const std::vector<unsigned char> buf = random_bytes(4096 + 8, rng);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t size = 0; size <= 4096; ++size)
      ASSERT_EQ(crc32(buf.data() + offset, size),
                reference_crc32(buf.data() + offset, size))
          << "offset=" << offset << " size=" << size;
}

TEST(Crc32, SlicedMatchesBytewiseOnRandomMegabyteBuffers) {
  Xoshiro256 rng{0xC3D};
  for (int round = 0; round < 3; ++round) {
    const std::vector<unsigned char> buf = random_bytes(1u << 20, rng);
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              reference_crc32(buf.data(), buf.size()))
        << "round=" << round;
  }
}

TEST(Crc32, SlicedChainingMatchesBytewiseWhole) {
  Xoshiro256 rng{0xC3E};
  const std::vector<unsigned char> buf = random_bytes(1000, rng);
  const std::uint32_t whole = reference_crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); split += 7) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split=" << split;
    EXPECT_EQ(head, reference_crc32(buf.data(), split));
  }
}

TEST(Crc32, SlicedWordsMatchBytewiseLittleEndian) {
  Xoshiro256 rng{0xC3F};
  for (std::size_t count : {0u, 1u, 2u, 7u, 64u, 513u}) {
    std::vector<std::uint64_t> words(count);
    for (std::uint64_t& w : words) w = rng.next();
    std::vector<unsigned char> bytes;
    for (std::uint64_t w : words)
      for (int b = 0; b < 8; ++b)
        bytes.push_back(static_cast<unsigned char>((w >> (8 * b)) & 0xFF));
    EXPECT_EQ(crc32_words(words), reference_crc32(bytes.data(), bytes.size()))
        << "count=" << count;
    EXPECT_EQ(crc32_words(words, 0x1234u),
              reference_crc32(bytes.data(), bytes.size(), 0x1234u));
  }
}

}  // namespace
}  // namespace fabp::util
