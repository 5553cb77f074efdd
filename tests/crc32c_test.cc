#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace talus {
namespace crc32c {
namespace {

TEST(Crc32c, StandardVectors) {
  // Known CRC32C test vectors (RFC 3720 / LevelDB test suite).
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x8a9136aau);

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x62a8ab43u);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x46dd794eu);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32c, StandardVectorsPortable) {
  // The same vectors on the table-driven fallback.
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(ExtendPortable(0, buf, sizeof(buf)), 0x8a9136aau);

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(ExtendPortable(0, buf, sizeof(buf)), 0x62a8ab43u);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(ExtendPortable(0, buf, sizeof(buf)), 0x46dd794eu);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(ExtendPortable(0, buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32c, DispatchMatchesPortable) {
  std::mt19937 rng(301);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  // Every length at every alignment modulo 8 covers the word loop, the byte
  // tail and unaligned loads.
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n = 0; n <= 1024; n++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Extend(0, p, n), ExtendPortable(0, p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(Extend(0x12345678u, p, n), ExtendPortable(0x12345678u, p, n))
          << "offset " << offset << " length " << n;
    }
  }

  std::string big(1 << 20, '\0');
  for (char& c : big) c = static_cast<char>(rng());
  EXPECT_EQ(Extend(0, big.data(), big.size()),
            ExtendPortable(0, big.data(), big.size()));

  // Chained calls split at every offset equal the one-shot value.
  const std::string text(buf.data(), 100);
  const uint32_t whole = ExtendPortable(0, text.data(), text.size());
  for (size_t split = 0; split <= text.size(); split++) {
    const uint32_t head = Extend(0, text.data(), split);
    EXPECT_EQ(Extend(head, text.data() + split, text.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32c, Values) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
}

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

}  // namespace
}  // namespace crc32c
}  // namespace talus
