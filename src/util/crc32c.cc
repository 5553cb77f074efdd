#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TALUS_CRC32C_SSE42 1
#endif

namespace talus {
namespace crc32c {

namespace {

// Table-driven CRC32C with the reflected polynomial 0x82F63B78.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef TALUS_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same polynomial, eight bytes
// per instruction. Loads go through memcpy so unaligned inputs stay defined.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Resolved on first use rather than at static-initialization time, because
// another translation unit's static initializer may checksum before ours run.
ExtendFn ResolveExtend() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") ? ExtendSse42 : ExtendPortable;
}
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#ifdef TALUS_CRC32C_SSE42
  static const ExtendFn extend = ResolveExtend();
  return extend(init_crc, data, n);
#else
  return ExtendPortable(init_crc, data, n);
#endif
}

}  // namespace crc32c
}  // namespace talus
