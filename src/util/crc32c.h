// CRC32C (Castagnoli) checksum with a masked form for embedding checksums
// alongside the data they cover (RocksDB convention). On x86-64 CPUs with
// SSE4.2, Extend() uses the hardware `crc32` instruction (chosen once at
// runtime); elsewhere it falls back to the byte-at-a-time table loop. Both
// produce identical values.
#ifndef TALUS_UTIL_CRC32C_H_
#define TALUS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace talus {
namespace crc32c {

/// Returns the CRC32C of concat(A, data[0,n-1]) where init_crc is the CRC32C
/// of some string A. Extend(0, ...) computes the CRC of data itself.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven implementation Extend() falls back to. Exposed so tests
/// can check the dispatched path against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of crc. Storing raw CRCs of data that
/// itself contains CRCs weakens the check; masking avoids that.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace talus

#endif  // TALUS_UTIL_CRC32C_H_
