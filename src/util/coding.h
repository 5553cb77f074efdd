// Binary encoding helpers: little-endian fixed-width integers and LEB128
// varints, shared by the block format, SST footer, WAL, and manifest.
#ifndef TALUS_UTIL_CODING_H_
#define TALUS_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace talus {

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}
inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}
inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}
inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

/// Big-endian fixed64: bytewise comparison of encodings matches numeric
/// comparison. Used by the internal-key trailer (lsm/dbformat.h).
inline void EncodeFixed64BE(char* dst, uint64_t value) {
  for (int i = 7; i >= 0; i--) {
    dst[7 - i] = static_cast<char>((value >> (i * 8)) & 0xFF);
  }
}
inline uint64_t DecodeFixed64BE(const char* ptr) {
  uint64_t result = 0;
  for (int i = 0; i < 8; i++) {
    result = (result << 8) |
             static_cast<unsigned char>(ptr[i]);
  }
  return result;
}
inline void PutFixed64BE(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64BE(buf, value);
  dst->append(buf, 8);
}

/// Writes the varint32 encoding of `value` (at most 5 bytes) to dst and
/// returns the byte just past it.
char* EncodeVarint32(char* dst, uint32_t value);

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends a varint32 length prefix followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Decoders return the byte just past the parsed value, or nullptr on error.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

/// Slice-consuming variants: advance `input` past the parsed value.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);
bool GetFixed64(Slice* input, uint64_t* value);

int VarintLength(uint64_t v);

}  // namespace talus

#endif  // TALUS_UTIL_CODING_H_
