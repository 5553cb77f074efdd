// Internal key format: user_key ⊕ trailer(8 bytes), ordered by user key
// ascending then sequence descending so the newest version of a key sorts
// first.
//
// The trailer is the big-endian encoding of ~((sequence << 8) | type).
// Complementing and storing big-endian makes plain bytewise comparison of
// whole internal keys equal the semantic ordering (user key asc, sequence
// desc, type desc). Every component — blocks, file metadata, memtable,
// merging iterators — can therefore compare keys with memcmp; there is no
// comparator plumbing anywhere.
#ifndef TALUS_LSM_DBFORMAT_H_
#define TALUS_LSM_DBFORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/coding.h"
#include "util/slice.h"

namespace talus {

using SequenceNumber = uint64_t;

static constexpr SequenceNumber kMaxSequenceNumber = (1ull << 56) - 1;

enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};

// When seeking, we want the newest visible entry: the max sequence and the
// larger type sort first under the complemented ordering.
static constexpr ValueType kValueTypeForSeek = kTypeValue;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;
};

inline void AppendInternalKey(std::string* result, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  result->append(user_key.data(), user_key.size());
  PutFixed64BE(result, ~PackSequenceAndType(seq, t));
}

inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  const size_t n = internal_key.size();
  if (n < 8) return false;
  uint64_t num = ~DecodeFixed64BE(internal_key.data() + n - 8);
  uint8_t c = num & 0xff;
  result->sequence = num >> 8;
  result->type = static_cast<ValueType>(c);
  result->user_key = Slice(internal_key.data(), n - 8);
  return c <= kTypeValue;
}

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  return (~DecodeFixed64BE(internal_key.data() + internal_key.size() - 8)) >>
         8;
}

inline ValueType ExtractValueType(const Slice& internal_key) {
  return static_cast<ValueType>(
      (~DecodeFixed64BE(internal_key.data() + internal_key.size() - 8)) &
      0xff);
}

/// Orders internal keys: user key ascending, then (sequence, type)
/// descending. The complemented big-endian trailer makes the tie-break a
/// plain memcmp of the last 8 bytes. (Whole-key bytewise comparison is NOT
/// equivalent when one user key is a strict prefix of another, hence the
/// explicit split.)
class InternalKeyComparator {
 public:
  int Compare(const Slice& a, const Slice& b) const {
    int r = ExtractUserKey(a).compare(ExtractUserKey(b));
    if (r == 0) {
      r = memcmp(a.data() + a.size() - 8, b.data() + b.size() - 8, 8);
    }
    return r;
  }
  bool operator()(const Slice& a, const Slice& b) const {
    return Compare(a, b) < 0;
  }
};

/// Owning internal key, convenient for file metadata.
class InternalKey {
 public:
  InternalKey() = default;
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, user_key, s, t);
  }

  void DecodeFrom(const Slice& s) { rep_.assign(s.data(), s.size()); }
  Slice Encode() const { return Slice(rep_); }
  Slice user_key() const { return ExtractUserKey(Slice(rep_)); }
  bool empty() const { return rep_.empty(); }
  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

/// Key formatted for a memtable/SST lookup at a given snapshot. Laid out
/// as the memtable key — varint32 length | internal key — so the memtable
/// seeks with memtable_key() and SSTs with its internal_key() suffix, and
/// neither builds a temporary.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence) {
    char* dst = Reserve(user_key.size() + 8);
    memcpy(dst, user_key.data(), user_key.size());
    EncodeFixed64BE(dst + user_key.size(),
                    ~PackSequenceAndType(sequence, kValueTypeForSeek));
  }
  /// Wraps an arbitrary internal key (an iterator's Seek target).
  explicit LookupKey(const Slice& internal_key) {
    memcpy(Reserve(internal_key.size()), internal_key.data(),
           internal_key.size());
  }
  ~LookupKey() {
    if (start_ != space_) delete[] start_;
  }
  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  /// varint32 length-prefixed internal key: the memtable's entry prefix.
  Slice memtable_key() const { return Slice(start_, end_ - start_); }
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  // Points start_ at room for the length prefix plus `ikey_size` bytes,
  // writes the prefix, and returns where the internal key goes.
  char* Reserve(size_t ikey_size) {
    const size_t needed = ikey_size + 5;
    start_ = needed <= sizeof(space_) ? space_ : new char[needed];
    char* k = EncodeVarint32(start_, static_cast<uint32_t>(ikey_size));
    kstart_ = k;
    end_ = k + ikey_size;
    return k;
  }

  char* start_ = nullptr;
  const char* kstart_ = nullptr;
  const char* end_ = nullptr;
  char space_[200];  // Inline storage for keys up to 187 bytes.
};

}  // namespace talus

#endif  // TALUS_LSM_DBFORMAT_H_
