#include "mem/memtable.h"

#include <cassert>

#include "util/coding.h"

namespace talus {

namespace {

// Entries in the skiplist are:
//   klen varint32 | internal key (klen bytes) | vlen varint32 | value
Slice GetLengthPrefixed(const char* data) {
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  Slice a = GetLengthPrefixed(aptr);
  Slice b = GetLengthPrefixed(bptr);
  return comparator.Compare(a, b);
}

MemTable::MemTable() : table_(comparator_, &arena_) {}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t key_size = key.size();
  const size_t val_size = value.size();
  const size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64BE(p, ~PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);
  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(key_size + val_size, std::memory_order_relaxed);
}

bool MemTable::Get(const LookupKey& lkey, std::string* value, Status* s) {
  Table::Iterator iter(&table_);
  // Seek to the first entry >= the lookup internal key.
  iter.Seek(lkey.memtable_key().data());
  if (!iter.Valid()) return false;

  const char* entry = iter.key();
  Slice found_ikey = GetLengthPrefixed(entry);
  if (ExtractUserKey(found_ikey) != lkey.user_key()) return false;

  switch (ExtractValueType(found_ikey)) {
    case kTypeValue: {
      const char* value_start = found_ikey.data() + found_ikey.size();
      uint32_t vlen;
      const char* p = GetVarint32Ptr(value_start, value_start + 5, &vlen);
      value->assign(p, vlen);
      *s = Status::OK();
      return true;
    }
    case kTypeDeletion:
      *s = Status::NotFound(Slice());
      return true;
  }
  return false;
}

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override {
    const LookupKey target(k);
    iter_.Seek(target.memtable_key().data());
  }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixed(iter_.key()); }
  Slice value() const override {
    Slice k = GetLengthPrefixed(iter_.key());
    const char* value_start = k.data() + k.size();
    uint32_t vlen;
    const char* p = GetVarint32Ptr(value_start, value_start + 5, &vlen);
    return Slice(p, vlen);
  }
  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
};

std::unique_ptr<Iterator> MemTable::NewIterator() {
  return std::make_unique<MemTableIterator>(&table_);
}

}  // namespace talus
