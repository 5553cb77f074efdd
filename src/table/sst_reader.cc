#include "table/sst_reader.h"

#include <cassert>
#include <cstring>
#include <optional>

#include "util/coding.h"

namespace talus {

Status SstReader::Open(Env* env, const std::string& fname,
                       uint64_t file_number, LruCache* block_cache,
                       std::unique_ptr<SstReader>* reader) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;

  uint64_t size = file->Size();
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file too short to be an sstable", fname);
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                 &footer_input, footer_space);
  if (!s.ok()) return s;

  Footer footer;
  s = footer.DecodeFrom(footer_input);
  if (!s.ok()) return s;

  auto r = std::unique_ptr<SstReader>(new SstReader());
  r->env_ = env;
  r->file_ = std::move(file);
  r->file_number_ = file_number;
  r->block_cache_ = block_cache;

  // Pin the index block: read straight into the Block's owned buffer
  // (single copy; zero when the env hands back its own memory).
  {
    auto index =
        std::make_unique<Block>(static_cast<size_t>(footer.index_handle.size));
    Slice contents;
    s = r->file_->Read(footer.index_handle.offset, footer.index_handle.size,
                       &contents, index->MutableData());
    if (!s.ok()) return s;
    if (contents.size() != footer.index_handle.size) {
      return Status::Corruption("truncated index block", fname);
    }
    if (contents.data() != index->MutableData()) {
      memcpy(index->MutableData(), contents.data(), contents.size());
    }
    index->FinishLoad();
    r->index_block_ = std::move(index);
  }

  // Pin the filter block.
  {
    r->filter_data_.resize(footer.filter_handle.size);
    Slice contents;
    s = r->file_->Read(footer.filter_handle.offset, footer.filter_handle.size,
                       &contents, r->filter_data_.data());
    if (!s.ok()) return s;
    if (contents.data() != r->filter_data_.data()) {
      r->filter_data_.assign(contents.data(), contents.size());
    }
    r->filter_ = std::make_unique<BloomFilterReader>(Slice(r->filter_data_));
  }

  *reader = std::move(r);
  return Status::OK();
}

Status SstReader::ReadDataBlock(const BlockHandle& handle,
                                std::shared_ptr<Block>* block,
                                bool* cache_hit) {
  *cache_hit = false;
  // Varint file number, then varint offset: short enough for the string's
  // inline buffer, so neither the lookup nor the insert allocates a key.
  std::string cache_key;
  PutVarint64(&cache_key, file_number_);
  PutVarint64(&cache_key, handle.offset);
  auto cached = block_cache_->Lookup(cache_key);
  if (cached != nullptr) {
    *block = std::static_pointer_cast<Block>(cached);
    *cache_hit = true;
    return Status::OK();
  }

  // Single-copy load: read into the Block's own buffer (memcpy only when
  // the env returned a pointer to its internal memory instead).
  auto b = std::make_shared<Block>(static_cast<size_t>(handle.size));
  Slice contents;
  Status s = file_->Read(handle.offset, handle.size, &contents,
                         b->MutableData());
  if (!s.ok()) return s;
  if (contents.size() != handle.size) {
    return Status::Corruption("truncated data block");
  }
  if (contents.data() != b->MutableData()) {
    memcpy(b->MutableData(), contents.data(), contents.size());
  }
  b->FinishLoad();
  data_blocks_read_.fetch_add(1, std::memory_order_relaxed);
  block_cache_->Insert(cache_key, b, b->size());
  *block = std::move(b);
  return Status::OK();
}

Status SstReader::ReadBlockContents(const BlockHandle& handle,
                                    std::string* scratch, Slice* contents) {
  scratch->resize(static_cast<size_t>(handle.size));
  Status s = file_->Read(handle.offset, handle.size, contents,
                         scratch->data());
  if (!s.ok()) return s;
  if (contents->size() != handle.size) {
    return Status::Corruption("truncated data block");
  }
  data_blocks_read_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// Allocation-free point lookup: PointGet against the pinned index block,
// then against the data block — no iterator heap allocations and no
// per-entry std::string rebuilds.
bool SstReader::Get(const LookupKey& lkey, std::string* value, Status* s,
                    GetStats* stats) {
  if (!filter_->KeyMayMatch(lkey.user_key())) {
    if (stats != nullptr) stats->filter_negative = true;
    return false;
  }
  const Slice ikey = lkey.internal_key();
  PointGetContext ctx;

  PointGetStatus ps = index_block_->PointGet(ikey, &ctx);
  if (ps == PointGetStatus::kCorrupt) {
    *s = Status::Corruption("bad index block");
    return true;  // Treat as decided with an error status.
  }
  if (ps == PointGetStatus::kNotFound) return false;

  BlockHandle handle;
  Slice handle_value = ctx.value();
  if (!handle.DecodeFrom(&handle_value)) {
    *s = Status::Corruption("bad index entry");
    return true;
  }

  std::shared_ptr<Block> block;
  bool cache_hit = false;
  Status rs = ReadDataBlock(handle, &block, &cache_hit);
  if (stats != nullptr) {
    stats->block_read = !cache_hit;
    stats->cache_hit = cache_hit;
  }
  if (!rs.ok()) {
    *s = rs;
    return true;
  }

  ps = block->PointGet(ikey, &ctx);
  if (ps == PointGetStatus::kCorrupt) {
    *s = Status::Corruption("bad entry in block");
    return true;
  }
  if (ps == PointGetStatus::kNotFound) return false;

  ParsedInternalKey parsed;
  if (!ParseInternalKey(ctx.key(), &parsed)) {
    *s = Status::Corruption("bad internal key in data block");
    return true;
  }
  if (parsed.user_key != lkey.user_key()) return false;
  if (parsed.type == kTypeDeletion) {
    *s = Status::NotFound(Slice());
  } else {
    value->assign(ctx.value().data(), ctx.value().size());
    *s = Status::OK();
  }
  return true;
}

// Iterates index entries, materializing one data block at a time: a block
// cache pin (kCached) or a view over the reused stream buffer (kStream).
class SstReader::TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(SstReader* reader, BlockFetch fetch)
      : reader_(reader),
        fetch_(fetch),
        index_iter_(reader->index_block_->NewIterator(true)) {}

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (block_iter_ != nullptr) block_iter_->Seek(target);
    SkipEmptyBlocksForward();
  }
  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (block_iter_ != nullptr) block_iter_->SeekToFirst();
    SkipEmptyBlocksForward();
  }
  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (block_iter_ != nullptr) block_iter_->SeekToLast();
    SkipEmptyBlocksBackward();
  }
  void Next() override {
    assert(Valid());
    block_iter_->Next();
    SkipEmptyBlocksForward();
  }
  void Prev() override {
    assert(Valid());
    block_iter_->Prev();
    SkipEmptyBlocksBackward();
  }

  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (block_iter_ != nullptr) return block_iter_->status();
    return Status::OK();
  }

 private:
  // Replaces the current block with the one index_iter_ points at (none
  // when it is not valid).
  void InitDataBlock() {
    // A block iterator that stopped on a bad entry reads as exhausted;
    // keep its error when the next block replaces it.
    if (block_iter_ != nullptr && status_.ok()) {
      status_ = block_iter_->status();
    }
    block_iter_.reset();
    block_.reset();
    view_.reset();
    if (!index_iter_->Valid()) return;
    BlockHandle handle;
    Slice handle_value = index_iter_->value();
    if (!handle.DecodeFrom(&handle_value)) {
      status_ = Status::Corruption("bad index entry");
      return;
    }
    Status s;
    const Block* block = nullptr;
    if (fetch_ == BlockFetch::kStream) {
      Slice contents;
      s = reader_->ReadBlockContents(handle, &stream_buf_, &contents);
      if (s.ok()) block = &view_.emplace(contents.data(), contents.size());
    } else {
      bool cache_hit = false;
      s = reader_->ReadDataBlock(handle, &block_, &cache_hit);
      block = block_.get();
    }
    if (!s.ok()) {
      status_ = s;
      return;
    }
    block_iter_ = block->NewIterator(/*internal_key_order=*/true);
  }

  void SkipEmptyBlocksForward() {
    while (block_iter_ == nullptr || !block_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        InitDataBlock();  // Drops the last block, keeping its error.
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (block_iter_ != nullptr) block_iter_->SeekToFirst();
    }
  }

  void SkipEmptyBlocksBackward() {
    while (block_iter_ == nullptr || !block_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        InitDataBlock();  // Drops the first block, keeping its error.
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (block_iter_ != nullptr) block_iter_->SeekToLast();
    }
  }

  SstReader* reader_;
  const BlockFetch fetch_;
  std::unique_ptr<Iterator> index_iter_;
  // The current block: a cache pin (kCached), or a view (kStream) over
  // stream_buf_ or the file's own memory. Declared before block_iter_,
  // which points into it.
  std::shared_ptr<Block> block_;
  std::string stream_buf_;
  std::optional<Block> view_;
  std::unique_ptr<Iterator> block_iter_;
  Status status_;
};

std::unique_ptr<Iterator> SstReader::NewIterator(BlockFetch fetch) {
  return std::make_unique<TwoLevelIterator>(this, fetch);
}

}  // namespace talus
