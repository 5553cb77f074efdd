// RunIterator: iterates one sorted run — a sequence of key-disjoint,
// ordered SST files — as a single concatenated key space with lazy reader
// opening. Shared by the DB read path (pinned scans, through the block
// cache) and by compaction and flush merges (inputs streamed past it).
#ifndef TALUS_TABLE_RUN_ITERATOR_H_
#define TALUS_TABLE_RUN_ITERATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "lsm/version.h"
#include "table/iterator.h"
#include "table/sst_reader.h"

namespace talus {

// `open` returns a pinned handle; the iterator holds the pin for the file it
// is currently positioned in, so a table-cache eviction cannot close the
// reader mid-iteration. `fetch` selects how every file's data blocks are
// read (SstReader::BlockFetch).
class RunIterator final : public Iterator {
 public:
  RunIterator(std::vector<FileMetaPtr> files,
              std::function<std::shared_ptr<SstReader>(uint64_t)> open,
              SstReader::BlockFetch fetch = SstReader::BlockFetch::kCached);

  bool Valid() const override;
  void SeekToFirst() override;
  void SeekToLast() override;
  void Seek(const Slice& target) override;
  void Next() override;
  void Prev() override;
  Slice key() const override;
  Slice value() const override;
  Status status() const override;

 private:
  void InitFile();
  /// Drops the current file's iterator, keeping its error in status_.
  void ReleaseIter();
  void SkipForward();
  void SkipBackward();

  std::vector<FileMetaPtr> files_;
  std::function<std::shared_ptr<SstReader>(uint64_t)> open_;
  const SstReader::BlockFetch fetch_;
  size_t index_ = 0;
  // Declared before iter_ so the iterator (which points into the reader) is
  // destroyed first.
  std::shared_ptr<SstReader> reader_;
  std::unique_ptr<Iterator> iter_;
  Status status_;
};

}  // namespace talus

#endif  // TALUS_TABLE_RUN_ITERATOR_H_
