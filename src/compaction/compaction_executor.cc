#include "compaction/compaction_executor.h"

#include "table/merging_iterator.h"
#include "table/run_iterator.h"

namespace talus {
namespace compaction {

Status RunMerge(const OutputShape& shape, read::TableCache* table_cache,
                const CompactionPlan& plan, MergeResult* result) {
  *result = MergeResult();

  // Children newest-first: a flush's memtable, then the request's inputs,
  // then the target overlaps. SST inputs stream past the block cache: the
  // merge reads each block once, and caching it would only evict blocks
  // Gets are using.
  auto open = [table_cache](uint64_t n) { return table_cache->GetReader(n); };
  std::vector<std::unique_ptr<Iterator>> children;
  if (plan.memtable) children.push_back(plan.memtable());
  auto add_run = [&](const std::vector<FileMetaPtr>& files) {
    if (!files.empty()) {
      children.push_back(std::make_unique<RunIterator>(
          files, open, SstReader::BlockFetch::kStream));
    }
  };
  for (const auto& ri : plan.inputs) add_run(ri.files);
  add_run(plan.target_overlaps);

  auto merged =
      NewMergingIterator(InternalKeyComparator(), std::move(children));
  merged->SeekToFirst();
  OutputSpec spec;
  spec.output_level = plan.output_level;
  spec.drop_tombstones = plan.drop_tombstones;
  spec.bits_per_key = plan.bits_per_key;
  spec.smallest_snapshot = plan.smallest_snapshot;
  Status s = WriteSortedOutput(shape, merged.get(), spec, &result->bytes_read,
                               &result->outputs);
  for (const auto& f : result->outputs) result->bytes_written += f->file_size;
  return s;
}

}  // namespace compaction
}  // namespace talus
