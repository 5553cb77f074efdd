// WriteSortedOutput: streams a positioned internal-key iterator into a
// sequence of size-bounded SST files, dropping snapshot-shadowed versions
// and (when admissible) tombstones. The single sorted-output pass behind
// every flush and compaction (RunMerge).
//
// Thread-safe when given an exclusive input iterator: file numbers come from
// the shared atomic counter and nothing else is engine state, so merges on
// different background threads call it with the DB mutex released.
#ifndef TALUS_COMPACTION_SORTED_OUTPUT_H_
#define TALUS_COMPACTION_SORTED_OUTPUT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "filter/bloom.h"
#include "lsm/dbformat.h"
#include "lsm/version.h"
#include "table/iterator.h"
#include "util/status.h"

namespace talus {
namespace compaction {

/// Parameters for one sorted-output pass, captured under the DB mutex so
/// the pass itself can run with or without it.
struct OutputSpec {
  int output_level = 0;
  bool drop_tombstones = false;
  double bits_per_key = 0;
  SequenceNumber smallest_snapshot = 0;
};

/// Where and how output files are built. Immutable for the DB's lifetime.
struct OutputShape {
  Env* env = nullptr;
  std::string path;
  size_t block_size = 4096;
  FilterVariant filter_variant = FilterVariant::kLegacy;
  uint64_t target_file_size = 1 << 20;
  /// Shared file-number allocator (DB::next_file_number_).
  std::atomic<uint64_t>* next_file_number = nullptr;
};

/// Drains `input` (already positioned at its first entry) into SSTs.
/// Appends the produced metadata to `outputs` and adds the input key+value
/// bytes consumed to `*bytes_read`.
Status WriteSortedOutput(const OutputShape& shape, Iterator* input,
                         const OutputSpec& spec, uint64_t* bytes_read,
                         std::vector<FileMetaPtr>* outputs);

}  // namespace compaction
}  // namespace talus

#endif  // TALUS_COMPACTION_SORTED_OUTPUT_H_
