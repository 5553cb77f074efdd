#include "compaction/sorted_output.h"

#include <memory>

#include "lsm/filename.h"
#include "table/sst_builder.h"

namespace talus {
namespace compaction {

Status WriteSortedOutput(const OutputShape& shape, Iterator* input,
                         const OutputSpec& spec, uint64_t* bytes_read,
                         std::vector<FileMetaPtr>* outputs) {
  // Compaction/flush merges stream their inputs: charge sequential rates.
  IoStats::SequentialScope seq_scope(shape.env->io_stats());
  SstBuilderOptions bopts;
  bopts.block_size = shape.block_size;
  bopts.bits_per_key = spec.bits_per_key;
  bopts.filter_variant = shape.filter_variant;

  std::unique_ptr<SstBuilder> builder;
  uint64_t file_number = 0;
  std::string last_user_key;
  bool has_last = false;
  // Newest-to-oldest sequence of the previously kept/seen version of the
  // current user key; versions at or below the smallest live snapshot that
  // are shadowed by a newer such version are unreachable from every read
  // view and can be dropped (LevelDB's retention rule).
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  const SequenceNumber smallest_snapshot = spec.smallest_snapshot;
  uint64_t read_accum = 0;
  uint64_t payload_accum = 0;
  uint64_t oldest_seq_accum = kMaxSequenceNumber;

  auto finish_file = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    Status fs = builder->Finish();
    if (!fs.ok()) return fs;
    auto meta = std::make_shared<FileMeta>();
    meta->number = file_number;
    meta->file_size = builder->FileSize();
    meta->num_entries = builder->NumEntries();
    meta->payload_bytes = payload_accum;
    meta->smallest = builder->smallest();
    meta->largest = builder->largest();
    meta->oldest_seq = oldest_seq_accum;
    outputs->push_back(std::move(meta));
    builder.reset();
    payload_accum = 0;
    oldest_seq_accum = kMaxSequenceNumber;
    return Status::OK();
  };

  for (; input->Valid(); input->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(input->key(), &parsed)) {
      return Status::Corruption("bad internal key during compaction");
    }
    read_accum += input->key().size() + input->value().size();

    if (!has_last || parsed.user_key != Slice(last_user_key)) {
      last_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      last_sequence_for_key = kMaxSequenceNumber;
    }
    bool drop = false;
    if (last_sequence_for_key <= smallest_snapshot) {
      // A newer version of this key is already visible at the oldest read
      // view: this one is unreachable.
      drop = true;
    } else if (parsed.type == kTypeDeletion &&
               parsed.sequence <= smallest_snapshot &&
               spec.drop_tombstones) {
      drop = true;
    }
    last_sequence_for_key = parsed.sequence;
    if (drop) continue;

    // Cut the output file at the size target, but never between versions of
    // the same user key: files within a run must stay user-key disjoint
    // (point lookups probe exactly one file per run).
    if (builder != nullptr &&
        builder->FileSize() >= shape.target_file_size &&
        builder->NumEntries() > 0 &&
        ExtractUserKey(builder->largest().Encode()) != parsed.user_key) {
      Status fs = finish_file();
      if (!fs.ok()) return fs;
    }

    if (builder == nullptr) {
      file_number = shape.next_file_number->fetch_add(1);
      std::unique_ptr<WritableFile> file;
      Status fs = shape.env->NewWritableFile(
          SstFileName(shape.path, file_number), &file);
      if (!fs.ok()) return fs;
      builder = std::make_unique<SstBuilder>(bopts, std::move(file));
    }
    builder->Add(input->key(), input->value());
    payload_accum += parsed.user_key.size() + input->value().size();
    if (parsed.sequence < oldest_seq_accum) {
      oldest_seq_accum = parsed.sequence;
    }
  }
  Status fs = finish_file();
  if (!fs.ok()) return fs;
  *bytes_read = read_accum;
  return input->status();
}

}  // namespace compaction
}  // namespace talus
