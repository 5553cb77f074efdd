#include "wal/log_writer.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace talus {
namespace wal {

Status LogWriter::AddRecord(const Slice& payload) {
  std::string header;
  header.reserve(kHeaderSize);
  uint32_t crc = crc32c::Value(payload.data(), payload.size());
  PutFixed32(&header, crc32c::Mask(crc));
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  Status s = file_->Append(Slice(header));
  if (s.ok()) {
    s = file_->Append(payload);
  }
  // One write() per record: once AddRecord returns, the record is in the OS
  // page cache and survives a process crash even without a Sync.
  if (s.ok()) s = file_->Flush();
  if (s.ok()) unsynced_bytes_ += kHeaderSize + payload.size();
  return s;
}

}  // namespace wal
}  // namespace talus
