// The vertical part (§3): a stack of levels with fixed capacities, each
// merging into the one below when it fills. One type covers every vertical
// shape the paper evaluates:
//
//  * VT-* and RocksDB-Tuned: capacities B·T^(i+1) (or RocksDB's dynamic
//    level bytes), leveling or tiering at every level, a level appended
//    whenever the bottom one fills;
//  * Dostoevsky's lazy leveling: a fixed stack, tiered except its last
//    level, which is leveled;
//  * Vertiorizon's V1 and V2 (§5): n·B·T′ and n·B·T², following the
//    horizontal part's n above them.
//
// Partial granularity moves one file per compaction (round-robin key cursor
// or oldest-sequence-first). Partial tiering drains the oldest run of an
// over-trigger level file-by-file into an "accumulation run" at the next
// level; lingering partially-drained runs are exactly why the paper finds
// VT-Tier-Part read-amplification heavy. The last level of a fixed stack
// never compacts further.
#ifndef TALUS_POLICY_VERTICAL_PART_H_
#define TALUS_POLICY_VERTICAL_PART_H_

#include <map>
#include <string>
#include <utility>

#include "policy/growth_policy.h"
#include "policy/policy_config.h"

namespace talus {

class VerticalPart {
 public:
  enum class Sizing {
    kExponential,   // Level i holds B·T^(i+1).
    kDynamicBytes,  // RocksDB: anchored to the bottom level's actual size.
    kFollowsTop,    // Vertiorizon: n·B above, then n·B·T′, then n·B·T².
  };

  struct Shape {
    int first_level = 0;
    int fixed_levels = 0;  // 0: the stack grows a level at a time.
    Sizing sizing = Sizing::kExponential;
    MergePolicy merge = MergePolicy::kLeveling;
    bool leveled_last = false;  // Lazy leveling: tiered above a leveled last.
    Granularity granularity = Granularity::kFull;
    FilePick file_pick = FilePick::kRoundRobin;
    double size_ratio = 6.0;  // T.
    double first_ratio = 6.0;  // kFollowsTop: T′, the first level's ratio.
    uint64_t top_buffers = 0;  // kFollowsTop: n.
    // Request reasons read "<tag> L<i>"; Vertiorizon's one move, "<tag>".
    std::string tag;
  };

  VerticalPart(Shape shape, uint64_t buffer_bytes)
      : shape_(std::move(shape)), buffer_bytes_(buffer_bytes) {}

  int first_level() const { return shape_.first_level; }
  bool leveled_last() const { return shape_.leveled_last; }
  bool follows_top() const { return shape_.sizing == Sizing::kFollowsTop; }
  MergeMode FlushMode() const;
  int RequiredLevels(const Version& v) const;

  /// Capacity of level `level` in bytes. Levels above the stack get the
  /// formula too: the horizontal part's n·B under kFollowsTop, else the
  /// B·T^(i+1) of the vertical level each one replaces.
  uint64_t Capacity(const Version& v, int level) const;
  /// Capacity of a horizontal part over this stack: n·B, or the
  /// B·T^first of the level just above it (§5.4).
  uint64_t TopCapacity() const { return StaticCapacity(first_level() - 1); }
  /// The filter allocator's capacity and expected fill for `level`, at
  /// `entry_bytes` payload bytes per entry.
  void Forecast(const Version& v, int level, double entry_bytes,
                LevelFilterInfo* info) const;
  uint64_t top_buffers() const { return shape_.top_buffers; }
  void set_top_buffers(uint64_t n) { shape_.top_buffers = n; }
  /// Adds this stack to `design` as the cost model prices it (one level
  /// that repeats as it grows, or each fixed level's merge and ratio) and
  /// sets a horizontal part's n to TopCapacity() in buffers.
  void Describe(tuning::Design* design) const;
  /// Grows n by the factor 1 + 1/T (§5.1).
  void ResizeTop();
  /// The bottom level of a fixed stack holds more than its capacity.
  bool BottomOverflows(const Version& v) const;

  std::optional<CompactionRequest> Pick(const Version& v);
  void OnCompactionCompleted(const CompactionRequest& req, const Version& v);

  /// State codec: a growing stack persists its per-level cursors and
  /// accumulation runs; Vertiorizon's stack, the cursor of its one partial
  /// move (V1 → V2); a full-granularity fixed stack, nothing.
  void EncodeTo(std::string* out) const;
  bool DecodeFrom(Slice* input);

 private:
  uint64_t StaticCapacity(int level) const;
  MergePolicy LevelMerge(int level) const;
  int last_level() const {
    return shape_.fixed_levels > 0
               ? shape_.first_level + shape_.fixed_levels - 1
               : -1;
  }
  std::string Reason(int level) const;
  /// Chooses one file from `run` honoring the configured FilePick.
  const FileMetaPtr& PickFile(const SortedRun& run, int level);
  std::optional<CompactionRequest> PickPartialTiering(const Version& v,
                                                      int level);

  Shape shape_;
  uint64_t buffer_bytes_;
  // Partial compactions: per-level largest user key of the last pick.
  std::map<int, std::string> cursors_;
  // Partial tiering: per-target-level open accumulation run id (0 = none).
  std::map<int, uint64_t> accumulation_run_;
};

}  // namespace talus

#endif  // TALUS_POLICY_VERTICAL_PART_H_
