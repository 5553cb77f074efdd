// GrowthPolicy: the seam where the paper's contribution plugs into the
// engine. A policy observes the tree shape after every flush/compaction and
// answers one question: what compaction, if any, should run next?
//
// The engine runs it in two lanes (lsm/db.cc, DESIGN.md §2.1), a queued
// flush before a queued compaction:
//
//   flush lane, for each immutable memtable, oldest first:
//     flush it into level 0 as directed by FlushMode();
//     policy->OnFlushCompleted(version);
//   compaction lane:
//     while (auto req = policy->PickCompaction(version)) {
//       merge and install it;
//       policy->OnCompactionCompleted(*req, version);
//     }
//
// With a thread pool the lanes run on pool threads, so several flushes can
// complete before the next pick. A pick is merged by one job that owns its
// runs until it installs, so it is never re-picked; only a failed merge
// leaves a pick with no OnCompactionCompleted. Without a pool, the writer
// that queued the work runs each flush's compaction chain before it
// returns.
//
// Everything the paper varies — vertical vs horizontal growth, leveling vs
// tiering merges, full vs partial granularity, counters, self-tuning — lives
// behind this interface: ComposedPolicy (a horizontal part over a vertical
// part) runs every design but universal compaction (UniversalPolicy).
#ifndef TALUS_POLICY_GROWTH_POLICY_H_
#define TALUS_POLICY_GROWTH_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "filter/filter_allocator.h"
#include "lsm/version.h"
#include "tuning/cost_model.h"

namespace talus {

namespace obs {
class AmpTracker;
}  // namespace obs

/// How data arriving at a level combines with what is already there.
enum class MergeMode {
  kMergeIntoRun,  // Leveling: merge-sort with an existing run.
  kNewRun,        // Tiering: append as a new sorted run.
};

/// A single compaction the engine should execute.
struct CompactionRequest {
  struct Input {
    int level = 0;
    uint64_t run_id = 0;
    /// Specific files to consume; empty means the whole run.
    std::vector<uint64_t> file_numbers;
  };

  /// Where a newly created output run lands in the output level's ordering.
  enum class Placement {
    kFront,          // Newest data in the level (cross-level compactions).
    kReplaceInputs,  // Takes the position of the oldest consumed input run
                     // (same-level merges, e.g. universal compaction).
  };

  std::vector<Input> inputs;
  int output_level = 0;
  /// Target run to merge into (leveling-style). The engine implicitly adds
  /// that run's overlapping files to the inputs and replaces them. nullopt
  /// creates a new run placed per `placement` (tiering-style).
  std::optional<uint64_t> output_run_id;
  Placement placement = Placement::kFront;
  /// Debugging label, e.g. "horizontal-cascade[0..2]".
  std::string reason;
};

/// Static context a policy needs about the engine configuration.
struct PolicyContext {
  uint64_t buffer_bytes = 0;  // Write buffer capacity B, in bytes.
  /// The engine's operation counts (null outside an engine). Self-designing
  /// policies read the measured mix from it at re-tuning boundaries.
  const obs::AmpTracker* amp = nullptr;
};

class GrowthPolicy {
 public:
  virtual ~GrowthPolicy() = default;

  virtual std::string name() const = 0;

  /// How a memtable flush lands in level 0: merged into the existing run
  /// (leveling) or as a new run (tiering). Consulted before every flush.
  virtual MergeMode FlushMode(const Version& v) const = 0;

  /// Number of levels the policy currently wants the version to expose.
  virtual int RequiredLevels(const Version& v) const = 0;

  virtual void OnFlushCompleted(const Version& /*v*/) {}
  virtual void OnCompactionCompleted(const CompactionRequest& /*req*/,
                                     const Version& /*v*/) {}

  /// The next compaction to run, or nullopt when the tree shape is stable.
  virtual std::optional<CompactionRequest> PickCompaction(const Version& v) = 0;

  /// Per-level capacity/occupancy forecast consumed by the filter allocator
  /// (Monkey needs capacities; the dynamic layout needs expected fill).
  virtual std::vector<LevelFilterInfo> FilterInfo(const Version& v) const;

  /// The parts the policy runs now, as the cost model prices them
  /// (tuning::Predict); none when the design has no closed form there.
  virtual std::optional<tuning::Design> design() const { return {}; }

  /// Policy state round-trip for manifest persistence (counters, phase).
  /// The decoder rejects a truncated or padded state; a stateless policy
  /// accepts only the empty one. An empty state is a fresh store.
  virtual std::string EncodeState() const { return {}; }
  virtual bool DecodeState(const std::string& state) { return state.empty(); }
};

}  // namespace talus

#endif  // TALUS_POLICY_GROWTH_POLICY_H_
