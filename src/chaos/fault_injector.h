// Deterministic chaos fault-injection for the elasticity paths.
//
// Proteus's value proposition is surviving hostile churn: warned bulk
// evictions, missed warnings ("effective failures", §3.3), reliable-node
// loss, and total transient wipeouts. The seeded FaultInjector turns
// those into composable adversarial schedules: given a seed it produces
// the same sequence of fault events every time, so a failing soak run
// can be replayed exactly. Nine fault classes are generated:
//
//   kZoneMassEviction   correlated warned eviction of every allocation
//                       in one zone (spot price spike takes the zone)
//   kPreparingEviction  a new allocation is revoked while its nodes are
//                       still preloading input data (never incorporated)
//   kMidSyncFailure     a missed warning lands between active->backup
//                       syncs, forcing rollback of unsynced clocks
//   kReliableFailure    a reliable node dies; in stage 1 this forces
//                       RestoreFromCheckpoint (§3.3 insurance)
//   kTransientWipeout   every transient node vanishes at once, forcing
//                       the stage-3 -> stage-1 fallback
//   kControlPlaneChaos  control-plane messages are dropped/delayed via
//                       the Channel fault hook
//   kSilentHang         a node's control plane hangs without any
//                       announcement: heartbeats stop while compute
//                       keeps running, then the node recovers a few
//                       clocks later (detector false-positive bait)
//   kBlackhole          a node's control plane goes permanently dark —
//                       the unannounced spot termination; only the
//                       failure detector can notice
//   kDuplicate          the control channel delivers extra copies of
//                       messages (duplication, on top of drop/delay)
//
// Three durability-tier classes complete the set (PR 6):
//
//   kCorrelatedWipeout     a correlated bulk eviction takes every
//                          transient node AND reliable node(s) holding
//                          the backup/checkpoint state: both tiers lost
//                          at once, only the durable checkpoint survives
//   kCheckpointCorruption  bit rot on the durable device: a stored
//                          checkpoint chunk or manifest is bit-flipped,
//                          truncated, or deleted out from under its
//                          manifest (stale-manifest corruption)
//   kTornCheckpoint        a crash during the next durable checkpoint
//                          write: either the chunk write tears or the
//                          manifest rename never commits
//
// One ultra-transient-tier class completes the set (PR 10):
//
//   kTierStorm             a correlated serverless eviction storm: a
//                          fraction (possibly all) of the zero-warning
//                          serverless nodes vanish in the same instant
//                          with NO notice of any kind — no drain, no
//                          warning window — optionally taking transient
//                          spot nodes with it (the storm that crosses
//                          tiers). Only the failure detector notices.
//
// A schedule with >= kNumFaultClasses events is guaranteed to contain
// every class at least once (the first kNumFaultClasses draws cycle
// through a shuffled permutation of the classes).
#ifndef SRC_CHAOS_FAULT_INJECTOR_H_
#define SRC_CHAOS_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/rpc/channel.h"

namespace proteus {

enum class FaultClass : int {
  kZoneMassEviction = 0,
  kPreparingEviction = 1,
  kMidSyncFailure = 2,
  kReliableFailure = 3,
  kTransientWipeout = 4,
  kControlPlaneChaos = 5,
  kSilentHang = 6,
  kBlackhole = 7,
  kDuplicate = 8,
  kCorrelatedWipeout = 9,
  kCheckpointCorruption = 10,
  kTornCheckpoint = 11,
  kTierStorm = 12,
};

inline constexpr int kNumFaultClasses = 13;

const char* FaultClassName(FaultClass cls);

struct FaultEvent {
  FaultClass cls = FaultClass::kZoneMassEviction;
  Clock at_clock = 0;  // Fires at the boundary before this clock runs.
  // Class-specific knob: zone index (mass eviction), node count
  // (preparing eviction / mid-sync failure / blackhole), drop intensity
  // permille (control-plane chaos), duplication permille (duplicate),
  // or hang duration in clocks (silent hang).
  int magnitude = 1;
};

struct FaultScheduleConfig {
  Clock horizon = 40;  // Clocks the schedule spans.
  // Fault events to generate (>= kNumFaultClasses covers all classes).
  int events = 8;
  int zones = 3;       // Zones allocations are spread over.
};

// Lossy-link profile for a control channel: every Send() rolls one die
// and lands in the drop / delay / duplicate band (in that order), and
// message-index-based blackhole windows drop everything for
// `blackhole_len` consecutive sends every `blackhole_every` (0 =
// disabled). One die per message keeps the schedule replayable and
// independent of which bands are enabled.
struct LinkFaultProfile {
  int drop_permille = 0;
  int delay_permille = 0;
  int dup_permille = 0;
  int dup_copies_max = 3;  // Duplicates deliver 2..dup_copies_max copies.
  int blackhole_every = 0;
  int blackhole_len = 0;
};

class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, FaultScheduleConfig config);

  const FaultScheduleConfig& config() const { return config_; }
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  // Events scheduled to fire at the boundary before `clock` runs.
  std::vector<FaultEvent> EventsAt(Clock clock) const;

  // Builds a deterministic drop/delay fault hook for a control channel.
  // `drop_permille` of messages are lost and an equal share delayed by
  // 1-4 polls; the hook owns its own Rng stream derived from the seed.
  ChannelFaultHook MakeChannelFaultHook(int drop_permille);

  // General lossy-link hook: drop + delay + duplicate bands plus
  // periodic blackhole windows, per LinkFaultProfile. Same independent
  // per-hook Rng stream scheme as MakeChannelFaultHook.
  ChannelFaultHook MakeLinkFaultHook(const LinkFaultProfile& profile);

  // Seeded stream for the harness's victim-picking decisions.
  Rng& rng() { return rng_; }

 private:
  FaultScheduleConfig config_;
  Rng rng_;
  std::uint64_t seed_;
  int hooks_made_ = 0;
  std::vector<FaultEvent> schedule_;
};

}  // namespace proteus

#endif  // SRC_CHAOS_FAULT_INJECTOR_H_
