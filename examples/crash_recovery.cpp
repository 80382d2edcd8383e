// Crash recovery end to end (DESIGN.md §12): train with the durable
// checkpoint insurance armed, lose both the ActivePS tier and the
// backup/checkpoint holders at once, recover through the escalation
// ladder — then simulate a full process restart and resume the same job
// from the newest committed epoch on disk.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/agileml/recovery_manager.h"
#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/ps/checkpoint_store.h"

using namespace proteus;

namespace {

AgileMLConfig MakeConfig() {
  AgileMLConfig config;
  config.num_partitions = 16;
  config.data_blocks = 128;
  config.backup_sync_every = 3;
  config.parallel_execution = false;
  return config;
}

std::vector<NodeInfo> MakeNodes() {
  std::vector<NodeInfo> nodes;
  NodeId id = 0;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back({id++, Tier::kReliable, 8, kInvalidAllocation});
  }
  for (int i = 0; i < 6; ++i) {
    nodes.push_back({id++, Tier::kTransient, 8, kInvalidAllocation});
  }
  return nodes;
}

}  // namespace

int main() {
  RatingsConfig rc;
  rc.users = 1000;
  rc.items = 400;
  rc.ratings = 30000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 8;
  MatrixFactorizationApp app(&data, mc);

  // Durable checkpoints live in a real directory; any filesystem (or an
  // object store behind the DurableDevice interface) works.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "proteus_crash_recovery_demo").string();
  std::filesystem::remove_all(ckpt_dir);

  // ---- Run 1: train with the insurance armed, then lose both tiers.
  {
    AgileMLRuntime runtime(&app, MakeConfig(), MakeNodes());
    FileDurableDevice device(ckpt_dir);
    CheckpointStore store(&device);
    RecoveryManager recovery(&runtime, &store, RecoveryManagerConfig{4, 0});
    recovery.ForceCheckpoint();  // Epoch 1: the starting state.

    for (int i = 0; i < 10; ++i) {
      runtime.RunClock();
      recovery.OnClockBoundary();  // Cadence: durable epoch every 4 clocks.
    }
    std::printf("trained to clock %lld; objective %.4f; durable epochs committed: %llu\n",
                static_cast<long long>(runtime.clock()), runtime.ComputeObjective(),
                static_cast<unsigned long long>(store.epochs_committed()));

    // Correlated wipeout: every ActivePS host dies *and* a reliable
    // machine holding the backup + in-memory checkpoint dies with them.
    const RoleAssignment& roles = runtime.roles();
    std::set<NodeId> victims;
    for (const auto& [partition, owner] : roles.server) {
      victims.insert(owner);
    }
    victims.insert(roles.backup.begin()->second);
    runtime.DropCheckpoint();  // The in-memory copy died with its holder.

    const RecoveryOutcome outcome = recovery.Recover({victims.begin(), victims.end()});
    std::printf("both tiers lost -> %s: restored clock %lld from durable epoch %llu "
                "(%d clocks of work redone)\n",
                RecoveryDepthName(outcome.depth),
                static_cast<long long>(outcome.restored_clock),
                static_cast<unsigned long long>(outcome.durable_epoch),
                outcome.lost_clocks);

    // The ladder re-armed itself: training continues immediately.
    runtime.RunClock();
    std::printf("training resumed; clock %lld\n", static_cast<long long>(runtime.clock()));
  }

  // ---- Run 2: the whole process died. Reopen the store from disk and
  // resume in a brand-new runtime.
  {
    FileDurableDevice device(ckpt_dir);
    CheckpointStore store(&device);
    auto loaded = store.ReadNewestValid();
    if (!loaded.has_value()) {
      std::printf("no restorable epoch found\n");
      return 1;
    }
    std::printf("\nprocess restart: newest valid epoch %llu holds clock %lld "
                "(%d corrupt epoch(s) skipped)\n",
                static_cast<unsigned long long>(loaded->epoch),
                static_cast<long long>(loaded->clock), loaded->corrupt_epochs_skipped);

    AgileMLRuntime runtime(&app, MakeConfig(), MakeNodes());
    runtime.InstallCheckpoint(std::move(loaded->payload), loaded->clock);
    runtime.RestoreFromCheckpoint();
    RecoveryManager recovery(&runtime, &store, RecoveryManagerConfig{4, 0});
    recovery.ForceCheckpoint();  // Re-arm before training resumes.

    for (int i = 0; i < 5; ++i) {
      runtime.RunClock();
      recovery.OnClockBoundary();
    }
    std::printf("resumed to clock %lld; objective %.4f\n",
                static_cast<long long>(runtime.clock()), runtime.ComputeObjective());
  }

  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
