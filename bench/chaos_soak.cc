// Chaos soak driver: runs many seeded adversarial fault schedules
// against AgileML and reports recovery overhead per fault class —
// clocks rolled back, pipeline stall seconds, and controller
// notifications — plus the auditor verdict and a determinism check
// (every schedule is re-run once with the same seed; digests must
// match).
//
// Usage: chaos_soak [schedules=50] [base_seed=1]
//                   [--trace_out=PATH] [--metrics_out=PATH]
//                   [--ledger_out=PATH] [--flight_out=PATH]
//
// With --trace_out the run emits a Chrome trace_event JSON (Perfetto)
// containing every fault-injection instant and the recovery spans that
// follow, and the report gains a per-fault-class recovery-time
// breakdown aggregated from those spans. Timestamps are the runtime's
// virtual clock, so two runs with the same seed produce byte-identical
// traces. --ledger_out adds the causal event ledger (JSONL) that
// proteus_analyze turns into critical-path and cost reports, and any
// failing exit (auditor violation, digest mismatch) dumps a
// FlightRecorder post-mortem to --flight_out (default
// flight_recorder.json).
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/support.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/harness.h"
#include "src/chaos/lossy_link.h"
#include "src/chaos/scripted_recovery.h"

namespace proteus {
namespace {

ChaosConfig MakeConfig(std::uint64_t seed) {
  ChaosConfig config;
  config.agileml.num_partitions = 16;
  config.agileml.data_blocks = 128;
  config.agileml.parallel_execution = false;  // Required for determinism.
  // Leave room between active->backup syncs so mid-sync failures have
  // unsynced clocks at stake.
  config.agileml.backup_sync_every = 3;
  config.agileml.seed = seed;
  config.schedule.horizon = 40;
  config.schedule.events = 10;
  config.schedule.zones = 3;
  // An ultra-transient serverless worker pool so kTierStorm events have
  // victims; thinned capacity is replenished like BidBrain would.
  config.initial_serverless_allocations = 2;
  config.serverless_nodes_per_allocation = 2;
  config.min_serverless = 2;
  config.seed = seed;
  return config;
}

int RunLossyLinkSection(int schedules, std::uint64_t base_seed, MLApp* app);
int RunScriptedRecoverySection(int seeds, std::uint64_t base_seed, MLApp* app);

int RunSoak(int schedules, std::uint64_t base_seed) {
  RatingsConfig rc;
  rc.users = 400;
  rc.items = 200;
  rc.ratings = 15000;
  RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 8;
  MatrixFactorizationApp app(&data, mc);

  FaultClassStats totals[kNumFaultClasses];
  std::size_t total_violations = 0;
  int digest_mismatches = 0;
  int total_clocks = 0;
  int total_lost = 0;
  std::array<long long, 4> depth_totals{};
  std::uint64_t durable_committed = 0;
  std::uint64_t durable_aborts = 0;
  long long corrupt_injected = 0;
  long long corrupt_skipped = 0;
  long long torn_armed = 0;
  std::uint64_t scrubs = 0;
  std::uint64_t scrub_found = 0;

  for (int s = 0; s < schedules; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
    const ChaosConfig config = MakeConfig(seed);
    ChaosHarness harness(&app, config);
    // Only the primary run records into the session; instrumenting the
    // replay too would double every event in the trace.
    if (bench::ObsSession* session = bench::CurrentObsSession()) {
      session->Attach(harness);
    }
    const ChaosRunResult result = harness.Run();

    ChaosHarness replay(&app, config);
    const ChaosRunResult replayed = replay.Run();
    if (result.Digest() != replayed.Digest()) {
      ++digest_mismatches;
      std::fprintf(stderr, "seed %llu: digest mismatch (%llx vs %llx)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(result.Digest()),
                   static_cast<unsigned long long>(replayed.Digest()));
    }
    if (!result.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n", static_cast<unsigned long long>(seed),
                   harness.auditor().Report().c_str());
    }
    total_violations += result.violations.size();
    total_clocks += result.clocks_run;
    total_lost += result.lost_clocks_total;
    for (int c = 0; c < kNumFaultClasses; ++c) {
      const auto& stats = result.per_class[static_cast<std::size_t>(c)];
      totals[c].events += stats.events;
      totals[c].lost_clocks += stats.lost_clocks;
      totals[c].stall_seconds += stats.stall_seconds;
      totals[c].control_messages += stats.control_messages;
    }
    for (std::size_t d = 0; d < depth_totals.size(); ++d) {
      depth_totals[d] += result.recovery_depths[d];
    }
    durable_committed += result.durable_epochs_committed;
    durable_aborts += result.durable_commit_aborts;
    corrupt_injected += result.corrupt_frames_injected;
    corrupt_skipped += result.corrupt_epochs_skipped;
    torn_armed += result.torn_checkpoints_armed;
    scrubs += result.scrubs_run;
    scrub_found += result.scrub_corruptions_found;
  }

  std::printf("chaos soak: %d schedules x %lld-clock horizon, base seed %llu\n",
              schedules,
              static_cast<long long>(MakeConfig(base_seed).schedule.horizon),
              static_cast<unsigned long long>(base_seed));
  std::printf("%-22s %8s %12s %14s %10s\n", "fault class", "events", "lost clocks",
              "stall seconds", "ctrl msgs");
  for (int c = 0; c < kNumFaultClasses; ++c) {
    std::printf("%-22s %8d %12d %14.2f %10lld\n",
                FaultClassName(static_cast<FaultClass>(c)), totals[c].events,
                totals[c].lost_clocks, totals[c].stall_seconds,
                static_cast<long long>(totals[c].control_messages));
  }
  std::printf("total clocks executed:  %d (%d rolled back and re-done)\n", total_clocks,
              total_lost);
  std::printf("auditor violations:     %zu\n", total_violations);
  std::printf("determinism mismatches: %d\n", digest_mismatches);

  // Escalation-ladder breakdown (§3.3 tiered reliability): how deep each
  // recovery had to reach, and how the durable insurance behind rung 3
  // held up under injected corruption and torn commits.
  std::printf("\nrecovery-depth breakdown (escalation ladder):\n");
  std::printf("%-22s %8s\n", "depth", "events");
  for (std::size_t d = 0; d < depth_totals.size(); ++d) {
    std::printf("%-22s %8lld\n",
                RecoveryDepthName(static_cast<RecoveryDepth>(d)), depth_totals[d]);
  }
  std::printf("durable epochs committed: %llu (%llu commits aborted by torn writes; "
              "%lld torn-write faults armed)\n",
              static_cast<unsigned long long>(durable_committed),
              static_cast<unsigned long long>(durable_aborts), torn_armed);
  std::printf("corrupt frames injected:  %lld (%lld committed epochs skipped at "
              "restore time)\n",
              corrupt_injected, corrupt_skipped);
  std::printf("scrubs run:               %llu (found %llu corruptions)\n",
              static_cast<unsigned long long>(scrubs),
              static_cast<unsigned long long>(scrub_found));

  // Recovery-time breakdown from the trace spans: each recovery clock
  // following a fault carries one "recovery" span per contributing
  // class, so summing span durations attributes the stall time.
  if (bench::ObsSession* session = bench::CurrentObsSession()) {
    const obs::Tracer* tracer = session->tracer();
    if (tracer->SpanTotal("recovery") > 0.0) {
      std::printf("\nrecovery-time breakdown (from trace spans):\n");
      std::printf("%-22s %18s\n", "fault class", "recovery seconds");
      for (int c = 0; c < kNumFaultClasses; ++c) {
        const char* name = FaultClassName(static_cast<FaultClass>(c));
        std::printf("%-22s %18.2f\n", name, tracer->SpanTotal("recovery", "class", name));
      }
    }
  }
  const int chaos_rc = (total_violations == 0 && digest_mismatches == 0) ? 0 : 1;
  // The companion sections are comparatively cheap; cap them so huge
  // schedule counts stay dominated by the chaos sweep.
  const int scripted_rc =
      RunScriptedRecoverySection(schedules < 10 ? schedules : 10, base_seed, &app);
  const int lossy_rc =
      RunLossyLinkSection(schedules < 10 ? schedules : 10, base_seed, &app);
  if (chaos_rc != 0) {
    return chaos_rc;
  }
  return scripted_rc != 0 ? scripted_rc : lossy_rc;
}

// Scripted-recovery section: every row of the scenario table, crashed
// or stormed mid-run, must recover to a byte-identical digest at its
// depth of the ladder (last sync, pre-crash state, or the restored
// durable epoch), with the TierGuard exposure bound audited at every
// clock of the storm rows. Any digest mismatch or auditor violation
// fails the soak. The crash rows and the storm rows report separately.
int RunScriptedRecoverySection(int seeds, std::uint64_t base_seed, MLApp* app) {
  struct Tally {
    int scenarios = 0;
    int runs = 0;
    int digest_mismatches = 0;
    std::size_t violations = 0;
    int lost_clocks = 0;
    std::array<long long, 4> depth_runs{};
    std::array<int, 4> depth_lost{};
    long long serverless_revoked = 0;
  };
  Tally crash;
  Tally storm;
  for (const ScenarioRow& row : RecoveryScenarios()) {
    Tally& tally = row.storm ? storm : crash;
    ++tally.scenarios;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
      ScriptedRecoveryConfig config;
      config.agileml.num_partitions = 16;
      config.agileml.data_blocks = 128;
      config.agileml.parallel_execution = false;
      config.agileml.backup_sync_every = 3;
      config.agileml.seed = seed;
      config.scenario = row.scenario;
      config.horizon = 24;
      config.checkpoint_every = 4;
      config.fire_at = row.storm ? 11 : 15;
      const ScriptedRecoveryResult result = RunScriptedRecovery(app, config);
      ++tally.runs;
      tally.lost_clocks += result.lost_clocks;
      const auto depth = static_cast<std::size_t>(result.depth);
      tally.depth_runs[depth] += 1;
      tally.depth_lost[depth] += result.lost_clocks;
      tally.serverless_revoked += result.storm_victims;
      if (!result.digest_match) {
        ++tally.digest_mismatches;
        std::fprintf(stderr, "scripted_recovery %s seed %llu: digest mismatch\n", row.name,
                     static_cast<unsigned long long>(seed));
      }
      for (const auto& violation : result.violations) {
        ++tally.violations;
        std::fprintf(stderr, "scripted_recovery %s seed %llu: %s — %s\n", row.name,
                     static_cast<unsigned long long>(seed), violation.invariant.c_str(),
                     violation.detail.c_str());
      }
    }
  }

  std::printf("\ncrash/restart ladder: %d runs (%d scenarios x %d seeds)\n", crash.runs,
              crash.scenarios, seeds);
  std::printf("byte-identical recoveries: %d/%d\n", crash.runs - crash.digest_mismatches,
              crash.runs);
  std::printf("clocks of work lost:       %d total\n", crash.lost_clocks);
  std::printf("auditor violations:        %zu\n", crash.violations);

  std::printf("\ntier storms (zero-warning serverless evictions): %d runs "
              "(%d scenarios x %d seeds)\n", storm.runs, storm.scenarios, seeds);
  std::printf("serverless nodes revoked:  %lld (all with zero warning; every loss\n"
              "                           detector-confirmed, never drained)\n",
              storm.serverless_revoked);
  std::printf("byte-identical recoveries: %d/%d\n", storm.runs - storm.digest_mismatches,
              storm.runs);
  std::printf("per-depth recovery breakdown:\n");
  std::printf("%-22s %8s %12s\n", "depth", "storms", "lost clocks");
  for (std::size_t d = 0; d < storm.depth_runs.size(); ++d) {
    std::printf("%-22s %8lld %12d\n", RecoveryDepthName(static_cast<RecoveryDepth>(d)),
                storm.depth_runs[d], storm.depth_lost[d]);
  }
  std::printf("auditor violations:        %zu (TierGuard bound re-checked every clock)\n",
              storm.violations);
  const bool ok = crash.digest_mismatches == 0 && crash.violations == 0 &&
                  storm.digest_mismatches == 0 && storm.violations == 0;
  return ok ? 0 : 1;
}

// Lossy control-link section: drives the same controller command stream
// over (a) a clean link, (b) a hostile link behind the reliable
// transport, and (c) the hostile link raw. Reports whether the reliable
// transport reproduced the clean digest and what it cost in
// retransmits.
int RunLossyLinkSection(int schedules, std::uint64_t base_seed,
                        MLApp* app) {
  LinkFaultProfile profile;
  profile.drop_permille = 250;
  profile.delay_permille = 150;
  profile.dup_permille = 150;
  profile.blackhole_every = 20;
  profile.blackhole_len = 3;

  int masked = 0;
  int raw_diverged = 0;
  std::size_t violations = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t dropped = 0;
  for (int s = 0; s < schedules; ++s) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s);
    LossyLinkConfig config;
    config.agileml.num_partitions = 16;
    config.agileml.data_blocks = 128;
    config.agileml.parallel_execution = false;
    config.agileml.backup_sync_every = 3;
    config.agileml.seed = seed;
    config.horizon = 30;
    config.seed = seed;

    LossyLinkConfig clean = config;
    clean.reliable = false;
    const LossyLinkResult baseline = RunLossyLink(app, clean);

    LossyLinkConfig reliable = config;
    reliable.link = profile;
    reliable.reliable = true;
    const LossyLinkResult r = RunLossyLink(app, reliable);

    LossyLinkConfig raw = config;
    raw.link = profile;
    raw.reliable = false;
    const LossyLinkResult u = RunLossyLink(app, raw);

    masked += r.model_digest == baseline.model_digest ? 1 : 0;
    raw_diverged += u.model_digest != baseline.model_digest ? 1 : 0;
    violations += baseline.violations.size() + r.violations.size() + u.violations.size();
    retransmits += r.retransmits;
    dup_suppressed += r.dup_suppressed;
    dropped += r.link_dropped;
  }

  std::printf("\nlossy control link: %d seeds, drop %d%% / delay %d%% / dup %d%% "
              "/ blackhole %d-every-%d sends\n",
              schedules, profile.drop_permille / 10, profile.delay_permille / 10,
              profile.dup_permille / 10, profile.blackhole_len, profile.blackhole_every);
  std::printf("reliable transport masked the link: %d/%d runs (digest == fault-free)\n",
              masked, schedules);
  std::printf("raw channel diverged:               %d/%d runs\n", raw_diverged, schedules);
  std::printf("frames dropped by the link:         %llu (plus %llu duplicates suppressed)\n",
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(dup_suppressed));
  std::printf("retransmits paid to mask them:      %llu\n",
              static_cast<unsigned long long>(retransmits));
  std::printf("auditor violations:                 %zu\n", violations);
  return (masked == schedules && violations == 0) ? 0 : 1;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  // Strips the --*_out= observability flags before positional parsing.
  proteus::bench::ObsSession obs_session(argc, argv);
  const int schedules = argc > 1 ? std::atoi(argv[1]) : 50;
  const std::uint64_t base_seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  if (schedules <= 0) {
    std::fprintf(stderr, "usage: %s [schedules] [base_seed] [--trace_out=PATH] "
                         "[--metrics_out=PATH] [--ledger_out=PATH] "
                         "[--flight_out=PATH]\n", argv[0]);
    return 2;
  }
  const int rc = proteus::RunSoak(schedules, base_seed);
  if (rc != 0) {
    // Ship the evidence with the failure: the recent causal event
    // window plus the chain that led to the last recorded event.
    obs_session.DumpFlightRecorder("chaos_soak: failing exit code " + std::to_string(rc));
  }
  return rc;
}
