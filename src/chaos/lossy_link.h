// Lossy-link elasticity driver (ISSUE 5): proves end to end that the
// reliable transport masks an adversarial control link.
//
// A seeded command generator plays BidBrain: it issues allocation
// grants and eviction notices on a schedule that depends only on the
// seed (never on what was delivered). The commands travel over a
// Channel pair whose fault hook may drop, delay (reorder), duplicate,
// or blackhole frames. A defensive controller on the far side applies
// commands to an AgileMLRuntime strictly on delivery: duplicate or
// replayed grants are rejected, eviction notices are filtered to nodes
// it actually knows about.
//
// With `reliable = true` the link is wrapped in a ReliableChannel and
// pumped to quiescence at every clock boundary, so every command lands
// at the boundary it was issued — the run's model digest is
// byte-identical to a fault-free run with the same seed, and the
// ConsistencyAuditor stays clean. With `reliable = false` the same
// faults silently eat commands and the digest diverges; that contrast
// is the whole point (lossy_link_test pins both directions).
#ifndef SRC_CHAOS_LOSSY_LINK_H_
#define SRC_CHAOS_LOSSY_LINK_H_

#include <cstdint>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/chaos/consistency_auditor.h"
#include "src/chaos/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {

struct LossyLinkConfig {
  AgileMLConfig agileml;
  // Fault profile installed on both link directions (data and acks).
  // All-zero bands leave the link clean (the fault-free baseline).
  LinkFaultProfile link;
  // Wrap the command link in a ReliableChannel.
  bool reliable = true;
  int horizon = 40;        // Clocks to run.
  int command_every = 2;   // Issue one command every this many clocks.
  int initial_reliable = 2;
  int initial_transient_allocations = 2;
  int nodes_per_allocation = 4;
  // Pump-round bound per boundary before giving up (a reliable link
  // that cannot reach quiescence within this many rounds is a bug).
  int max_pump_rounds = 10000;
  std::uint64_t seed = 1;
};

struct LossyLinkResult {
  Clock final_clock = 0;
  int lost_clocks_total = 0;
  // FNV-1a over the model's canonical checkpoint blob, the final
  // clock, and the lost-clock count. Equal digests mean equal training
  // state.
  std::uint64_t model_digest = 0;
  int commands_issued = 0;
  int commands_applied = 0;
  int commands_rejected = 0;  // Duplicates / unknown targets, dropped defensively.
  // Link-level accounting (data direction).
  std::uint64_t link_dropped = 0;
  std::uint64_t link_duplicated = 0;
  std::uint64_t link_delayed = 0;
  // Transport accounting (zero when reliable = false).
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
};

// Runs the full scenario against `app` (must outlive the call);
// deterministic in config.seed. Optional observability sinks receive
// the runtime/transport/auditor streams.
LossyLinkResult RunLossyLink(MLApp* app, const LossyLinkConfig& config,
                             obs::Tracer* tracer = nullptr,
                             obs::MetricsRegistry* metrics = nullptr);

}  // namespace proteus

#endif  // SRC_CHAOS_LOSSY_LINK_H_
