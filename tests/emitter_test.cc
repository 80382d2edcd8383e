// The observability emitter: one call feeds every attached sink, and the
// runtimes built on it record the same events whatever sinks are
// attached, in whatever order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/market/trace_gen.h"
#include "src/obs/emitter.h"
#include "src/proteus/proteus_runtime.h"

namespace proteus {
namespace {

using obs::Emitter;
using obs::EventLedger;
using obs::LedgerEvent;
using obs::MetricsRegistry;
using obs::TraceArgs;
using obs::TraceEvent;
using obs::Tracer;

TEST(Emitter, LeafEventLandsInLedgerAndTrace) {
  Tracer tracer;
  EventLedger ledger;
  Emitter emitter;
  emitter.SetTracer(&tracer);
  emitter.SetLedger(&ledger);
  const TraceArgs args = {{"node", std::int64_t{7}}, {"why", std::string("lease")}};
  const obs::EventId id = emitter.Event("detector.suspected", "agileml", 2.5, args);

  ASSERT_EQ(ledger.size(), 1u);
  const LedgerEvent event = ledger.Get(id);
  EXPECT_EQ(event.kind, "detector.suspected");
  EXPECT_EQ(event.component, "agileml");
  EXPECT_DOUBLE_EQ(event.ts, 2.5);
  EXPECT_EQ(event.args, args);

  ASSERT_EQ(tracer.size(), 1u);
  const TraceEvent& mirror = tracer.events()[0];
  EXPECT_EQ(mirror.phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(mirror.name, event.kind);
  EXPECT_EQ(mirror.track, event.component);
  EXPECT_DOUBLE_EQ(mirror.ts, event.ts);
  EXPECT_EQ(mirror.args, event.args);
}

TEST(Emitter, ClosedRegionBecomesSpanWithOpenAndCloseArgs) {
  Tracer tracer;
  EventLedger ledger;
  Emitter emitter;
  emitter.SetTracer(&tracer);
  emitter.SetLedger(&ledger);
  const Emitter::Region region =
      emitter.Open("recovery.step", "recovery", 10.0, {{"failed", std::int64_t{2}}});
  const obs::EventId child = emitter.Event("rollback", "agileml", 10.0);
  emitter.Close(region, 1.5, {{"depth", std::string("backup-promotion")}});

  EXPECT_EQ(ledger.Get(child).parent, region.id);
  const LedgerEvent closed = ledger.Get(region.id);
  EXPECT_DOUBLE_EQ(closed.dur, 1.5);
  const TraceArgs both = {{"failed", std::int64_t{2}},
                          {"depth", std::string("backup-promotion")}};
  EXPECT_EQ(closed.args, both);

  ASSERT_EQ(tracer.size(), 2u);  // The child's instant, then the span.
  const TraceEvent& span = tracer.events()[1];
  EXPECT_EQ(span.phase, TraceEvent::Phase::kSpan);
  EXPECT_EQ(span.name, "recovery.step");
  EXPECT_EQ(span.track, "recovery");
  EXPECT_DOUBLE_EQ(span.ts, 10.0);
  EXPECT_DOUBLE_EQ(span.dur, 1.5);
  EXPECT_EQ(span.args, both);
}

TEST(Emitter, RegionSpanNeedsNoLedger) {
  Tracer tracer;
  Emitter emitter;
  emitter.SetTracer(&tracer);
  const Emitter::Region region =
      emitter.Open("round", "cluster", 0.0, {{"round", std::int64_t{3}}});
  EXPECT_EQ(region.id, obs::kNoEvent);
  emitter.Close(region, 3600.0, {{"granted", std::int64_t{8}}});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.SpanTotal("round", "round", "3"), 3600.0);
}

TEST(Emitter, ExplicitCausalParentIsKept) {
  EventLedger ledger;
  Emitter emitter;
  emitter.SetLedger(&ledger);
  const obs::EventId send = emitter.Event("rpc.send.reliable", "rpc", 0.0);
  const Emitter::Region region = emitter.Open("clock", "agileml", 1.0);
  const obs::EventId retransmit = emitter.EventWithParent("rpc.retransmit", "rpc", 1.0, send);
  const obs::EventId ambient = emitter.Event("pull", "agileml", 1.0);
  emitter.Close(region, 1.0);
  EXPECT_EQ(ledger.Get(retransmit).parent, send);
  EXPECT_EQ(ledger.Get(ambient).parent, region.id);
}

TEST(Emitter, TraceOnlyViewsSkipTheLedger) {
  Tracer tracer;
  EventLedger ledger;
  Emitter emitter;
  emitter.SetTracer(&tracer);
  emitter.SetLedger(&ledger);
  emitter.Instant(1.0, "fault.blackhole", "chaos");
  emitter.Span(1.0, 0.5, "recovery", "chaos", {{"class", std::string("blackhole")}});
  emitter.Sample(1.0, "worker_nodes", "agileml", 4.0);
  EXPECT_EQ(ledger.size(), 0u);
  ASSERT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.events()[2].phase, TraceEvent::Phase::kCounter);
}

TEST(Emitter, NoSinksIsANoOpWithUsableMetricHandles) {
  Emitter emitter;
  EXPECT_EQ(emitter.Event("nodes.add", "agileml", 0.0, {{"count", std::int64_t{1}}}),
            obs::kNoEvent);
  const Emitter::Region region = emitter.Open("clock", "agileml", 0.0);
  EXPECT_EQ(region.id, obs::kNoEvent);
  emitter.Close(region, 1.0);
  emitter.Instant(0.0, "decision", "bidbrain");
  emitter.Span(0.0, 1.0, "recovery.stall", "agileml");
  emitter.Sample(0.0, "cost_dollars", "proteus", 1.0);

  // Handles come from the default registry, never null.
  obs::Counter* counter = emitter.GetCounter("emitter_test.unattached");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, MetricsRegistry::Default().GetCounter("emitter_test.unattached"));
  const std::uint64_t before = counter->value();
  counter->Increment();
  EXPECT_EQ(counter->value(), before + 1);
  emitter.GetGauge("emitter_test.gauge")->Set(2.0);
  emitter.GetHistogram("emitter_test.hist", {1.0})->Observe(0.5);

  MetricsRegistry attached;
  emitter.SetMetrics(&attached);
  emitter.GetCounter("emitter_test.attached")->Increment();
  EXPECT_DOUBLE_EQ(attached.Snapshot().Value("emitter_test.attached"), 1.0);
}

// ---------------------------------------------------------------------------
// Runtime wiring.

std::unique_ptr<MatrixFactorizationApp> SmallMf(RatingsDataset* data) {
  RatingsConfig rc;
  rc.users = 300;
  rc.items = 120;
  rc.ratings = 8000;
  *data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 8;
  return std::make_unique<MatrixFactorizationApp>(data, mc);
}

// Runs 6 clocks with a node gone silent after the first, so the detector
// suspects and confirms it; returns the trace.
std::string SilentNodeTrace(MLApp* app, MetricsRegistry* metrics) {
  AgileMLConfig config;
  config.num_partitions = 8;
  config.data_blocks = 32;
  config.parallel_execution = false;
  config.detector.enabled = true;
  config.detector.suspect_after = 1;
  config.detector.confirm_after = 3;
  std::vector<NodeInfo> nodes;
  for (NodeId id = 0; id < 6; ++id) {
    nodes.push_back({id, id < 2 ? Tier::kReliable : Tier::kTransient, 8, kInvalidAllocation});
  }
  AgileMLRuntime runtime(app, config, nodes);
  Tracer tracer;
  runtime.SetObservability(&tracer, metrics);
  runtime.RunClock();
  runtime.SetNodeSilent(5, true);
  for (int i = 0; i < 5; ++i) {
    runtime.RunClock();
  }
  EXPECT_GT(runtime.failure_detector().suspicions(), 0u);
  return tracer.ToChromeJson();
}

TEST(EmitterWiring, DetectorSuspicionSamplesNeedNoRegistry) {
  RatingsDataset data;
  const auto app = SmallMf(&data);
  const std::string trace = SilentNodeTrace(app.get(), nullptr);
  EXPECT_NE(trace.find("\"name\":\"detector_suspicions\",\"args\":{\"value\":1}"),
            std::string::npos)
      << trace;
}

TEST(EmitterWiring, SameSeedRunsSharingARegistryRenderIdenticalTraces) {
  RatingsDataset data;
  const auto app = SmallMf(&data);
  MetricsRegistry shared;
  const std::string first = SilentNodeTrace(app.get(), &shared);
  const std::string second = SilentNodeTrace(app.get(), &shared);
  EXPECT_NE(first.find("\"detector_suspicions\""), std::string::npos);
  EXPECT_EQ(first, second);
}

class EmitterProteusTest : public ::testing::Test {
 protected:
  EmitterProteusTest() : catalog_(InstanceTypeCatalog::Default()), app_(SmallMf(&data_)) {
    Rng rng(51);
    traces_ = TraceStore::GenerateSynthetic(catalog_, {"z0"}, 12 * kDay, {}, rng);
    estimator_.Train(traces_, 0.0, 10 * kDay);
  }

  // Trains 4 clocks with the sinks attached in the given order; returns
  // the ledger JSONL and the trace JSON.
  std::pair<std::string, std::string> Run(bool ledger_first) {
    ProteusConfig config;
    config.agileml.num_partitions = 8;
    config.agileml.data_blocks = 32;
    config.agileml.parallel_execution = false;
    config.agileml.core_speed = 2e3;
    config.bidbrain.allocation_quantum = 4;
    config.on_demand_count = 2;
    ProteusRuntime runtime(app_.get(), &catalog_, &traces_, &estimator_, config, 11 * kDay);
    Tracer tracer;
    MetricsRegistry metrics;
    EventLedger ledger;
    if (ledger_first) {
      runtime.SetLedger(&ledger);
      runtime.SetObservability(&tracer, &metrics);
    } else {
      runtime.SetObservability(&tracer, &metrics);
      runtime.SetLedger(&ledger);
    }
    EXPECT_EQ(ledger.size(), 0u) << "attaching records nothing";
    EXPECT_EQ(tracer.size(), 0u) << "attaching records nothing";
    runtime.Train(4);
    return {ledger.ToJsonl(), tracer.ToChromeJson()};
  }

  InstanceTypeCatalog catalog_;
  TraceStore traces_;
  EvictionEstimator estimator_;
  RatingsDataset data_;
  std::unique_ptr<MatrixFactorizationApp> app_;
};

TEST_F(EmitterProteusTest, AttachOrderDoesNotChangeLedgerOrTrace) {
  const auto ledger_first = Run(true);
  const auto tracer_first = Run(false);
  EXPECT_NE(ledger_first.first.find("\"kind\":\"cost.sample\""), std::string::npos);
  EXPECT_EQ(ledger_first.first, tracer_first.first);
  EXPECT_EQ(ledger_first.second, tracer_first.second);
}

}  // namespace
}  // namespace proteus
