// Golden determinism test for sim-clock tracing: two chaos runs with the
// same seed must render byte-identical Chrome trace JSON, and the trace
// must carry the fault-injection instants and recovery spans the soak
// driver's per-class breakdown is built on.
#include <gtest/gtest.h>

#include <string>

#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/harness.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace {

ChaosConfig GoldenConfig(std::uint64_t seed) {
  ChaosConfig config;
  config.agileml.num_partitions = 8;
  config.agileml.data_blocks = 64;
  config.agileml.parallel_execution = false;  // Required for determinism.
  config.agileml.backup_sync_every = 3;
  config.agileml.seed = seed;
  config.schedule.horizon = 20;
  config.schedule.events = 8;
  config.schedule.zones = 3;
  config.seed = seed;
  return config;
}

// One instrumented chaos run; returns the rendered trace JSON.
std::string TraceOneRun(MLApp* app, std::uint64_t seed) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ChaosHarness harness(app, GoldenConfig(seed));
  harness.SetObservability(&tracer, &metrics);
  const ChaosRunResult result = harness.Run();
  EXPECT_TRUE(result.ok()) << harness.auditor().Report();
  return tracer.ToChromeJson();
}

TEST(ObsTraceGolden, SameSeedRunsRenderByteIdenticalJson) {
  RatingsConfig rc;
  rc.users = 200;
  rc.items = 100;
  rc.ratings = 6000;
  RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 4;
  MatrixFactorizationApp app(&data, mc);

  const std::string first = TraceOneRun(&app, /*seed=*/7);
  const std::string second = TraceOneRun(&app, /*seed=*/7);
  EXPECT_EQ(first, second);

  // A different seed must actually change the trace (the comparison
  // above is not vacuous).
  const std::string other = TraceOneRun(&app, /*seed=*/8);
  EXPECT_NE(first, other);

  // Structure: valid trace_event envelope with fault instants, recovery
  // spans, and the agileml clock spans they interleave with.
  EXPECT_EQ(first.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_EQ(first.back(), '\n');
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"fault."), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"recovery\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"clock\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"i\""), std::string::npos);
}

}  // namespace
}  // namespace proteus
