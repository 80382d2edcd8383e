#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace obs {
namespace {

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("rpc.messages.sent", {{"channel", "api"}});
  Counter* b = registry.GetCounter("rpc.messages.sent", {{"channel", "api"}});
  Counter* other = registry.GetCounter("rpc.messages.sent", {{"channel", "ctrl"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Add(3);
  b->Increment();
  EXPECT_EQ(a->value(), 4u);
  EXPECT_EQ(other->value(), 0u);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(MetricsRegistry, GaugeAndHistogram) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("agileml.backup_sync.lag_clocks");
  g->Set(3.0);
  EXPECT_EQ(g->value(), 3.0);
  Histogram* h = registry.GetHistogram("agileml.clock.duration_seconds", {1.0, 5.0});
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(100.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 102.5);
  const std::vector<std::uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // Two bounds plus +inf overflow.
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsSnapshot, FindValueAndDiff) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(10);
  registry.GetGauge("a.level")->Set(2.5);
  const MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("a.count")->Add(5);
  registry.GetGauge("a.level")->Set(7.5);
  const MetricsSnapshot after = registry.Snapshot();

  EXPECT_EQ(before.Value("a.count"), 10.0);
  EXPECT_EQ(after.Value("a.count"), 15.0);
  EXPECT_EQ(after.Value("missing"), 0.0);
  EXPECT_EQ(after.Find("missing"), nullptr);

  const MetricsSnapshot diff = MetricsSnapshot::Diff(before, after);
  EXPECT_EQ(diff.Value("a.count"), 5.0);   // Counters subtract.
  EXPECT_EQ(diff.Value("a.level"), 7.5);   // Gauges take the after value.
}

TEST(MetricsSnapshot, TextAndCsvExport) {
  MetricsRegistry registry;
  registry.GetCounter("rpc.bytes.sent", {{"channel", "api"}, {"type", "read_param"}})->Add(64);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("rpc.bytes.sent{channel=api,type=read_param} counter 64"),
            std::string::npos);
  const std::string csv = snapshot.ToCsv();
  EXPECT_NE(csv.find("name,labels,kind,value,count"), std::string::npos);
  EXPECT_NE(csv.find("rpc.bytes.sent"), std::string::npos);
}

TEST(Tracer, RecordsSpansAndInstants) {
  Tracer tracer;
  tracer.SpanAt(1.0, 0.5, "clock", "agileml", {{"clock", std::int64_t{7}}});
  tracer.InstantAt(1.25, "nodes.evict", "agileml", {{"count", std::int64_t{4}}});
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.events()[0].phase, TraceEvent::Phase::kSpan);
  EXPECT_EQ(tracer.events()[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_DOUBLE_EQ(tracer.events()[0].dur, 0.5);
}

TEST(Tracer, ChromeJsonShapeAndDeterminism) {
  const auto record = [](Tracer& tracer) {
    tracer.SpanAt(0.0, 2.0, "clock", "agileml",
                  {{"stage", "stage3"}, {"bytes", std::int64_t{1024}}, {"stall", 0.25}});
    tracer.InstantAt(1.0, "fault.transient-wipeout", "chaos", {{"magnitude", std::int64_t{3}}});
    tracer.SpanAt(1.0, 0.25, "recovery", "chaos", {{"class", "transient-wipeout"}});
  };
  Tracer a;
  Tracer b;
  record(a);
  record(b);
  const std::string json = a.ToChromeJson();
  EXPECT_EQ(json, b.ToChromeJson());  // Same events => byte-identical.
  // Spans are complete events with microsecond timestamps; instants are
  // ph "i"; tracks get thread_name metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos);
  EXPECT_NE(json.find("fault.transient-wipeout"), std::string::npos);
}

TEST(Tracer, SpanTotalFiltersByNameAndArg) {
  Tracer tracer;
  tracer.SpanAt(0.0, 1.0, "recovery", "chaos", {{"class", "zone-mass-eviction"}});
  tracer.SpanAt(2.0, 0.5, "recovery", "chaos", {{"class", "transient-wipeout"}});
  tracer.SpanAt(3.0, 4.0, "clock", "agileml");
  EXPECT_DOUBLE_EQ(tracer.SpanTotal("recovery"), 1.5);
  EXPECT_DOUBLE_EQ(tracer.SpanTotal("recovery", "class", "transient-wipeout"), 0.5);
  EXPECT_DOUBLE_EQ(tracer.SpanTotal("recovery", "class", "absent"), 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace proteus
