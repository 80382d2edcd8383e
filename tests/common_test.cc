#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "src/common/csv.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"

namespace proteus {
namespace {

TEST(Types, FormatDuration) {
  EXPECT_EQ(FormatDuration(5.0), "5.00s");
  EXPECT_EQ(FormatDuration(65.0), "1m05.0s");
  EXPECT_EQ(FormatDuration(3600.0 + 120 + 3), "1h02m03s");
  EXPECT_EQ(FormatDuration(-5.0), "-5.00s");
}

TEST(Types, FormatMoney) {
  EXPECT_EQ(FormatMoney(1.5), "$1.5000");
  EXPECT_EQ(FormatMoney(-0.25), "-$0.2500");
}

// HashCombine and Mix64 seed pinned random streams (per-worker draws in
// the runtime, serverless storm draws, PS row init, backtest cells,
// tenant demand), so their outputs are pinned to the exact bits.
TEST(Hash, HashCombinePinned) {
  EXPECT_EQ(HashCombine(0, 0), 0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(HashCombine(1, 2), 0x9E3779B97F4A7C56ULL);
  EXPECT_EQ(HashCombine(42, HashCombine(7, 3)), 0x3C6EF372FE950457ULL);
  EXPECT_EQ(HashCombine(~0ULL, ~0ULL), 0x21C8864680B5842CULL);
}

TEST(Hash, Mix64Pinned) {
  // SplitMix64's first output for state 0 is the published reference value.
  EXPECT_EQ(Mix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(Mix64(1), 0x910A2DEC89025CC1ULL);
  EXPECT_EQ(Mix64(0xDEADBEEFULL), 0x4ADFB90F68C9EB9BULL);
  EXPECT_EQ(Mix64(~0ULL), 0xE4D971771B652C20ULL);
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All values reachable.
}

TEST(Rng, DeterministicBySeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, ZipfRangeAndSkew) {
  Rng rng(3);
  const std::int64_t n = 1000;
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.Zipf(n, 1.1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Head must dominate tail under a Zipf law.
  EXPECT_GT(counts[0], counts[100] * 5);
  EXPECT_GT(counts[0], 0);
}

TEST(Rng, ZipfDegenerate) {
  Rng rng(4);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Categorical({1.0, 9.0}) == 1) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / 10000.0, 0.9, 0.03);
}

TEST(Rng, CategoricalZeroWeightNeverPicked) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.Categorical({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  s.AddAll({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
  EXPECT_NEAR(s.StdDev(), std::sqrt(1.25), 1e-12);
}

TEST(SampleStats, PercentileInterpolation) {
  SampleStats s;
  s.AddAll({0.0, 10.0});
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);
}

TEST(SampleStats, SingleSample) {
  SampleStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(37.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Median(), 42.0);
}

TEST(SampleStats, EmptyOrderStatisticsReturnZero) {
  // Regression: benches print rows for schemes that completed no jobs;
  // the order statistics must return 0.0 rather than abort.
  const SampleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Min(), 0.0);
  EXPECT_EQ(s.Max(), 0.0);
  EXPECT_EQ(s.Median(), 0.0);
  EXPECT_EQ(s.Percentile(0.0), 0.0);
  EXPECT_EQ(s.Percentile(99.0), 0.0);
}

TEST(Logging, ParseLogLevel) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("fatal"), LogLevel::kFatal);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel(nullptr), std::nullopt);
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
}

TEST(RunningStats, MatchesSampleStats) {
  Rng rng(8);
  SampleStats sample;
  RunningStats running;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Normal(5.0, 2.0);
    sample.Add(v);
    running.Add(v);
  }
  EXPECT_NEAR(running.Mean(), sample.Mean(), 1e-9);
  EXPECT_NEAR(running.Variance(), sample.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(running.Min(), sample.Min());
  EXPECT_DOUBLE_EQ(running.Max(), sample.Max());
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2.5"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Csv, RoundTrip) {
  CsvWriter writer({"a", "b"});
  writer.AddRow({"1", "x"});
  writer.AddRow({"2", "y"});
  const CsvTable table = ParseCsv(writer.Render());
  ASSERT_EQ(table.headers.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "y");
}

TEST(Csv, SkipsCommentsAndBlanks) {
  const CsvTable table = ParseCsv("# comment\n\na,b\n1,2\n");
  EXPECT_EQ(table.headers.size(), 2u);
  ASSERT_EQ(table.rows.size(), 1u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

}  // namespace
}  // namespace proteus
