// Soak-labeled long variant of tests/ps_stress_test.cc (the filename's
// "soak" gives it the ctest `soak` label; excluded from the default and
// TSan suites, run by the dedicated soak lane). Same invariants — no
// torn rows, exact contended sums, consistent concurrent snapshots — at an order of magnitude more work, enough for
// TSan/ASan to see rare interleavings (row materialization racing
// readers, backup syncs racing applies).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/ps/model.h"

namespace proteus {
namespace {

constexpr int kCols = 16;

ModelStore MakeStore(std::int64_t rows) {
  return ModelStore({{0, rows, kCols, 0.0F, 0.0F}}, /*num_partitions=*/32, /*seed=*/23);
}

void WriterLoop(ModelStore& store, std::int64_t begin, std::int64_t end, int iters) {
  std::vector<float> delta(kCols, 1.0F);
  for (int it = 0; it < iters; ++it) {
    for (std::int64_t r = begin; r < end; ++r) {
      store.ApplyDelta(0, r, delta);
    }
  }
}

TEST(PsStressSoakTest, LongMixedWorkloadStaysConsistent) {
  constexpr int kWriters = 8;
  constexpr int kIters = 400;
  constexpr std::int64_t kRowsPerWriter = 256;
  constexpr std::int64_t kContended = 256;
  constexpr std::int64_t kTotalRows = kWriters * kRowsPerWriter + kContended;
  ModelStore store = MakeStore(kTotalRows);
  store.EnableBackups();

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      std::vector<float> out;
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        store.ReadRow(0, static_cast<std::int64_t>(x % kTotalRows), out);
        for (int c = 1; c < kCols; ++c) {
          if (out[static_cast<std::size_t>(c)] != out[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Background sync pressure on every partition (stage-2 ActivePS load),
  // without rollbacks so the final sums stay exact.
  std::thread syncer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (PartitionId p = 0; p < store.num_partitions(); ++p) {
        store.SyncPartitionToBackup(p);
      }
      std::this_thread::yield();
    }
  });

  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<std::uint8_t> blob = store.SerializeCheckpoint();
      ModelStore replica = MakeStore(kTotalRows);
      replica.RestoreCheckpoint(blob);
      replica.ForEachRow(0, [&](std::int64_t, std::span<const float> row) {
        for (std::size_t c = 1; c < row.size(); ++c) {
          if (row[c] != row[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::int64_t begin = w * kRowsPerWriter;
      WriterLoop(store, begin, begin + kRowsPerWriter, kIters);
      WriterLoop(store, kWriters * kRowsPerWriter, kTotalRows, kIters);
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) {
    t.join();
  }
  syncer.join();
  snapshotter.join();

  EXPECT_EQ(torn.load(), 0);
  std::vector<float> out;
  for (std::int64_t r = 0; r < kWriters * kRowsPerWriter; ++r) {
    store.ReadRow(0, r, out);
    ASSERT_EQ(out[0], static_cast<float>(kIters)) << "row " << r;
  }
  for (std::int64_t r = kWriters * kRowsPerWriter; r < kTotalRows; ++r) {
    store.ReadRow(0, r, out);
    ASSERT_EQ(out[0], static_cast<float>(kIters * kWriters)) << "row " << r;
  }
}

}  // namespace
}  // namespace proteus
