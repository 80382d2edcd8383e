// Concurrency stress battery for the ModelStore. Runs under
// the TSan preset/CI job (cmake --preset tsan) as well as the default
// and ASan builds. Invariants:
//   - no torn rows: writers add uniform-constant deltas to rows whose
//     init_jitter is 0, so EVERY consistent read of a row must see all
//     components equal — a mixed row means a reader saw a half-applied
//     update;
//   - atomicity of overlapping writes: after joining, each contended
//     row's value equals the exact sum of all constants applied to it
//     (float addition of identical constants is associative enough:
//     values are small integers, exactly representable);
//   - concurrent SerializeCheckpoint snapshots are internally consistent
//     (restoring one into a fresh store never yields a torn row);
//   - rows are stored in chunks allocated on first touch; threads that
//     first-touch rows of one fresh chunk at once, racing a snapshotter,
//     each land in that one chunk and lose no update;
//   - batched ApplyDeltas/ReadRows, which lock one partition at a time,
//     lose no update and tear no row while snapshots, syncs and
//     rollbacks run, and mark every row they write dirty, so a rollback
//     removes exactly the writes since the last sync.
// The soak-labeled long variant lives in tests/ps_stress_soak_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/ps/model.h"

namespace proteus {
namespace {

constexpr int kCols = 8;

ModelStore MakeStore(std::int64_t rows) {
  // init_jitter = 0: every row starts with all components equal, and
  // uniform deltas keep them equal — the torn-row oracle.
  return ModelStore({{0, rows, kCols, 0.0F, 0.0F}}, /*num_partitions=*/16, /*seed=*/11);
}

void ExpectUniformRow(std::span<const float> row, const char* what) {
  for (std::size_t c = 1; c < row.size(); ++c) {
    ASSERT_EQ(row[c], row[0]) << what << ": torn row (component " << c << ")";
  }
}

// Writers add `value` to every component of rows in [begin, end) for
// `iters` rounds.
void WriterLoop(ModelStore& store, std::int64_t begin, std::int64_t end, float value, int iters) {
  std::vector<float> delta(kCols, value);
  for (int it = 0; it < iters; ++it) {
    for (std::int64_t r = begin; r < end; ++r) {
      store.ApplyDelta(0, r, delta);
    }
  }
}

TEST(PsStressTest, ConcurrentWritersReadersAndSnapshotsStayConsistent) {
  constexpr int writers = 8;
  constexpr int iters = 40;
  constexpr std::int64_t rows_per_writer = 48;
  constexpr std::int64_t contended_rows = rows_per_writer;  // Shared tail range.
  constexpr std::int64_t total_rows = writers * rows_per_writer + contended_rows;
  ModelStore store = MakeStore(total_rows);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  // Reader: point reads across the whole key space, checking for torn rows.
  std::thread reader([&] {
    std::vector<float> out;
    std::uint64_t x = 0x243F6A8885A308D3ULL;  // Local xorshift; no locks.
    while (!stop.load(std::memory_order_relaxed)) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::int64_t r = static_cast<std::int64_t>(x % static_cast<std::uint64_t>(total_rows));
      store.ReadRow(0, r, out);
      for (int c = 1; c < kCols; ++c) {
        if (out[static_cast<std::size_t>(c)] != out[0]) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  // Snapshotter: full-model serialization racing the writers; each blob
  // must restore to a store with zero torn rows.
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<std::uint8_t> blob = store.SerializeCheckpoint();
      ModelStore replica = MakeStore(total_rows);
      replica.RestoreCheckpoint(blob);
      replica.ForEachRow(0, [&](std::int64_t, std::span<const float> row) {
        for (std::size_t c = 1; c < row.size(); ++c) {
          if (row[c] != row[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    // Disjoint range, plus everyone hammers the shared contended tail.
    threads.emplace_back([&, w] {
      const std::int64_t begin = w * rows_per_writer;
      WriterLoop(store, begin, begin + rows_per_writer, 1.0F, iters);
      WriterLoop(store, writers * rows_per_writer, total_rows, 1.0F, iters);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  snapshotter.join();

  EXPECT_EQ(torn.load(), 0);

  // Exact final sums. Each disjoint row received `iters` adds of 1.0
  // from one writer; each contended row `iters` adds from every writer.
  std::vector<float> out;
  for (std::int64_t r = 0; r < writers * rows_per_writer; ++r) {
    store.ReadRow(0, r, out);
    ExpectUniformRow(out, "disjoint");
    ASSERT_EQ(out[0], static_cast<float>(iters)) << "row " << r;
  }
  for (std::int64_t r = writers * rows_per_writer; r < total_rows; ++r) {
    store.ReadRow(0, r, out);
    ExpectUniformRow(out, "contended");
    ASSERT_EQ(out[0], static_cast<float>(iters * writers)) << "row " << r;
  }
}

TEST(PsStressTest, ConcurrentBackupSyncAndRollbackKeepRowsUniform) {
  ModelStore store = MakeStore(/*rows=*/256);
  store.EnableBackups();
  std::atomic<bool> stop{false};
  std::thread syncer([&] {
    int spin = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (PartitionId p = 0; p < store.num_partitions(); ++p) {
        store.SyncPartitionToBackup(p);
      }
      ++spin;
      if (spin % 3 == 0) {
        store.RollbackAllToBackup();
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&] { WriterLoop(store, 0, 256, 1.0F, 40); });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  syncer.join();
  // Rollbacks discard arbitrary update subsets, so final values are not
  // predictable — but uniformity must hold, and the store must still be
  // serializable and restorable.
  std::vector<float> out;
  for (std::int64_t r = 0; r < 256; ++r) {
    store.ReadRow(0, r, out);
    ExpectUniformRow(out, "post-sync/rollback");
  }
  ModelStore replica = MakeStore(256);
  replica.RestoreCheckpoint(store.SerializeCheckpoint());
  EXPECT_EQ(replica.SerializeCheckpoint(), store.SerializeCheckpoint());
}

TEST(PsStressTest, FirstTouchOfOneFreshChunkRacesSnapshots) {
  // Partition 0 owns rows 0, 16, 32, ... of the 16-partition store, at
  // local indexes 0, 1, 2, ...; round r touches the 64 rows of its chunk
  // r, none touched before. Writers split each chunk's rows between them
  // and start every round together, so they all allocate-or-find the
  // same chunk under the partition lock while the snapshotter serializes.
  constexpr int writers = 4;
  constexpr int rounds = 16;
  constexpr std::int64_t chunk_rows = 64;
  constexpr std::int64_t partitions = 16;
  constexpr std::int64_t total_rows = rounds * chunk_rows * partitions;
  ModelStore store = MakeStore(total_rows);
  auto row_of = [](int round, std::int64_t j) { return (round * chunk_rows + j) * partitions; };

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ModelStore replica = MakeStore(total_rows);
      replica.RestoreCheckpoint(store.SerializeCheckpoint());
      replica.ForEachRow(0, [&](std::int64_t, std::span<const float> row) {
        for (std::size_t c = 1; c < row.size(); ++c) {
          if (row[c] != row[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  });

  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<float> delta(kCols, 1.0F);
      std::vector<float> out;
      for (int round = 0; round < rounds; ++round) {
        arrived.fetch_add(1);
        while (arrived.load() < (round + 1) * writers) {
          std::this_thread::yield();
        }
        for (std::int64_t j = w; j < chunk_rows; j += writers) {
          store.ReadRow(0, row_of(round, j), out);  // First touch.
          store.ApplyDelta(0, row_of(round, j), delta);
          store.ApplyDelta(0, row_of(round, (j + 1) % chunk_rows), delta);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(store.MaterializedRows(), static_cast<std::size_t>(rounds * chunk_rows));
  // Every row got one delta from its own writer and one from its
  // predecessor's.
  std::vector<float> out;
  for (int round = 0; round < rounds; ++round) {
    for (std::int64_t j = 0; j < chunk_rows; ++j) {
      store.ReadRow(0, row_of(round, j), out);
      ExpectUniformRow(out, "first-touch");
      ASSERT_EQ(out[0], 2.0F) << "round " << round << " slot " << j;
    }
  }
}

TEST(PsStressTest, BatchedWritersRaceSnapshotsAndRollback) {
  // Each writer's ApplyDeltas lists its own rows and the shared contended
  // tail, every row twice, so one call adds 2.0 to each. A snapshotter
  // and a batched reader check for torn rows throughout, and a syncer
  // syncs partitions under the writers. Each round ends at a barrier
  // where the main thread syncs every partition, then (while the reader
  // and snapshotter still run) applies a poison batch to every row and
  // rolls it back: the rollback must remove exactly the poison.
  constexpr int writers = 4;
  constexpr int rounds = 6;
  constexpr int iters = 8;
  constexpr std::int64_t rows_per_writer = 40;
  constexpr std::int64_t shared_begin = writers * rows_per_writer;
  constexpr std::int64_t total_rows = shared_begin + rows_per_writer;
  ModelStore store = MakeStore(total_rows);
  store.EnableBackups();

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  auto count_torn = [&](std::span<const float> row) {
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] != row[0]) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ModelStore replica = MakeStore(total_rows);
      replica.RestoreCheckpoint(store.SerializeCheckpoint());
      replica.ForEachRow(0, [&](std::int64_t, std::span<const float> row) { count_torn(row); });
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    std::vector<std::int64_t> rows(48);
    std::vector<float> out(rows.size() * kCols);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // Local xorshift; no locks.
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::int64_t& r : rows) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        r = static_cast<std::int64_t>(x % static_cast<std::uint64_t>(total_rows));
      }
      store.ReadRows(0, rows, out);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        count_torn(std::span<const float>(out).subspan(i * kCols, kCols));
      }
    }
  });

  std::vector<std::int64_t> all_rows;
  for (std::int64_t r = 0; r < total_rows; ++r) {
    all_rows.push_back(r);
  }
  const std::vector<float> poison(all_rows.size() * kCols, -1000.0F);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<bool> written{false};
    std::thread syncer([&] {
      while (!written.load()) {
        for (PartitionId p = 0; p < store.num_partitions(); ++p) {
          store.SyncPartitionToBackup(p);
        }
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        std::vector<std::int64_t> rows;
        for (int rep = 0; rep < 2; ++rep) {
          for (std::int64_t r = w * rows_per_writer; r < (w + 1) * rows_per_writer; ++r) {
            rows.push_back(r);
          }
          for (std::int64_t r = shared_begin; r < total_rows; ++r) {
            rows.push_back(r);
          }
        }
        const std::vector<float> deltas(rows.size() * kCols, 1.0F);
        for (int it = 0; it < iters; ++it) {
          store.ApplyDeltas(0, rows, deltas);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    written.store(true);
    syncer.join();
    for (PartitionId p = 0; p < store.num_partitions(); ++p) {
      store.SyncPartitionToBackup(p);
    }
    store.ApplyDeltas(0, all_rows, poison);
    store.RollbackAllToBackup();
  }
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  std::vector<float> out(all_rows.size() * kCols);
  store.ReadRows(0, all_rows, out);
  for (std::int64_t r = 0; r < total_rows; ++r) {
    const auto row = std::span<const float>(out).subspan(static_cast<std::size_t>(r) * kCols, kCols);
    ExpectUniformRow(row, "batched");
    const int adds = 2 * iters * rounds * (r < shared_begin ? 1 : writers);
    ASSERT_EQ(row[0], static_cast<float>(adds)) << "row " << r;
  }
}

}  // namespace
}  // namespace proteus
