#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "src/common/crc32.h"
#include "src/ps/model.h"

namespace proteus {
namespace {

std::vector<TableSpec> TwoTables() {
  return {{0, 100, 4, 0.0F, 0.1F}, {1, 50, 8, 1.0F, 0.0F}};
}

TEST(ModelStore, LazyInitIsDeterministic) {
  ModelStore a(TwoTables(), 8, 7);
  ModelStore b(TwoTables(), 8, 7);
  std::vector<float> va;
  std::vector<float> vb;
  a.ReadRow(0, 42, va);
  b.ReadRow(0, 42, vb);
  EXPECT_EQ(va, vb);
  ASSERT_EQ(va.size(), 4u);
  for (float v : va) {
    EXPECT_LE(std::abs(v), 0.1F);
  }
}

TEST(ModelStore, LazyInitIndependentOfAccessOrder) {
  ModelStore a(TwoTables(), 8, 7);
  ModelStore b(TwoTables(), 8, 7);
  std::vector<float> tmp;
  b.ReadRow(0, 1, tmp);  // Touch another row first in b.
  std::vector<float> va;
  std::vector<float> vb;
  a.ReadRow(0, 42, va);
  b.ReadRow(0, 42, vb);
  EXPECT_EQ(va, vb);
}

TEST(ModelStore, JitterFreeTableInitsToValue) {
  ModelStore m(TwoTables(), 8, 7);
  std::vector<float> v;
  m.ReadRow(1, 3, v);
  ASSERT_EQ(v.size(), 8u);
  for (float x : v) {
    EXPECT_FLOAT_EQ(x, 1.0F);
  }
}

TEST(ModelStore, ApplyDeltaAccumulates) {
  ModelStore m(TwoTables(), 8, 7);
  const std::vector<float> delta{1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F, 7.0F, 8.0F};
  m.ApplyDelta(1, 0, delta);
  m.ApplyDelta(1, 0, delta);
  std::vector<float> v;
  m.ReadRow(1, 0, v);
  EXPECT_FLOAT_EQ(v[0], 3.0F);  // 1.0 init + 2x1.0.
  EXPECT_FLOAT_EQ(v[7], 17.0F);
}

TEST(ModelStore, PartitionOfIsStableAndInRange) {
  ModelStore m(TwoTables(), 8, 7);
  for (std::int64_t r = 0; r < 100; ++r) {
    const PartitionId p = m.PartitionOf(0, r);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
    EXPECT_EQ(p, m.PartitionOf(0, r));
  }
}

TEST(ModelStore, RowBytesIncludesOverhead) {
  ModelStore m(TwoTables(), 8, 7);
  EXPECT_EQ(m.RowBytes(0), 4 * sizeof(float) + kRowWireOverhead);
  EXPECT_EQ(m.ModelBytes(), 100 * m.RowBytes(0) + 50 * m.RowBytes(1));
}

TEST(ModelStore, SyncClearsDirtyAndReportsBytes) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 1.0F);
  m.ApplyDelta(0, 0, delta);
  const PartitionId p = m.PartitionOf(0, 0);
  EXPECT_EQ(m.DirtyBytes(p), m.RowBytes(0));
  EXPECT_EQ(m.SyncPartitionToBackup(p), m.RowBytes(0));
  EXPECT_EQ(m.DirtyBytes(p), 0u);
  EXPECT_EQ(m.SyncPartitionToBackup(p), 0u);  // Nothing dirty anymore.
}

TEST(ModelStore, RollbackRestoresBackupState) {
  ModelStore m(TwoTables(), 4, 7);
  std::vector<float> before;
  m.ReadRow(0, 5, before);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 5, delta);
  m.RollbackPartitionToBackup(m.PartitionOf(0, 5));
  std::vector<float> after;
  m.ReadRow(0, 5, after);
  EXPECT_EQ(before, after);
}

TEST(ModelStore, RollbackKeepsSyncedChanges) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 5, delta);
  m.SyncPartitionToBackup(m.PartitionOf(0, 5));
  m.ApplyDelta(0, 5, delta);  // Unsynced second delta.
  m.RollbackAllToBackup();
  std::vector<float> v;
  m.ReadRow(0, 5, v);
  std::vector<float> fresh;
  ModelStore clean(TwoTables(), 4, 7);
  clean.ReadRow(0, 5, fresh);
  EXPECT_FLOAT_EQ(v[0], fresh[0] + 2.0F);  // First delta survived.
}

TEST(ModelStore, RollbackDropsRowsCreatedAfterSync) {
  ModelStore m(TwoTables(), 4, 7);
  m.EnableBackups();
  const std::vector<float> delta(4, 2.0F);
  m.ApplyDelta(0, 7, delta);  // Materializes after backup snapshot.
  m.RollbackAllToBackup();
  std::vector<float> v;
  m.ReadRow(0, 7, v);  // Lazy re-init must give the original value.
  ModelStore clean(TwoTables(), 4, 7);
  std::vector<float> fresh;
  clean.ReadRow(0, 7, fresh);
  EXPECT_EQ(v, fresh);
}

TEST(ModelStore, CheckpointRoundTrip) {
  ModelStore m(TwoTables(), 4, 7);
  const std::vector<float> delta(4, 3.0F);
  m.ApplyDelta(0, 1, delta);
  m.ApplyDelta(0, 2, delta);
  const auto blob = m.SerializeCheckpoint();
  const std::vector<float> more(4, 9.0F);
  m.ApplyDelta(0, 1, more);
  m.RestoreCheckpoint(blob);
  std::vector<float> v;
  m.ReadRow(0, 1, v);
  ModelStore expect(TwoTables(), 4, 7);
  std::vector<float> e;
  expect.ReadRow(0, 1, e);
  EXPECT_FLOAT_EQ(v[0], e[0] + 3.0F);
}

TEST(ModelStore, ForEachRowVisitsMaterializedRows) {
  ModelStore m(TwoTables(), 4, 7);
  std::vector<float> tmp;
  m.ReadRow(0, 1, tmp);
  m.ReadRow(0, 2, tmp);
  m.ReadRow(1, 0, tmp);
  int count = 0;
  m.ForEachRow(0, [&](std::int64_t, std::span<const float>) { ++count; });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(m.MaterializedRows(), 3u);
}

TEST(ModelStore, PartitionBytesCountsMaterializedRows) {
  ModelStore m(TwoTables(), 1, 7);  // Single partition.
  std::vector<float> tmp;
  m.ReadRow(0, 1, tmp);
  m.ReadRow(1, 1, tmp);
  EXPECT_EQ(m.PartitionBytes(0), m.RowBytes(0) + m.RowBytes(1));
}

TEST(ModelStore, RestoreInvalidatesBackup) {
  ModelStore m(TwoTables(), 8, 7);
  m.EnableBackups();
  ASSERT_TRUE(m.backups_enabled());
  m.RestoreCheckpoint(m.SerializeCheckpoint());
  EXPECT_FALSE(m.backups_enabled());  // Caller must re-EnableBackups().
}

TEST(ModelStoreDeathTest, RestoreRejectsRowsOfTheWrongWidth) {
  // A blob written by a differently shaped model (table 0 with 6 columns
  // instead of 4) passes every framing check but must not install.
  ModelStore wide({{0, 100, 6, 0.0F, 0.1F}, {1, 50, 8, 1.0F, 0.0F}}, 8, 7);
  std::vector<float> tmp;
  wide.ReadRow(0, 3, tmp);
  const std::vector<std::uint8_t> blob = wide.SerializeCheckpoint();
  ModelStore m(TwoTables(), 8, 7);
  EXPECT_DEATH(m.RestoreCheckpoint(blob), "row width mismatch");
}

// Sixty seeded single-row applies, overwrites and reads over both tables.
void MutateRandomly(ModelStore& m, std::mt19937_64& rng) {
  for (int i = 0; i < 60; ++i) {
    const int t = static_cast<int>(rng() % 2);
    const TableSpec& spec = m.table(t);
    const auto row = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(spec.rows));
    std::vector<float> v(static_cast<std::size_t>(spec.cols));
    for (auto& x : v) {
      x = static_cast<float>(static_cast<std::int64_t>(rng() % 2001) - 1000) / 256.0F;
    }
    switch (i % 6) {
      case 4:
        m.SetRow(t, row, v);
        break;
      case 5:
        m.ReadRow(t, row, v);  // Reads materialize rows.
        break;
      default:
        m.ApplyDelta(t, row, v);
    }
  }
}

TEST(ModelStore, CheckpointIsCanonicalAndRoundTripsExactly) {
  ModelStore m(TwoTables(), 12, 42);
  std::mt19937_64 rng(7);
  MutateRandomly(m, rng);
  const std::vector<std::uint8_t> blob = m.SerializeCheckpoint();

  // Canonical layout: partitions ascending, keys ascending within each.
  std::size_t offset = 0;
  PartitionId last_part = 0;
  RowKey last_key = 0;
  std::size_t rows = 0;
  while (offset < blob.size()) {
    RowKey key = 0;
    std::uint32_t cols = 0;
    std::memcpy(&key, blob.data() + offset, sizeof(key));
    std::memcpy(&cols, blob.data() + offset + sizeof(key), sizeof(cols));
    offset += sizeof(key) + sizeof(cols) + cols * sizeof(float);
    const PartitionId part = m.PartitionOf(TableOfKey(key), RowOfKey(key));
    ASSERT_EQ(static_cast<int>(cols), m.table(TableOfKey(key)).cols);
    if (rows > 0) {
      ASSERT_GE(part, last_part);
      if (part == last_part) {
        ASSERT_GT(key, last_key);
      }
    }
    last_part = part;
    last_key = key;
    ++rows;
  }
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(rows, m.MaterializedRows());

  // Restoring into a fresh store (or the same one after more writes)
  // reproduces the bytes exactly.
  ModelStore fresh(TwoTables(), 12, 42);
  fresh.RestoreCheckpoint(blob);
  EXPECT_EQ(fresh.SerializeCheckpoint(), blob);
  EXPECT_EQ(fresh.MaterializedRows(), m.MaterializedRows());
  MutateRandomly(m, rng);
  m.RestoreCheckpoint(blob);
  EXPECT_EQ(m.SerializeCheckpoint(), blob);
}

// One line of everything the store reports about its bytes: the CRC of
// the checkpoint, materialized rows, and per-partition dirty and
// partition bytes.
std::string ByteFingerprint(const ModelStore& m) {
  std::string out = "crc=" + std::to_string(Crc32(m.SerializeCheckpoint())) +
                    " rows=" + std::to_string(m.MaterializedRows()) + " dirty=";
  for (PartitionId p = 0; p < m.num_partitions(); ++p) {
    out += std::to_string(m.DirtyBytes(p)) + ",";
  }
  out += " part=";
  for (PartitionId p = 0; p < m.num_partitions(); ++p) {
    out += std::to_string(m.PartitionBytes(p)) + ",";
  }
  return out;
}

// A fixed seeded sequence through every path that changes what the
// store holds. The expected lines were printed by the hash-map store
// this one replaced; any storage engine must reproduce them exactly.
TEST(ModelStore, FixedSequenceBytesArePinned) {
  ModelStore m(TwoTables(), 12, 42);
  std::mt19937_64 rng(11);
  std::vector<std::string> got;
  MutateRandomly(m, rng);
  got.push_back(ByteFingerprint(m));
  const std::vector<std::uint8_t> earlier = m.SerializeCheckpoint();
  m.EnableBackups();
  got.push_back(ByteFingerprint(m));
  MutateRandomly(m, rng);
  got.push_back(ByteFingerprint(m));
  for (PartitionId p = 0; p < m.num_partitions(); p += 2) {
    m.SyncPartitionToBackup(p);
  }
  got.push_back(ByteFingerprint(m));
  MutateRandomly(m, rng);
  got.push_back(ByteFingerprint(m));
  m.RollbackAllToBackup();  // Drops rows created after the sync.
  got.push_back(ByteFingerprint(m));
  m.RestoreCheckpoint(earlier);
  got.push_back(ByteFingerprint(m));

  const std::vector<std::string> expected = {
      "crc=54419333 rows=45 dirty=112,144,96,80,208,96,32,208,128,272,192,96,"
      " part=112,144,96,112,208,128,32,208,128,320,192,128,",
      "crc=54419333 rows=45 dirty=0,0,0,0,0,0,0,0,0,0,0,0,"
      " part=112,144,96,112,208,128,32,208,128,320,192,128,",
      "crc=3270192539 rows=74 dirty=128,144,208,160,112,32,64,192,96,112,192,96,"
      " part=336,192,256,272,272,160,192,304,128,352,304,128,",
      "crc=3270192539 rows=74 dirty=0,144,0,160,0,32,0,192,0,112,0,96,"
      " part=336,192,256,272,272,160,192,304,128,352,304,128,",
      "crc=822342927 rows=98 dirty=48,256,272,256,144,144,176,336,240,144,80,176,"
      " part=336,256,352,336,336,272,320,368,240,352,384,208,",
      "crc=593236803 rows=65 dirty=0,0,0,0,0,0,0,0,0,0,0,0,"
      " part=288,144,256,112,304,208,144,208,128,320,304,128,",
      "crc=54419333 rows=45 dirty=0,0,0,0,0,0,0,0,0,0,0,0,"
      " part=112,144,96,112,208,128,32,208,128,320,192,128,",
  };
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "step " << i;
  }
}

// Random rows of both tables (repeats included), batched in `batched`
// and row by row in input order in `per_row`: reads, deltas whose sums
// depend on their order, a sync and a rollback. Every read, every row
// and every byte count must agree bit for bit.
TEST(ModelStore, BatchedCallsMatchPerRowCalls) {
  ModelStore batched(TwoTables(), 12, 42);
  ModelStore per_row(TwoTables(), 12, 42);
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<float> value(-3.0F, 3.0F);
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE(step);
    const int t = static_cast<int>(rng() % 2);
    const TableSpec& spec = batched.table(t);
    const auto cols = static_cast<std::size_t>(spec.cols);
    // Up to 40 rows from a window of 30, so rows repeat within a call.
    const auto base = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(spec.rows));
    std::vector<std::int64_t> rows(rng() % 41);
    for (std::int64_t& r : rows) {
      r = (base + static_cast<std::int64_t>(rng() % 30)) % spec.rows;
    }
    std::vector<float> data(rows.size() * cols);
    if (step % 3 == 0) {
      batched.ReadRows(t, rows, data);
      std::vector<float> row;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        per_row.ReadRow(t, rows[i], row);
        ASSERT_EQ(std::memcmp(row.data(), data.data() + i * cols, cols * sizeof(float)), 0)
            << "row " << rows[i];
      }
    } else {
      for (float& x : data) {
        x = value(rng);
      }
      batched.ApplyDeltas(t, rows, data);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        per_row.ApplyDelta(t, rows[i], std::span<const float>(data).subspan(i * cols, cols));
      }
    }
    if (step == 10) {
      batched.EnableBackups();
      per_row.EnableBackups();
    }
    if (step == 25) {
      for (PartitionId p = 0; p < batched.num_partitions(); p += 3) {
        ASSERT_EQ(batched.SyncPartitionToBackup(p), per_row.SyncPartitionToBackup(p));
      }
    }
    if (step == 35) {
      batched.RollbackAllToBackup();
      per_row.RollbackAllToBackup();
    }
    ASSERT_EQ(batched.SerializeCheckpoint(), per_row.SerializeCheckpoint());
    ASSERT_EQ(ByteFingerprint(batched), ByteFingerprint(per_row));
  }
}

// Every row of both tables reads the same in `a` and `b` (reads
// materialize rows, so compare values, not checkpoint bytes).
void ExpectSameRows(const ModelStore& a, const ModelStore& b) {
  std::vector<float> va;
  std::vector<float> vb;
  for (int t = 0; t < 2; ++t) {
    for (std::int64_t r = 0; r < a.table(t).rows; ++r) {
      a.ReadRow(t, r, va);
      b.ReadRow(t, r, vb);
      ASSERT_EQ(va, vb) << "table " << t << " row " << r;
    }
  }
}

TEST(ModelStore, RollbackReturnsToTheLastSyncedState) {
  ModelStore m(TwoTables(), 12, 42);
  std::mt19937_64 rng(9);
  MutateRandomly(m, rng);
  m.EnableBackups();
  const std::vector<std::uint8_t> at_enable = m.SerializeCheckpoint();
  ModelStore expect(TwoTables(), 12, 42);
  expect.RestoreCheckpoint(at_enable);
  MutateRandomly(m, rng);
  m.RollbackAllToBackup();
  ExpectSameRows(m, expect);

  // Sync every other partition, dirty more rows, roll back: synced
  // partitions keep their synced rows, the rest return to the backup.
  MutateRandomly(m, rng);
  for (PartitionId p = 0; p < m.num_partitions(); p += 2) {
    m.SyncPartitionToBackup(p);
  }
  std::vector<float> row;
  for (int t = 0; t < 2; ++t) {
    for (std::int64_t r = 0; r < m.table(t).rows; ++r) {
      if (m.PartitionOf(t, r) % 2 == 0) {
        m.ReadRow(t, r, row);
        expect.SetRow(t, r, row);
      }
    }
  }
  MutateRandomly(m, rng);
  m.RollbackAllToBackup();
  ExpectSameRows(m, expect);
}

TEST(ModelStore, RollbackAfterRestoreReturnsToTheRestoredState) {
  // Backed flags and backup chunks from before a restore must not leak
  // into the backups taken after it.
  ModelStore m(TwoTables(), 12, 42);
  std::mt19937_64 rng(13);
  MutateRandomly(m, rng);
  const std::vector<std::uint8_t> blob = m.SerializeCheckpoint();
  m.EnableBackups();
  MutateRandomly(m, rng);
  for (PartitionId p = 0; p < m.num_partitions(); ++p) {
    m.SyncPartitionToBackup(p);
  }
  MutateRandomly(m, rng);
  m.RestoreCheckpoint(blob);
  m.EnableBackups();
  MutateRandomly(m, rng);
  m.RollbackAllToBackup();
  ModelStore expect(TwoTables(), 12, 42);
  expect.RestoreCheckpoint(blob);
  ExpectSameRows(m, expect);
}

// A blob of one row of table 0 with the given key and the table's width.
std::vector<std::uint8_t> OneRowBlob(RowKey key) {
  const std::uint32_t cols = 4;
  const std::vector<float> value(cols, 1.0F);
  std::vector<std::uint8_t> blob(sizeof(key) + sizeof(cols) + cols * sizeof(float));
  std::memcpy(blob.data(), &key, sizeof(key));
  std::memcpy(blob.data() + sizeof(key), &cols, sizeof(cols));
  std::memcpy(blob.data() + sizeof(key) + sizeof(cols), value.data(), cols * sizeof(float));
  return blob;
}

TEST(ModelStoreDeathTest, RestoreRejectsRowsOutsideTheModel) {
  ModelStore m(TwoTables(), 12, 42);
  m.RestoreCheckpoint(OneRowBlob(MakeRowKey(0, 99)));  // Last row: fine.
  EXPECT_EQ(m.MaterializedRows(), 1u);
  EXPECT_DEATH(m.RestoreCheckpoint(OneRowBlob(MakeRowKey(0, 100))), "CHECK failed.*rows");
  EXPECT_DEATH(m.RestoreCheckpoint(OneRowBlob(MakeRowKey(2, 0))), "CHECK failed.*tables_");
}

TEST(ModelStoreDeathTest, BatchedCallRejectsRowsOutsideTheTable) {
  ModelStore m(TwoTables(), 12, 42);
  const std::vector<std::int64_t> last = {3, 99};
  std::vector<float> out(last.size() * 4);
  m.ReadRows(0, last, out);  // Last row: fine.
  m.ApplyDeltas(0, last, out);
  const std::vector<std::int64_t> past_end = {3, 100};
  const std::vector<std::int64_t> negative = {-1, 3};
  EXPECT_DEATH(m.ReadRows(0, past_end, out), "CHECK failed.*rows");
  EXPECT_DEATH(m.ApplyDeltas(0, past_end, out), "CHECK failed.*rows");
  EXPECT_DEATH(m.ApplyDeltas(0, negative, out), "CHECK failed.*0");
  // Table 1 has 50 rows of 8 columns: row 50 is out, whatever table 0 holds.
  std::vector<float> wide(8);
  EXPECT_DEATH(m.ReadRows(1, std::vector<std::int64_t>{50}, wide), "CHECK failed.*rows");
  EXPECT_DEATH(m.ReadRows(2, std::vector<std::int64_t>{0}, wide), "CHECK failed.*tables_");
}

}  // namespace
}  // namespace proteus
