// Partitioned parameter storage: the value plane of the parameter server.
//
// The solution state is a set of tables of float-vector rows (the paper's
// value type: vectors with component-wise add as the aggregation
// function). Rows are assigned round-robin to a fixed number of
// partitions chosen at start-up (§3.3: N partitions, ownership moves but
// partitions are never re-split). This class owns:
//   - the authoritative state (what ActivePSs / ParamServs serve),
//   - an optional backup copy (what BackupPSs hold in stages 2/3),
//   - per-partition dirty tracking: the rows changed since the last
//     active->backup sync. This is the paper's "aggregate of the delta
//     applied ... since the last time they applied their state to the
//     BackupPSs", which makes rollback cheap.
//
// Layout: each partition holds a mutex and one Slab per table. Because
// partitions are never re-split, row r of table t always lives in
// partition (r + t) % N at local index r / N, so a slab is a dense array
// indexed directly by that local index, with no hashing. Row values sit
// in chunks of kChunkRows rows (the last chunk of a slab holds only the
// rows the partition owns), allocated on the first touch of any row in
// them; backup chunks are allocated on the first sync or EnableBackups
// that needs them. Beside the chunks a slab keeps one flag byte per row
// (live, backed, dirty) and a live count; the partition keeps the list
// of its dirty rows. The constructor allocates only flags and chunk
// indexes, never row values. Lazy init materializes whole rows, and a
// rollback that drops a row clears its live flag, so the next touch
// re-initializes it identically. Wire accounting is per row
// (kRowWireOverhead framing on top of the raw floats).
//
// Checkpoints are canonical: partitions ascending, then tables
// ascending, then local index ascending, which is row-key order within a
// partition, so identical state yields identical bytes. ForEachRow walks
// rows in the same order. RestoreCheckpoint invalidates the backup copy;
// callers that use backups must EnableBackups() afterwards (AgileMLRuntime
// does).
//
// Batched access: ReadRows and ApplyDeltas take a list of rows of one
// table. Each call bounds-checks every row once, groups the rows by
// partition with a stable counting sort, and takes each partition's mutex
// once, one partition at a time in ascending order, so it never holds two
// locks and cannot deadlock with SerializeCheckpoint. Within a partition
// the rows run in input order, so a row listed twice sees its deltas
// applied in input order, exactly as the same per-row calls would.
//
// Thread-safety: every row operation takes the owning partition's mutex;
// SerializeCheckpoint and RestoreCheckpoint hold every partition's mutex
// (taken in ascending order) for their whole pass. Chunks are never
// resized or freed while the store lives.
#ifndef SRC_PS_MODEL_H_
#define SRC_PS_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/types.h"

namespace proteus {

struct TableSpec {
  int table_id = 0;
  std::int64_t rows = 0;
  int cols = 0;
  // Rows are lazily materialized as init_value plus a deterministic
  // per-row jitter in [-init_jitter, +init_jitter].
  float init_value = 0.0F;
  float init_jitter = 0.0F;
};

using RowKey = std::uint64_t;

constexpr RowKey MakeRowKey(int table, std::int64_t row) {
  return (static_cast<RowKey>(static_cast<std::uint32_t>(table)) << 40) |
         static_cast<RowKey>(row);
}
constexpr int TableOfKey(RowKey key) { return static_cast<int>(key >> 40); }
constexpr std::int64_t RowOfKey(RowKey key) {
  return static_cast<std::int64_t>(key & ((1ULL << 40) - 1));
}

// Serialization overhead per row on the wire (key + length + framing).
inline constexpr std::size_t kRowWireOverhead = 16;

class ModelStore {
 public:
  ModelStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed);

  int num_partitions() const { return num_partitions_; }
  const std::vector<TableSpec>& tables() const { return tables_; }
  const TableSpec& table(int table_id) const;

  PartitionId PartitionOf(int table, std::int64_t row) const;
  // The placement rule behind PartitionOf, unchecked: row `row` of table
  // `table` lives in partition (row + table) % n. Round-robin keeps
  // partitions balanced for both contiguous and power-law access patterns.
  // For rows a store call has already checked.
  static std::uint64_t PartitionIndex(int table, std::int64_t row, std::uint64_t n) {
    return (static_cast<std::uint64_t>(row) + static_cast<std::uint64_t>(table)) % n;
  }
  std::size_t RowBytes(int table) const;  // Wire size of one row.
  // Total wire size of the full model (all rows of all tables).
  std::uint64_t ModelBytes() const;

  // Copies the row's current value into `out` (resized to cols).
  void ReadRow(int table, std::int64_t row, std::vector<float>& out) const;
  // Component-wise add; marks the row dirty.
  void ApplyDelta(int table, std::int64_t row, std::span<const float> delta);
  // Batched ReadRow: copies row rows[i] into out[i * cols, (i + 1) * cols).
  // `out` must hold rows.size() * cols floats.
  void ReadRows(int table, std::span<const std::int64_t> rows, std::span<float> out) const;
  // Batched ApplyDelta: adds deltas[i * cols, (i + 1) * cols) to row
  // rows[i]. Repeated rows apply in input order.
  void ApplyDeltas(int table, std::span<const std::int64_t> rows, std::span<const float> deltas);
  // Overwrites the row (used by tests and recovery paths).
  void SetRow(int table, std::int64_t row, std::span<const float> value);

  // --- Backup machinery (stages 2 and 3) ---
  // Snapshots current state as the backup copy and clears dirty rows.
  void EnableBackups();
  bool backups_enabled() const { return backups_enabled_; }
  // Wire bytes that a sync of partition p would transfer right now (0
  // when nothing is dirty).
  std::uint64_t DirtyBytes(PartitionId p) const;
  // Copies dirty rows of partition p into the backup; returns the wire
  // bytes (same accounting as DirtyBytes).
  std::uint64_t SyncPartitionToBackup(PartitionId p);
  // Reverts partition p's state to the backup copy (discarding deltas
  // applied since the last sync). Rows created after the last sync are
  // dropped; lazy init will recreate them identically.
  void RollbackPartitionToBackup(PartitionId p);
  void RollbackAllToBackup();
  // Wire bytes of all current rows of partition p (for state migration).
  std::uint64_t PartitionBytes(PartitionId p) const;

  // --- Checkpointing (stage-1 reliable-machine insurance, §3.3) ---
  // Serializes the full authoritative state in canonical order
  // (partitions ascending, rows sorted by key within each partition).
  // Each row is its key, its column count (uint32) and its floats.
  std::vector<std::uint8_t> SerializeCheckpoint() const;
  // Clears the store and reloads the blob's rows, placing each by key.
  // Invalidates the backup copy; re-EnableBackups() after.
  void RestoreCheckpoint(std::span<const std::uint8_t> blob);

  // Sequential iteration over materialized rows of a table, in
  // checkpoint order. Not thread-safe against concurrent writers.
  void ForEachRow(int table,
                  const std::function<void(std::int64_t, std::span<const float>)>& fn) const;

  // Materialized row count across all tables (rows touched so far).
  std::size_t MaterializedRows() const;

 private:
  // Rows per value chunk of a slab.
  static constexpr std::int64_t kChunkRows = 64;
  // Per-row flag bits.
  static constexpr std::uint8_t kLive = 1;    // Materialized in state.
  static constexpr std::uint8_t kBacked = 2;  // Has a backup value.
  static constexpr std::uint8_t kDirty = 4;   // Changed since the last sync.

  // One table's rows in one partition, indexed by local index row / N.
  struct Slab {
    int cols = 0;
    std::int64_t first_row = 0;  // Row at local index 0.
    std::int64_t rows = 0;       // Rows of the table this partition owns.
    std::int64_t live = 0;       // Rows with kLive set.
    std::vector<std::uint8_t> flags;
    std::vector<std::unique_ptr<float[]>> state;   // Chunks; null until touched.
    std::vector<std::unique_ptr<float[]>> backup;  // Chunks; null until synced.
  };
  struct DirtyRow {
    int table;
    std::int64_t local;
  };
  struct Partition {
    mutable std::mutex mu;
    std::vector<Slab> slabs;  // By table id.
    std::vector<DirtyRow> dirty;
  };

  Partition& PartitionFor(int table, std::int64_t row);
  const Partition& PartitionFor(int table, std::int64_t row) const;
  std::int64_t LocalIndex(std::int64_t row) const { return row / num_partitions_; }
  // Pointer to the row at `local` in `chunks`, allocating its chunk on
  // first use. Caller must hold the partition mutex.
  static float* RowIn(const Slab& s, std::vector<std::unique_ptr<float[]>>& chunks,
                      std::int64_t local);
  // Pointer to a live row's value. Caller must hold the partition mutex.
  static const float* LiveRow(const Slab& s, std::int64_t local);
  // Materializes the row if absent. Caller must hold the partition mutex.
  float* RowLocked(Slab& s, int table, std::int64_t local) const;
  // Flags the row dirty and lists it once per sync interval. Caller must
  // hold the partition mutex.
  static void MarkDirty(Partition& p, Slab& s, int table, std::int64_t local);
  float InitValueFor(RowKey key, int component) const;
  // Calls fn(partition, slab, local, i) for every i in [0, rows.size()),
  // grouped by partition (ascending) and in input order within one, with
  // that partition's mutex held. Checks every row against the table.
  template <typename Fn>
  void ForEachBatched(int table, std::span<const std::int64_t> rows, Fn&& fn) const;

  std::vector<TableSpec> tables_;
  int num_partitions_;
  std::uint64_t seed_;
  bool backups_enabled_ = false;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace proteus

#endif  // SRC_PS_MODEL_H_
