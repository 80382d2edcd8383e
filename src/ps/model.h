// Partitioned parameter storage: the value plane of the parameter server.
//
// The solution state is a set of tables of float-vector rows (the paper's
// value type: vectors with component-wise add as the aggregation
// function). Rows are assigned round-robin to a fixed number of
// partitions chosen at start-up (§3.3: N partitions, ownership moves but
// partitions are never re-split). This class owns:
//   - the authoritative state (what ActivePSs / ParamServs serve),
//   - an optional backup copy (what BackupPSs hold in stages 2/3),
//   - per-partition dirty tracking: the set of rows changed since the
//     last active->backup sync. This is the paper's "aggregate of the
//     delta applied ... since the last time they applied their state to
//     the BackupPSs", which makes rollback cheap.
//
// Each partition is one hash map of rows plus a mutex; wire accounting
// is per row (kRowWireOverhead framing on top of the raw floats).
//
// Checkpoints are canonical (partitions ascending, rows sorted by key
// within a partition), so identical state yields identical bytes.
// RestoreCheckpoint invalidates the backup copy; callers that use
// backups must EnableBackups() afterwards (AgileMLRuntime does).
//
// Thread-safety: every operation takes the owning partition's mutex.
// Row vectors are never resized after creation.
#ifndef SRC_PS_MODEL_H_
#define SRC_PS_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
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
  std::size_t RowBytes(int table) const;  // Wire size of one row.
  // Total wire size of the full model (all rows of all tables).
  std::uint64_t ModelBytes() const;

  // Copies the row's current value into `out` (resized to cols).
  void ReadRow(int table, std::int64_t row, std::vector<float>& out) const;
  // Component-wise add; marks the row dirty.
  void ApplyDelta(int table, std::int64_t row, std::span<const float> delta);
  // Overwrites the row (used by tests and recovery paths).
  void SetRow(int table, std::int64_t row, std::span<const float> value);

  // --- Backup machinery (stages 2 and 3) ---
  // Snapshots current state as the backup copy and clears dirty sets.
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
  std::vector<std::uint8_t> SerializeCheckpoint() const;
  // Clears the store and reloads the blob's rows, placing each by key.
  // Invalidates the backup copy; re-EnableBackups() after.
  void RestoreCheckpoint(std::span<const std::uint8_t> blob);

  // Sequential iteration over materialized rows of a table (objective
  // computation). Not thread-safe against concurrent writers.
  void ForEachRow(int table,
                  const std::function<void(std::int64_t, std::span<const float>)>& fn) const;

  // Materialized row count across all tables (rows touched so far).
  std::size_t MaterializedRows() const;

 private:
  struct Partition {
    mutable std::mutex mu;
    std::unordered_map<RowKey, std::vector<float>> state;
    std::unordered_map<RowKey, std::vector<float>> backup;
    std::unordered_set<RowKey> dirty;
  };

  Partition& PartitionFor(int table, std::int64_t row);
  const Partition& PartitionFor(int table, std::int64_t row) const;
  // Materializes the row if absent. Caller must hold the partition mutex.
  std::vector<float>& RowLocked(Partition& p, int table, std::int64_t row) const;
  float InitValueFor(RowKey key, int component) const;

  std::vector<TableSpec> tables_;
  int num_partitions_;
  std::uint64_t seed_;
  bool backups_enabled_ = false;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace proteus

#endif  // SRC_PS_MODEL_H_
