#include "src/ps/model.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

ModelStore::ModelStore(std::vector<TableSpec> tables, int num_partitions, std::uint64_t seed)
    : tables_(std::move(tables)), num_partitions_(num_partitions), seed_(seed) {
  PROTEUS_CHECK_GT(num_partitions_, 0);
  PROTEUS_CHECK(!tables_.empty());
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    PROTEUS_CHECK_EQ(tables_[i].table_id, static_cast<int>(i)) << "table ids must be 0..n-1";
    PROTEUS_CHECK_GT(tables_[i].rows, 0);
    PROTEUS_CHECK_GT(tables_[i].cols, 0);
  }
  partitions_.reserve(static_cast<std::size_t>(num_partitions_));
  for (int i = 0; i < num_partitions_; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

const TableSpec& ModelStore::table(int table_id) const {
  PROTEUS_CHECK_GE(table_id, 0);
  PROTEUS_CHECK_LT(static_cast<std::size_t>(table_id), tables_.size());
  return tables_[static_cast<std::size_t>(table_id)];
}

PartitionId ModelStore::PartitionOf(int table, std::int64_t row) const {
  PROTEUS_CHECK_GE(row, 0);
  PROTEUS_CHECK_LT(row, this->table(table).rows);
  // Round-robin keeps partitions balanced for both contiguous and
  // power-law access patterns.
  return static_cast<PartitionId>((static_cast<std::uint64_t>(row) +
                                   static_cast<std::uint64_t>(table)) %
                                  static_cast<std::uint64_t>(num_partitions_));
}

std::size_t ModelStore::RowBytes(int table) const {
  return static_cast<std::size_t>(this->table(table).cols) * sizeof(float) + kRowWireOverhead;
}

std::uint64_t ModelStore::ModelBytes() const {
  std::uint64_t total = 0;
  for (const auto& t : tables_) {
    total += static_cast<std::uint64_t>(t.rows) * RowBytes(t.table_id);
  }
  return total;
}

ModelStore::Partition& ModelStore::PartitionFor(int table, std::int64_t row) {
  return *partitions_[static_cast<std::size_t>(PartitionOf(table, row))];
}

const ModelStore::Partition& ModelStore::PartitionFor(int table, std::int64_t row) const {
  return *partitions_[static_cast<std::size_t>(PartitionOf(table, row))];
}

float ModelStore::InitValueFor(RowKey key, int component) const {
  const TableSpec& spec = table(TableOfKey(key));
  if (spec.init_jitter == 0.0F) {
    return spec.init_value;
  }
  const std::uint64_t h = Mix64(seed_ ^ Mix64(key ^ (static_cast<std::uint64_t>(component) << 1)));
  const double unit = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);  // [0,1)
  return spec.init_value + spec.init_jitter * static_cast<float>(2.0 * unit - 1.0);
}

std::vector<float>& ModelStore::RowLocked(Partition& p, int table, std::int64_t row) const {
  const RowKey key = MakeRowKey(table, row);
  auto it = p.state.find(key);
  if (it == p.state.end()) {
    const int cols = this->table(table).cols;
    std::vector<float> value(static_cast<std::size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      value[static_cast<std::size_t>(c)] = InitValueFor(key, c);
    }
    it = p.state.emplace(key, std::move(value)).first;
  }
  return it->second;
}

void ModelStore::ReadRow(int table, std::int64_t row, std::vector<float>& out) const {
  auto& p = const_cast<Partition&>(PartitionFor(table, row));
  std::lock_guard<std::mutex> lock(p.mu);
  const std::vector<float>& value = RowLocked(p, table, row);
  out.assign(value.begin(), value.end());
}

void ModelStore::ApplyDelta(int table, std::int64_t row, std::span<const float> delta) {
  Partition& p = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(p.mu);
  std::vector<float>& value = RowLocked(p, table, row);
  PROTEUS_CHECK_EQ(delta.size(), value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    value[i] += delta[i];
  }
  p.dirty.insert(MakeRowKey(table, row));
  version_.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::SetRow(int table, std::int64_t row, std::span<const float> value) {
  Partition& p = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(p.mu);
  std::vector<float>& stored = RowLocked(p, table, row);
  PROTEUS_CHECK_EQ(value.size(), stored.size());
  std::copy(value.begin(), value.end(), stored.begin());
  p.dirty.insert(MakeRowKey(table, row));
  version_.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::EnableBackups() {
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    p->backup = p->state;
    p->dirty.clear();
  }
  version_.fetch_add(1, std::memory_order_relaxed);
  backups_enabled_ = true;
}

std::uint64_t ModelStore::DirtyBytes(PartitionId part) const {
  const Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  std::uint64_t bytes = 0;
  for (RowKey key : p.dirty) {
    bytes += RowBytes(TableOfKey(key));
  }
  return bytes;
}

std::uint64_t ModelStore::SyncPartitionToBackup(PartitionId part) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  std::uint64_t bytes = 0;
  for (RowKey key : p.dirty) {
    p.backup[key] = p.state.at(key);
    bytes += RowBytes(TableOfKey(key));
  }
  p.dirty.clear();
  version_.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

void ModelStore::RollbackPartitionToBackup(PartitionId part) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  for (RowKey key : p.dirty) {
    auto it = p.backup.find(key);
    if (it != p.backup.end()) {
      p.state[key] = it->second;
    } else {
      // Row materialized after the last sync; drop it — lazy init will
      // recreate the identical initial value on next read.
      p.state.erase(key);
    }
  }
  p.dirty.clear();
  version_.fetch_add(1, std::memory_order_relaxed);
}

void ModelStore::RollbackAllToBackup() {
  for (int i = 0; i < num_partitions_; ++i) {
    RollbackPartitionToBackup(i);
  }
}

std::uint64_t ModelStore::PartitionBytes(PartitionId part) const {
  const Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  std::uint64_t bytes = 0;
  for (const auto& [key, unused] : p.state) {
    bytes += RowBytes(TableOfKey(key));
  }
  return bytes;
}

std::vector<std::uint8_t> ModelStore::SerializeCheckpoint() const {
  std::vector<std::uint8_t> blob;
  auto append = [&blob](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    blob.insert(blob.end(), bytes, bytes + n);
  };
  std::vector<RowKey> keys;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    keys.clear();
    keys.reserve(p->state.size());
    for (const auto& [key, unused] : p->state) {
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const RowKey key : keys) {
      const std::vector<float>& value = p->state.at(key);
      const auto cols = static_cast<std::uint32_t>(value.size());
      append(&key, sizeof(key));
      append(&cols, sizeof(cols));
      append(value.data(), value.size() * sizeof(float));
    }
  }
  return blob;
}

void ModelStore::RestoreCheckpoint(std::span<const std::uint8_t> blob) {
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    p->state.clear();
    p->backup.clear();  // Restore invalidates the backup copy.
    p->dirty.clear();
  }
  version_.fetch_add(1, std::memory_order_relaxed);
  backups_enabled_ = false;
  std::size_t offset = 0;
  auto read = [&](void* out, std::size_t n) {
    PROTEUS_CHECK_LE(offset + n, blob.size());
    std::memcpy(out, blob.data() + offset, n);
    offset += n;
  };
  while (offset < blob.size()) {
    RowKey key = 0;
    std::uint32_t n = 0;
    read(&key, sizeof(key));
    read(&n, sizeof(n));
    const int tbl = TableOfKey(key);
    // A blob from a differently shaped model (e.g. another MF rank) must
    // not install rows of the wrong width.
    PROTEUS_CHECK_EQ(static_cast<int>(n), table(tbl).cols) << "row width mismatch, key " << key;
    std::vector<float> value(n);
    read(value.data(), n * sizeof(float));
    Partition& p = PartitionFor(tbl, RowOfKey(key));
    std::lock_guard<std::mutex> lock(p.mu);
    p.state[key] = std::move(value);
  }
}

void ModelStore::ForEachRow(
    int table, const std::function<void(std::int64_t, std::span<const float>)>& fn) const {
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    for (const auto& [key, value] : p->state) {
      if (TableOfKey(key) == table) {
        fn(RowOfKey(key), std::span<const float>(value));
      }
    }
  }
}

std::size_t ModelStore::MaterializedRows() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    total += p->state.size();
  }
  return total;
}

}  // namespace proteus
