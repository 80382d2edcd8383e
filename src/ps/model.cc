#include "src/ps/model.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {
namespace {

// value[i] += delta[i] for i < n. Each chunk loads all of its inputs
// before it stores, so -O2's vectorizer needs no runtime alias check and
// the adds run as packed instructions; each sum is the same float add.
// Forced inline: with two callers GCC -O2 emits it out of line, and the
// per-row ApplyDelta would pay a call per row.
[[gnu::always_inline]] inline void AddInto(float* value, const float* delta, std::size_t n) {
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    float vs[kLanes];
    float ds[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      vs[j] = value[i + j];
      ds[j] = delta[i + j];
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      value[i + j] = vs[j] + ds[j];
    }
  }
  for (; i < n; ++i) {
    value[i] += delta[i];
  }
}

}  // namespace

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
    auto part = std::make_unique<Partition>();
    part->slabs.resize(tables_.size());
    for (const TableSpec& t : tables_) {
      Slab& s = part->slabs[static_cast<std::size_t>(t.table_id)];
      s.cols = t.cols;
      // Partition i owns rows r with (r + t) % N == i: first_row, then
      // every N-th row after it.
      s.first_row = ((i - t.table_id) % num_partitions_ + num_partitions_) % num_partitions_;
      s.rows = s.first_row < t.rows ? (t.rows - 1 - s.first_row) / num_partitions_ + 1 : 0;
      s.flags.resize(static_cast<std::size_t>(s.rows));
      const auto chunks = static_cast<std::size_t>((s.rows + kChunkRows - 1) / kChunkRows);
      s.state.resize(chunks);
      s.backup.resize(chunks);
    }
    partitions_.push_back(std::move(part));
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
  return static_cast<PartitionId>(
      PartitionIndex(table, row, static_cast<std::uint64_t>(num_partitions_)));
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

float* ModelStore::RowIn(const Slab& s, std::vector<std::unique_ptr<float[]>>& chunks,
                         std::int64_t local) {
  const std::int64_t c = local / kChunkRows;
  std::unique_ptr<float[]>& chunk = chunks[static_cast<std::size_t>(c)];
  if (chunk == nullptr) {
    // The last chunk holds only the rows the partition owns, so a table
    // of a few wide rows costs no more than its rows.
    const std::int64_t rows = std::min(kChunkRows, s.rows - c * kChunkRows);
    chunk = std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(rows * s.cols));
  }
  return chunk.get() + (local % kChunkRows) * s.cols;
}

const float* ModelStore::LiveRow(const Slab& s, std::int64_t local) {
  return s.state[static_cast<std::size_t>(local / kChunkRows)].get() + (local % kChunkRows) * s.cols;
}

float* ModelStore::RowLocked(Slab& s, int table, std::int64_t local) const {
  float* value = RowIn(s, s.state, local);
  std::uint8_t& flags = s.flags[static_cast<std::size_t>(local)];
  if ((flags & kLive) == 0) {
    const RowKey key = MakeRowKey(table, s.first_row + local * num_partitions_);
    for (int c = 0; c < s.cols; ++c) {
      value[c] = InitValueFor(key, c);
    }
    flags |= kLive;
    ++s.live;
  }
  return value;
}

void ModelStore::MarkDirty(Partition& p, Slab& s, int table, std::int64_t local) {
  std::uint8_t& flags = s.flags[static_cast<std::size_t>(local)];
  if ((flags & kDirty) == 0) {
    flags |= kDirty;
    p.dirty.push_back({table, local});
  }
}

void ModelStore::ReadRow(int table, std::int64_t row, std::vector<float>& out) const {
  auto& p = const_cast<Partition&>(PartitionFor(table, row));
  std::lock_guard<std::mutex> lock(p.mu);
  Slab& s = p.slabs[static_cast<std::size_t>(table)];
  const float* value = RowLocked(s, table, LocalIndex(row));
  out.assign(value, value + s.cols);
}

void ModelStore::ApplyDelta(int table, std::int64_t row, std::span<const float> delta) {
  Partition& p = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(p.mu);
  Slab& s = p.slabs[static_cast<std::size_t>(table)];
  const std::int64_t local = LocalIndex(row);
  float* value = RowLocked(s, table, local);
  PROTEUS_CHECK_EQ(delta.size(), static_cast<std::size_t>(s.cols));
  AddInto(value, delta.data(), delta.size());
  MarkDirty(p, s, table, local);
}

template <typename Fn>
void ModelStore::ForEachBatched(int table, std::span<const std::int64_t> rows, Fn&& fn) const {
  const std::int64_t table_rows = this->table(table).rows;
  const auto n = static_cast<std::uint64_t>(num_partitions_);
  // Stable counting sort of the row indexes by partition: part[i] is
  // row i's partition, then start[p] the first slot of partition p.
  std::vector<std::uint32_t> part(rows.size());
  std::vector<std::size_t> start(static_cast<std::size_t>(num_partitions_) + 1, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PROTEUS_CHECK_GE(rows[i], 0);
    PROTEUS_CHECK_LT(rows[i], table_rows);
    part[i] = static_cast<std::uint32_t>(PartitionIndex(table, rows[i], n));
    ++start[part[i] + 1];
  }
  for (std::size_t p = 1; p < start.size(); ++p) {
    start[p] += start[p - 1];
  }
  std::vector<std::size_t> order(rows.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      order[next[part[i]]++] = i;
    }
  }
  for (std::size_t pi = 0; pi + 1 < start.size(); ++pi) {
    if (start[pi] == start[pi + 1]) {
      continue;
    }
    Partition& p = *partitions_[pi];
    std::lock_guard<std::mutex> lock(p.mu);
    Slab& s = p.slabs[static_cast<std::size_t>(table)];
    for (std::size_t j = start[pi]; j < start[pi + 1]; ++j) {
      const std::size_t i = order[j];
      fn(p, s, LocalIndex(rows[i]), i);
    }
  }
}

void ModelStore::ReadRows(int table, std::span<const std::int64_t> rows,
                          std::span<float> out) const {
  const auto cols = static_cast<std::size_t>(this->table(table).cols);
  PROTEUS_CHECK_EQ(out.size(), rows.size() * cols);
  ForEachBatched(table, rows, [&](Partition&, Slab& s, std::int64_t local, std::size_t i) {
    const float* value = RowLocked(s, table, local);
    std::copy(value, value + cols, out.data() + i * cols);
  });
}

void ModelStore::ApplyDeltas(int table, std::span<const std::int64_t> rows,
                             std::span<const float> deltas) {
  const auto cols = static_cast<std::size_t>(this->table(table).cols);
  PROTEUS_CHECK_EQ(deltas.size(), rows.size() * cols);
  ForEachBatched(table, rows, [&](Partition& p, Slab& s, std::int64_t local, std::size_t i) {
    AddInto(RowLocked(s, table, local), deltas.data() + i * cols, cols);
    MarkDirty(p, s, table, local);
  });
}

void ModelStore::SetRow(int table, std::int64_t row, std::span<const float> value) {
  Partition& p = PartitionFor(table, row);
  std::lock_guard<std::mutex> lock(p.mu);
  Slab& s = p.slabs[static_cast<std::size_t>(table)];
  const std::int64_t local = LocalIndex(row);
  float* stored = RowLocked(s, table, local);
  PROTEUS_CHECK_EQ(value.size(), static_cast<std::size_t>(s.cols));
  std::copy(value.begin(), value.end(), stored);
  MarkDirty(p, s, table, local);
}

void ModelStore::EnableBackups() {
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    for (Slab& s : p->slabs) {
      const auto row_bytes = static_cast<std::size_t>(s.cols) * sizeof(float);
      for (std::int64_t local = 0; local < s.rows; ++local) {
        std::uint8_t& flags = s.flags[static_cast<std::size_t>(local)];
        if ((flags & kLive) != 0) {
          std::memcpy(RowIn(s, s.backup, local), RowIn(s, s.state, local), row_bytes);
          flags = kLive | kBacked;
        } else {
          flags = 0;
        }
      }
    }
    p->dirty.clear();
  }
  backups_enabled_ = true;
}

std::uint64_t ModelStore::DirtyBytes(PartitionId part) const {
  const Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  std::uint64_t bytes = 0;
  for (const DirtyRow& d : p.dirty) {
    bytes += RowBytes(d.table);
  }
  return bytes;
}

std::uint64_t ModelStore::SyncPartitionToBackup(PartitionId part) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  std::uint64_t bytes = 0;
  for (const DirtyRow& d : p.dirty) {
    Slab& s = p.slabs[static_cast<std::size_t>(d.table)];
    std::memcpy(RowIn(s, s.backup, d.local), RowIn(s, s.state, d.local),
                static_cast<std::size_t>(s.cols) * sizeof(float));
    s.flags[static_cast<std::size_t>(d.local)] = kLive | kBacked;
    bytes += RowBytes(d.table);
  }
  p.dirty.clear();
  return bytes;
}

void ModelStore::RollbackPartitionToBackup(PartitionId part) {
  PROTEUS_CHECK(backups_enabled_);
  Partition& p = *partitions_[static_cast<std::size_t>(part)];
  std::lock_guard<std::mutex> lock(p.mu);
  for (const DirtyRow& d : p.dirty) {
    Slab& s = p.slabs[static_cast<std::size_t>(d.table)];
    std::uint8_t& flags = s.flags[static_cast<std::size_t>(d.local)];
    if ((flags & kBacked) != 0) {
      std::memcpy(RowIn(s, s.state, d.local), RowIn(s, s.backup, d.local),
                  static_cast<std::size_t>(s.cols) * sizeof(float));
      flags = kLive | kBacked;
    } else {
      // Row materialized after the last sync; drop it — lazy init will
      // recreate the identical initial value on next read.
      flags = 0;
      --s.live;
    }
  }
  p.dirty.clear();
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
  for (std::size_t t = 0; t < p.slabs.size(); ++t) {
    bytes += static_cast<std::uint64_t>(p.slabs[t].live) * RowBytes(static_cast<int>(t));
  }
  return bytes;
}

std::vector<std::uint8_t> ModelStore::SerializeCheckpoint() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(partitions_.size());
  std::size_t size = 0;
  for (const auto& p : partitions_) {
    locks.emplace_back(p->mu);
    for (const Slab& s : p->slabs) {
      size += static_cast<std::size_t>(s.live) *
              (sizeof(RowKey) + sizeof(std::uint32_t) + static_cast<std::size_t>(s.cols) * sizeof(float));
    }
  }
  std::vector<std::uint8_t> blob;
  blob.reserve(size);
  auto append = [&blob](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    blob.insert(blob.end(), bytes, bytes + n);
  };
  for (const auto& p : partitions_) {
    for (std::size_t t = 0; t < p->slabs.size(); ++t) {
      const Slab& s = p->slabs[t];
      const auto cols = static_cast<std::uint32_t>(s.cols);
      for (std::int64_t local = 0; local < s.rows; ++local) {
        if ((s.flags[static_cast<std::size_t>(local)] & kLive) == 0) {
          continue;
        }
        const RowKey key = MakeRowKey(static_cast<int>(t), s.first_row + local * num_partitions_);
        append(&key, sizeof(key));
        append(&cols, sizeof(cols));
        append(LiveRow(s, local), cols * sizeof(float));
      }
    }
  }
  return blob;
}

void ModelStore::RestoreCheckpoint(std::span<const std::uint8_t> blob) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(partitions_.size());
  for (auto& p : partitions_) {
    locks.emplace_back(p->mu);
    for (Slab& s : p->slabs) {
      // Restore invalidates the backup copy along with the state.
      std::fill(s.flags.begin(), s.flags.end(), std::uint8_t{0});
      s.live = 0;
    }
    p->dirty.clear();
  }
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
    const std::int64_t row = RowOfKey(key);
    Slab& s = PartitionFor(tbl, row).slabs[static_cast<std::size_t>(tbl)];
    const std::int64_t local = LocalIndex(row);
    read(RowIn(s, s.state, local), n * sizeof(float));
    std::uint8_t& flags = s.flags[static_cast<std::size_t>(local)];
    if ((flags & kLive) == 0) {
      flags = kLive;
      ++s.live;
    }
  }
}

void ModelStore::ForEachRow(
    int table, const std::function<void(std::int64_t, std::span<const float>)>& fn) const {
  const auto t = static_cast<std::size_t>(this->table(table).table_id);  // Checks the id.
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    const Slab& s = p->slabs[t];
    for (std::int64_t local = 0; local < s.rows; ++local) {
      if ((s.flags[static_cast<std::size_t>(local)] & kLive) != 0) {
        fn(s.first_row + local * num_partitions_,
           std::span<const float>(LiveRow(s, local), static_cast<std::size_t>(s.cols)));
      }
    }
  }
}

std::size_t ModelStore::MaterializedRows() const {
  std::size_t total = 0;
  for (const auto& p : partitions_) {
    std::lock_guard<std::mutex> lock(p->mu);
    for (const Slab& s : p->slabs) {
      total += static_cast<std::size_t>(s.live);
    }
  }
  return total;
}

}  // namespace proteus
