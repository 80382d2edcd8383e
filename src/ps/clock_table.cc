#include "src/ps/clock_table.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace proteus {

ClockTable::ClockTable(int staleness) : staleness_(staleness) {
  PROTEUS_CHECK_GE(staleness, 0);
}

void ClockTable::AddWorkerNode(NodeId node) {
  PROTEUS_CHECK(clocks_.find(node) == clocks_.end());
  // A new worker joins at the current minimum so it does not drag the
  // consistent state backwards.
  clocks_[node] = MinClock();
}

void ClockTable::RemoveWorkerNode(NodeId node) {
  auto it = clocks_.find(node);
  PROTEUS_CHECK(it != clocks_.end());
  clocks_.erase(it);
}

bool ClockTable::HasWorkerNode(NodeId node) const { return clocks_.find(node) != clocks_.end(); }

void ClockTable::AdvanceTo(NodeId node, Clock clock) {
  auto it = clocks_.find(node);
  PROTEUS_CHECK(it != clocks_.end()) << "unknown worker node " << node;
  PROTEUS_CHECK_GE(clock, it->second);
  it->second = clock;
}

Clock ClockTable::ClockOf(NodeId node) const {
  auto it = clocks_.find(node);
  PROTEUS_CHECK(it != clocks_.end()) << "unknown worker node " << node;
  return it->second;
}

Clock ClockTable::MinClock() const {
  if (clocks_.empty()) {
    return 0;
  }
  Clock min = clocks_.begin()->second;
  for (const auto& [unused, c] : clocks_) {
    min = std::min(min, c);
  }
  return min;
}

bool ClockTable::CanAdvance(NodeId node) const {
  return ClockOf(node) - MinClock() <= staleness_;
}

std::uint64_t ClockTable::Digest() const {
  // FNV-1a over the sorted (node, clock) stream; std::map iteration is
  // already sorted, so equal tables hash identically.
  std::uint64_t h = Fnv1aU64(kFnvOffsetBasis, static_cast<std::uint64_t>(staleness_));
  for (const auto& [node, clock] : clocks_) {
    h = Fnv1aU64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    h = Fnv1aU64(h, static_cast<std::uint64_t>(clock));
  }
  return h;
}

}  // namespace proteus
