// Core scalar types shared across the Proteus codebase.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace proteus {

// Simulated wall-clock time, in seconds since simulation start.
using SimTime = double;

// Durations, also in seconds.
using SimDuration = double;

// Dollar amounts. Double precision is ample for the magnitudes involved
// (micro-dollar granularity over multi-thousand-dollar budgets).
using Money = double;

// Abstract "work units". One work unit == one vCPU-hour of the reference
// instance class at perfect scaling (the paper's nu is expressed per core).
using WorkUnits = double;

constexpr SimDuration kSecond = 1.0;
constexpr SimDuration kMinute = 60.0;
constexpr SimDuration kHour = 3600.0;
constexpr SimDuration kDay = 24 * kHour;

// Identifiers. 32 bits keeps structs compact; simulations never approach
// the limit.
using NodeId = std::int32_t;
using PartitionId = std::int32_t;
using AllocationId = std::int32_t;
using WorkerId = std::int32_t;

// Training clock: the count of completed iterations (§3.1). AgileML is
// bulk-synchronous, so one global clock covers every worker.
using Clock = std::int64_t;

constexpr NodeId kInvalidNode = -1;
constexpr PartitionId kInvalidPartition = -1;
constexpr AllocationId kInvalidAllocation = -1;

// Formats seconds as "1h23m45s" for logs and tables.
std::string FormatDuration(SimDuration seconds);

// Formats dollars as "$12.34".
std::string FormatMoney(Money dollars);

}  // namespace proteus

#endif  // SRC_COMMON_TYPES_H_
