// The public API an ML application implements to train with AgileML.
//
// Mirrors the paper's programming model (§2.1, §3.1): the application
// defines its parameter tables (vector-valued rows with component-wise
// add aggregation), partitions its input data by item index, and provides
// a ProcessRange that adjusts parameters through simple read-param /
// update-param calls. Workers are stateless: all shared state lives in
// the parameter server, which is what makes bulk revocation survivable.
#ifndef SRC_AGILEML_APP_H_
#define SRC_AGILEML_APP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/ps/model.h"

namespace proteus {

// Rows one node's workers touched during one clock, appended in access
// order with repeats. At the end of the node's clock the runtime sorts
// and dedups both lists and charges each distinct row one fetch and one
// flush: the worker-side cache with write-back coalescing of §2.1.
struct AccessLog {
  std::vector<RowKey> reads;
  std::vector<RowKey> updates;
};

// Handle through which application worker code reads and updates model
// parameters. Every call appends the key of each row it touches to the
// node's AccessLog, which the runtime turns into network bytes; the
// arithmetic is applied to the authoritative store immediately.
//
// Read and Update take one row and one partition lock each: MF's
// per-rating SGD, which reads its own writes, uses them. ReadMany and
// UpdateMany take a list of rows of one table and lock each partition
// once per call (ModelStore::ReadRows / ApplyDeltas); they log the same
// keys as the per-row calls on the same rows. An app that coalesces a
// range's work, like LDA, fetches its rows with one ReadMany and writes
// its deltas back with one UpdateMany: the worker-side cache of §2.1.
class WorkerContext {
 public:
  WorkerContext(NodeId node, ModelStore* model, AccessLog* log, Rng rng)
      : node_(node), model_(model), log_(log), rng_(rng) {}

  // Returns the current row value. The span is valid until the next Read
  // on this context.
  std::span<const float> Read(int table, std::int64_t row) {
    log_->reads.push_back(MakeRowKey(table, row));
    model_->ReadRow(table, row, scratch_);
    return scratch_;
  }

  // Reads into a caller-owned buffer, for apps that need two rows live.
  void ReadInto(int table, std::int64_t row, std::vector<float>& out) {
    log_->reads.push_back(MakeRowKey(table, row));
    model_->ReadRow(table, row, out);
  }

  // Applies a component-wise additive delta.
  void Update(int table, std::int64_t row, std::span<const float> delta) {
    log_->updates.push_back(MakeRowKey(table, row));
    model_->ApplyDelta(table, row, delta);
  }

  // Copies row rows[i] of `table` into out[i * cols, (i + 1) * cols).
  void ReadMany(int table, std::span<const std::int64_t> rows, std::span<float> out) {
    for (const std::int64_t row : rows) {
      log_->reads.push_back(MakeRowKey(table, row));
    }
    model_->ReadRows(table, rows, out);
  }

  // Adds deltas[i * cols, (i + 1) * cols) to row rows[i] of `table`;
  // repeated rows apply in input order.
  void UpdateMany(int table, std::span<const std::int64_t> rows, std::span<const float> deltas) {
    for (const std::int64_t row : rows) {
      log_->updates.push_back(MakeRowKey(table, row));
    }
    model_->ApplyDeltas(table, rows, deltas);
  }

  NodeId node() const { return node_; }
  Rng& rng() { return rng_; }

 private:
  NodeId node_;
  ModelStore* model_;
  AccessLog* log_;
  Rng rng_;
  std::vector<float> scratch_;
};

struct ModelInit {
  std::vector<TableSpec> tables;
};

// Interface implemented by MF, MLR, LDA (src/apps) and by user apps.
class MLApp {
 public:
  virtual ~MLApp() = default;

  virtual std::string Name() const = 0;

  // Declares the parameter tables.
  virtual ModelInit DefineModel() const = 0;

  // Number of input data items; the runtime partitions [0, NumItems())
  // among worker nodes.
  virtual std::int64_t NumItems() const = 0;

  // Abstract compute cost to process one item, in cost units. The
  // runtime divides by (cores x core_speed) to get virtual compute time.
  virtual double CostPerItem() const = 0;

  // Processes items [begin, end) for one clock. Must touch parameters
  // only through ctx.
  virtual void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) = 0;

  // Goodness-of-solution objective (lower is better for losses; apps
  // document their convention). Used to verify convergence.
  virtual double ComputeObjective(const ModelStore& model) const = 0;
};

}  // namespace proteus

#endif  // SRC_AGILEML_APP_H_
