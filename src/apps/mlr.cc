#include "src/apps/mlr.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/apps/dense_kernels.h"
#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr float kInitJitter = 0.01F;  // Parameter init range.

}  // namespace

MultinomialLogRegApp::MultinomialLogRegApp(const FeaturesDataset* data, MlrConfig config)
    : data_(data), config_(config) {
  PROTEUS_CHECK(data != nullptr);
}

ModelInit MultinomialLogRegApp::DefineModel() const {
  ModelInit init;
  init.tables.push_back({kTableW, static_cast<std::int64_t>(data_->config.classes),
                         data_->config.dim, 0.0F, kInitJitter});
  return init;
}

double MultinomialLogRegApp::CostPerItem() const {
  // K dot products + K gradient accumulations over dim components.
  return 3.0 * static_cast<double>(data_->config.classes) *
         static_cast<double>(data_->config.dim);
}

void MultinomialLogRegApp::ProcessRange(WorkerContext& ctx, std::int64_t begin,
                                        std::int64_t end) {
  if (end <= begin) {
    return;
  }
  const int classes = data_->config.classes;
  const int dim = data_->config.dim;
  const auto matrix = static_cast<std::size_t>(classes) * static_cast<std::size_t>(dim);
  // One scratch buffer per range: the weight matrix, its gradient, and one
  // update row, at fixed offsets from each other.
  std::vector<float> scratch(2 * matrix + static_cast<std::size_t>(dim), 0.0F);
  float* const w = scratch.data();
  float* const grad = w + matrix;
  float* const delta = grad + matrix;
  // Fetch the full weight matrix once (one read per row per clock).
  for (int c = 0; c < classes; ++c) {
    const std::span<const float> row = ctx.Read(kTableW, c);
    std::copy(row.begin(), row.end(), w + static_cast<std::size_t>(c) * dim);
  }
  std::vector<double> logits(static_cast<std::size_t>(classes));

  for (std::int64_t n = begin; n < end; ++n) {
    const float* x = data_->Sample(n);
    const std::int32_t y = data_->label[static_cast<std::size_t>(n)];
    for (int c = 0; c < classes; ++c) {
      logits[static_cast<std::size_t>(c)] = Dot(w + static_cast<std::size_t>(c) * dim, x, dim);
    }
    SoftmaxInPlace(logits);
    for (int c = 0; c < classes; ++c) {
      const auto coeff = static_cast<float>(logits[static_cast<std::size_t>(c)] -
                                            (c == y ? 1.0 : 0.0));
      Axpy(coeff, x, grad + static_cast<std::size_t>(c) * dim, dim);
    }
  }

  // One coalesced update per weight row: -lr * (grad/batch + reg * w).
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto reg = static_cast<float>(config_.regularization);
  const auto batch = static_cast<float>(end - begin);
  for (int c = 0; c < classes; ++c) {
    const float* gc = grad + static_cast<std::size_t>(c) * dim;
    const float* wc = w + static_cast<std::size_t>(c) * dim;
    for (int d = 0; d < dim; ++d) {
      delta[d] = -lr * (gc[d] / batch + reg * wc[d]);
    }
    ctx.Update(kTableW, c, std::span<const float>(delta, static_cast<std::size_t>(dim)));
  }
}

double MultinomialLogRegApp::ComputeObjective(const ModelStore& model) const {
  const std::int64_t sample = std::min(config_.objective_sample, data_->size());
  PROTEUS_CHECK_GT(sample, 0);
  const int classes = data_->config.classes;
  const int dim = data_->config.dim;
  std::vector<float> w(static_cast<std::size_t>(classes) * dim);
  std::vector<float> row;
  for (int c = 0; c < classes; ++c) {
    model.ReadRow(kTableW, c, row);
    std::copy(row.begin(), row.end(), w.begin() + static_cast<std::size_t>(c) * dim);
  }
  std::vector<double> logits(static_cast<std::size_t>(classes));
  double loss = 0.0;
  for (std::int64_t n = 0; n < sample; ++n) {
    const float* x = data_->Sample(n);
    for (int c = 0; c < classes; ++c) {
      logits[static_cast<std::size_t>(c)] = Dot(&w[static_cast<std::size_t>(c) * dim], x, dim);
    }
    SoftmaxInPlace(logits);
    const std::int32_t y = data_->label[static_cast<std::size_t>(n)];
    loss += -std::log(std::max(logits[static_cast<std::size_t>(y)], 1e-12));
  }
  return loss / static_cast<double>(sample);
}

}  // namespace proteus
