#include "src/apps/dnn.h"

#include <algorithm>
#include <cmath>

#include "src/apps/dense_kernels.h"
#include "src/common/logging.h"

namespace proteus {

DnnApp::DnnApp(const FeaturesDataset* data, DnnConfig config) : data_(data), config_(config) {
  PROTEUS_CHECK(data != nullptr);
  PROTEUS_CHECK_GT(config.hidden, 0);
}

ModelInit DnnApp::DefineModel() const {
  ModelInit init;
  init.tables.push_back({kTableW1, static_cast<std::int64_t>(config_.hidden),
                         data_->config.dim, 0.0F, config_.init_jitter});
  init.tables.push_back({kTableW2, static_cast<std::int64_t>(data_->config.classes),
                         config_.hidden, 0.0F, config_.init_jitter});
  return init;
}

double DnnApp::CostPerItem() const {
  // Forward + backward over both layers.
  return 6.0 * (static_cast<double>(config_.hidden) * data_->config.dim +
                static_cast<double>(data_->config.classes) * config_.hidden);
}

DnnApp::Weights DnnApp::Fetch(
    const std::function<void(int, std::int64_t, std::vector<float>&)>& read) const {
  const int dim = data_->config.dim;
  const int classes = data_->config.classes;
  Weights w;
  w.w1.resize(static_cast<std::size_t>(config_.hidden) * dim);
  w.w2.resize(static_cast<std::size_t>(classes) * config_.hidden);
  std::vector<float> row;
  for (int h = 0; h < config_.hidden; ++h) {
    read(kTableW1, h, row);
    std::copy(row.begin(), row.end(), w.w1.begin() + static_cast<std::size_t>(h) * dim);
  }
  for (int c = 0; c < classes; ++c) {
    read(kTableW2, c, row);
    std::copy(row.begin(), row.end(),
              w.w2.begin() + static_cast<std::size_t>(c) * config_.hidden);
  }
  return w;
}

void DnnApp::ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) {
  if (end <= begin) {
    return;
  }
  const int dim = data_->config.dim;
  const int classes = data_->config.classes;
  const int hidden = config_.hidden;
  const auto batch = static_cast<double>(end - begin);

  const Weights w = Fetch([&ctx](int table, std::int64_t row, std::vector<float>& out) {
    ctx.ReadInto(table, row, out);
  });
  std::vector<float> g1(w.w1.size(), 0.0F);
  std::vector<float> g2(w.w2.size(), 0.0F);
  std::vector<double> act(static_cast<std::size_t>(hidden));
  std::vector<double> logits(static_cast<std::size_t>(classes));
  std::vector<double> hidden_grad(static_cast<std::size_t>(hidden));

  for (std::int64_t n = begin; n < end; ++n) {
    const float* x = data_->Sample(n);
    const std::int32_t y = data_->label[static_cast<std::size_t>(n)];
    // Forward.
    for (int h = 0; h < hidden; ++h) {
      const double z = Dot(&w.w1[static_cast<std::size_t>(h) * dim], x, dim);
      act[static_cast<std::size_t>(h)] = z > 0.0 ? z : 0.0;  // ReLU.
    }
    for (int c = 0; c < classes; ++c) {
      const float* w2c = &w.w2[static_cast<std::size_t>(c) * hidden];
      double z = 0.0;
      for (int h = 0; h < hidden; ++h) {
        z += static_cast<double>(w2c[h]) * act[static_cast<std::size_t>(h)];
      }
      logits[static_cast<std::size_t>(c)] = z;
    }
    SoftmaxInPlace(logits);
    // Backward.
    std::fill(hidden_grad.begin(), hidden_grad.end(), 0.0);
    for (int c = 0; c < classes; ++c) {
      const double coeff = logits[static_cast<std::size_t>(c)] - (c == y ? 1.0 : 0.0);
      float* g2c = &g2[static_cast<std::size_t>(c) * hidden];
      const float* w2c = &w.w2[static_cast<std::size_t>(c) * hidden];
      for (int h = 0; h < hidden; ++h) {
        g2c[h] += static_cast<float>(coeff * act[static_cast<std::size_t>(h)]);
        hidden_grad[static_cast<std::size_t>(h)] += coeff * static_cast<double>(w2c[h]);
      }
    }
    for (int h = 0; h < hidden; ++h) {
      if (act[static_cast<std::size_t>(h)] <= 0.0) {
        continue;  // ReLU gate.
      }
      Axpy(static_cast<float>(hidden_grad[static_cast<std::size_t>(h)]), x,
           &g1[static_cast<std::size_t>(h) * dim], dim);
    }
  }

  // One coalesced additive update per row.
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto reg = static_cast<float>(config_.regularization);
  std::vector<float> delta;
  delta.resize(static_cast<std::size_t>(dim));
  for (int h = 0; h < hidden; ++h) {
    const float* g1h = &g1[static_cast<std::size_t>(h) * dim];
    const float* w1h = &w.w1[static_cast<std::size_t>(h) * dim];
    for (int j = 0; j < dim; ++j) {
      delta[static_cast<std::size_t>(j)] =
          -lr * (g1h[j] / static_cast<float>(batch) + reg * w1h[j]);
    }
    ctx.Update(kTableW1, h, delta);
  }
  delta.resize(static_cast<std::size_t>(hidden));
  for (int c = 0; c < classes; ++c) {
    const float* g2c = &g2[static_cast<std::size_t>(c) * hidden];
    const float* w2c = &w.w2[static_cast<std::size_t>(c) * hidden];
    for (int h = 0; h < hidden; ++h) {
      delta[static_cast<std::size_t>(h)] =
          -lr * (g2c[h] / static_cast<float>(batch) + reg * w2c[h]);
    }
    ctx.Update(kTableW2, c, delta);
  }
}

double DnnApp::SampleLoss(const Weights& w, std::int64_t index) const {
  const int dim = data_->config.dim;
  const int classes = data_->config.classes;
  const int hidden = config_.hidden;
  const float* x = data_->Sample(index);
  std::vector<double> act(static_cast<std::size_t>(hidden));
  for (int h = 0; h < hidden; ++h) {
    const double z = Dot(&w.w1[static_cast<std::size_t>(h) * dim], x, dim);
    act[static_cast<std::size_t>(h)] = z > 0.0 ? z : 0.0;
  }
  std::vector<double> logits(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    const float* w2c = &w.w2[static_cast<std::size_t>(c) * hidden];
    double z = 0.0;
    for (int h = 0; h < hidden; ++h) {
      z += static_cast<double>(w2c[h]) * act[static_cast<std::size_t>(h)];
    }
    logits[static_cast<std::size_t>(c)] = z;
  }
  SoftmaxInPlace(logits);
  const std::int32_t y = data_->label[static_cast<std::size_t>(index)];
  return -std::log(std::max(logits[static_cast<std::size_t>(y)], 1e-12));
}

double DnnApp::ComputeObjective(const ModelStore& model) const {
  const std::int64_t sample = std::min(config_.objective_sample, data_->size());
  PROTEUS_CHECK_GT(sample, 0);
  const Weights w = Fetch([&model](int table, std::int64_t row, std::vector<float>& out) {
    model.ReadRow(table, row, out);
  });
  double loss = 0.0;
  for (std::int64_t n = 0; n < sample; ++n) {
    loss += SampleLoss(w, n);
  }
  return loss / static_cast<double>(sample);
}

}  // namespace proteus
