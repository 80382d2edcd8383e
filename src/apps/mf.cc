#include "src/apps/mf.h"

#include <cmath>

#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr float kInitJitter = 0.05F;  // Parameter init range.

}  // namespace

MatrixFactorizationApp::MatrixFactorizationApp(const RatingsDataset* data, MfConfig config)
    : data_(data), config_(config) {
  PROTEUS_CHECK(data != nullptr);
  PROTEUS_CHECK_GT(config.rank, 0);
}

ModelInit MatrixFactorizationApp::DefineModel() const {
  ModelInit init;
  init.tables.push_back(
      {kTableL, data_->config.users, config_.rank, 0.0F, kInitJitter});
  init.tables.push_back(
      {kTableR, data_->config.items, config_.rank, 0.0F, kInitJitter});
  return init;
}

double MatrixFactorizationApp::CostPerItem() const {
  // Dot product + two gradient rows: ~8 flops per rank component.
  return 8.0 * static_cast<double>(config_.rank);
}

void MatrixFactorizationApp::ProcessRange(WorkerContext& ctx, std::int64_t begin,
                                          std::int64_t end) {
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto reg = static_cast<float>(config_.regularization);
  const int rank = config_.rank;
  std::vector<float> lrow;
  std::vector<float> rrow;
  std::vector<float> ldelta(static_cast<std::size_t>(rank));
  std::vector<float> rdelta(static_cast<std::size_t>(rank));
  for (std::int64_t n = begin; n < end; ++n) {
    const std::int64_t u = data_->user[static_cast<std::size_t>(n)];
    const std::int64_t i = data_->item[static_cast<std::size_t>(n)];
    const float v = data_->value[static_cast<std::size_t>(n)];
    ctx.ReadInto(kTableL, u, lrow);
    ctx.ReadInto(kTableR, i, rrow);
    float pred = 0.0F;
    for (int k = 0; k < rank; ++k) {
      pred += lrow[static_cast<std::size_t>(k)] * rrow[static_cast<std::size_t>(k)];
    }
    const float err = v - pred;
    for (int k = 0; k < rank; ++k) {
      const float l = lrow[static_cast<std::size_t>(k)];
      const float r = rrow[static_cast<std::size_t>(k)];
      ldelta[static_cast<std::size_t>(k)] = lr * (err * r - reg * l);
      rdelta[static_cast<std::size_t>(k)] = lr * (err * l - reg * r);
    }
    ctx.Update(kTableL, u, ldelta);
    ctx.Update(kTableR, i, rdelta);
  }
}

double MatrixFactorizationApp::ComputeObjective(const ModelStore& model) const {
  const std::int64_t sample = std::min(config_.objective_sample, data_->size());
  PROTEUS_CHECK_GT(sample, 0);
  std::vector<float> lrow;
  std::vector<float> rrow;
  double sq_err = 0.0;
  for (std::int64_t n = 0; n < sample; ++n) {
    model.ReadRow(kTableL, data_->user[static_cast<std::size_t>(n)], lrow);
    model.ReadRow(kTableR, data_->item[static_cast<std::size_t>(n)], rrow);
    double pred = 0.0;
    for (int k = 0; k < config_.rank; ++k) {
      pred += static_cast<double>(lrow[static_cast<std::size_t>(k)]) *
              static_cast<double>(rrow[static_cast<std::size_t>(k)]);
    }
    const double err = static_cast<double>(data_->value[static_cast<std::size_t>(n)]) - pred;
    sq_err += err * err;
  }
  return std::sqrt(sq_err / static_cast<double>(sample));
}

}  // namespace proteus
