// Matrix Factorization via SGD (§6.2): factors a sparse ratings matrix X
// into L x R. One input item = one observed rating; processing it
// updates the corresponding row of L and row (column of X) of R by the
// gradient, exactly as in the paper's MF implementation.
#ifndef SRC_APPS_MF_H_
#define SRC_APPS_MF_H_

#include <memory>

#include "src/agileml/app.h"
#include "src/apps/datasets.h"

namespace proteus {

struct MfConfig {
  int rank = 64;                // Factorization rank (paper: 1000 / 100).
  double learning_rate = 0.02;
  double regularization = 0.02;
  // Fraction of ratings used for the RMSE objective sample.
  std::int64_t objective_sample = 50000;
};

class MatrixFactorizationApp : public MLApp {
 public:
  // Table ids for the two factor matrices.
  static constexpr int kTableL = 0;
  static constexpr int kTableR = 1;

  MatrixFactorizationApp(const RatingsDataset* data, MfConfig config);

  std::string Name() const override { return "mf"; }
  ModelInit DefineModel() const override;
  std::int64_t NumItems() const override { return data_->size(); }
  double CostPerItem() const override;
  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override;
  // Root-mean-square error over a fixed rating sample (lower is better).
  double ComputeObjective(const ModelStore& model) const override;

  const MfConfig& config() const { return config_; }

 private:
  const RatingsDataset* data_;
  MfConfig config_;
};

}  // namespace proteus

#endif  // SRC_APPS_MF_H_
