// Multinomial Logistic Regression via SGD (§6.2): softmax classification
// where the K per-class weight vectors live in the parameter server and
// every gradient step updates the full model. Like a real worker-side
// library, each ProcessRange reads the K weight rows once per clock,
// accumulates the mini-batch gradient locally, and write-back-coalesces
// one update per row.
//
// The per-sample work is K dots for the logits and K gradient axpys,
// both through the vectorizable kernels of src/apps/dense_kernels.h.
// The weight copy, the gradient and the update row share one scratch
// buffer per range. A range's result depends only on its inputs.
#ifndef SRC_APPS_MLR_H_
#define SRC_APPS_MLR_H_

#include "src/agileml/app.h"
#include "src/apps/datasets.h"

namespace proteus {

struct MlrConfig {
  double learning_rate = 0.05;
  double regularization = 1e-4;
  std::int64_t objective_sample = 2048;
};

class MultinomialLogRegApp : public MLApp {
 public:
  static constexpr int kTableW = 0;  // classes x dim weight matrix.

  MultinomialLogRegApp(const FeaturesDataset* data, MlrConfig config);

  std::string Name() const override { return "mlr"; }
  ModelInit DefineModel() const override;
  std::int64_t NumItems() const override { return data_->size(); }
  double CostPerItem() const override;
  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override;
  // Mean cross-entropy over a fixed sample (lower is better).
  double ComputeObjective(const ModelStore& model) const override;

 private:
  const FeaturesDataset* data_;
  MlrConfig config_;
};

}  // namespace proteus

#endif  // SRC_APPS_MLR_H_
