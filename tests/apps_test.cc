#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/dense_kernels.h"
#include "src/apps/lda.h"
#include "src/apps/mf.h"
#include "src/apps/mlr.h"
#include "src/common/rng.h"

namespace proteus {
namespace {

AgileMLConfig SmallConfig() {
  AgileMLConfig config;
  config.num_partitions = 8;
  config.data_blocks = 32;
  config.parallel_execution = false;  // Deterministic for tests.
  return config;
}

std::vector<NodeInfo> OneReliableNode() {
  return {{0, Tier::kReliable, 8, kInvalidAllocation}};
}

TEST(Datasets, RatingsShapeAndDeterminism) {
  RatingsConfig config;
  config.users = 100;
  config.items = 50;
  config.ratings = 1000;
  const RatingsDataset a = GenerateRatings(config);
  const RatingsDataset b = GenerateRatings(config);
  ASSERT_EQ(a.size(), 1000);
  EXPECT_EQ(a.value, b.value);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a.user[static_cast<std::size_t>(i)], 0);
    EXPECT_LT(a.user[static_cast<std::size_t>(i)], 100);
    EXPECT_GE(a.item[static_cast<std::size_t>(i)], 0);
    EXPECT_LT(a.item[static_cast<std::size_t>(i)], 50);
  }
}

TEST(Datasets, FeaturesShape) {
  FeaturesConfig config;
  config.samples = 64;
  config.dim = 16;
  config.classes = 4;
  const FeaturesDataset data = GenerateFeatures(config);
  EXPECT_EQ(data.size(), 64);
  EXPECT_EQ(data.x.size(), 64u * 16u);
  for (const auto label : data.label) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Datasets, CorpusShape) {
  CorpusConfig config;
  config.docs = 50;
  config.vocab = 200;
  const CorpusDataset data = GenerateCorpus(config);
  EXPECT_EQ(data.num_docs(), 50);
  EXPECT_GT(data.num_tokens(), 50 * 8);
  for (const auto w : data.tokens) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 200);
  }
  for (std::int64_t d = 0; d < data.num_docs(); ++d) {
    EXPECT_LT(data.DocBegin(d), data.DocEnd(d));
  }
}

TEST(MatrixFactorization, ConvergesOnSingleNode) {
  RatingsConfig rc;
  rc.users = 500;
  rc.items = 200;
  rc.ratings = 20000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 16;
  MatrixFactorizationApp app(&data, mc);
  AgileMLRuntime runtime(&app, SmallConfig(), OneReliableNode());
  const double before = runtime.ComputeObjective();
  runtime.RunClocks(15);
  const double after = runtime.ComputeObjective();
  EXPECT_LT(after, before * 0.7) << "RMSE should drop substantially";
}

TEST(MultinomialLogReg, ConvergesOnSingleNode) {
  FeaturesConfig fc;
  fc.samples = 512;
  fc.dim = 64;
  fc.classes = 8;
  const FeaturesDataset data = GenerateFeatures(fc);
  MultinomialLogRegApp app(&data, MlrConfig{});
  AgileMLRuntime runtime(&app, SmallConfig(), OneReliableNode());
  const double before = runtime.ComputeObjective();
  runtime.RunClocks(20);
  const double after = runtime.ComputeObjective();
  EXPECT_LT(after, before * 0.8) << "cross-entropy should drop";
}

std::vector<float> RandomVector(Rng& rng, int n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& f : v) {
    f = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

// Sizes cover the empty input, tail-only inputs, one exact chunk, a chunk
// plus a tail, and many chunks.
TEST(DenseKernels, MatchDoubleReference) {
  Rng rng(11);
  for (const int n : {0, 1, 7, 8, 9, 37, 512}) {
    SCOPED_TRACE(n);
    const std::vector<float> a = RandomVector(rng, n);
    const std::vector<float> b = RandomVector(rng, n);
    double want = 0.0;
    double magnitude = 0.0;  // Sum of |a_i b_i|: the scale of rounding error.
    for (int d = 0; d < n; ++d) {
      const double term = static_cast<double>(a[d]) * static_cast<double>(b[d]);
      want += term;
      magnitude += std::abs(term);
    }
    const double got = Dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-5 * magnitude);
    EXPECT_EQ(got, Dot(a.data(), b.data(), n));  // Bit-identical on repeat.

    const float coeff = 0.37F;
    std::vector<float> scalar = b;
    for (int d = 0; d < n; ++d) {
      scalar[d] += coeff * a[d];
    }
    std::vector<float> g = b;
    Axpy(coeff, a.data(), g.data(), n);
    EXPECT_EQ(g, scalar);
  }
}

TEST(DenseKernels, SoftmaxIsShiftInvariantAndNormalized) {
  std::vector<double> small = {2.0, -1.0, 0.5, 3.0};
  std::vector<double> large = {802.0, 799.0, 800.5, 803.0};  // exp(803) overflows.
  SoftmaxInPlace(small);
  SoftmaxInPlace(large);
  double total = 0.0;
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_NEAR(large[i], small[i], 1e-12);
    total += small[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(small[3], small[0]);
  EXPECT_GT(small[2], small[1]);
}

// dim = 37 is not a multiple of the kernels' chunk, so the tail path runs.
TEST(MultinomialLogReg, ProcessRangeMatchesScalarReference) {
  FeaturesConfig fc;
  fc.samples = 48;
  fc.dim = 37;
  fc.classes = 5;
  const FeaturesDataset data = GenerateFeatures(fc);
  const MlrConfig mc;
  MultinomialLogRegApp app(&data, mc);
  ModelStore store(app.DefineModel().tables, 4, 7);
  const int classes = fc.classes;
  const int dim = fc.dim;
  const std::int64_t begin = 5;
  const std::int64_t end = 41;

  std::vector<std::vector<float>> w0(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    store.ReadRow(MultinomialLogRegApp::kTableW, c, w0[static_cast<std::size_t>(c)]);
  }
  // Naive double-precision reference of one mini-batch step.
  std::vector<double> grad(static_cast<std::size_t>(classes) * dim, 0.0);
  std::vector<double> p(static_cast<std::size_t>(classes));
  for (std::int64_t n = begin; n < end; ++n) {
    const float* x = data.Sample(n);
    for (int c = 0; c < classes; ++c) {
      double z = 0.0;
      for (int d = 0; d < dim; ++d) {
        z += static_cast<double>(w0[static_cast<std::size_t>(c)][d]) * x[d];
      }
      p[static_cast<std::size_t>(c)] = z;
    }
    const double max_z = *std::max_element(p.begin(), p.end());
    double total = 0.0;
    for (double& v : p) {
      v = std::exp(v - max_z);
      total += v;
    }
    const std::int32_t y = data.label[static_cast<std::size_t>(n)];
    for (int c = 0; c < classes; ++c) {
      const double coeff = p[static_cast<std::size_t>(c)] / total - (c == y ? 1.0 : 0.0);
      for (int d = 0; d < dim; ++d) {
        grad[static_cast<std::size_t>(c) * dim + d] += coeff * x[d];
      }
    }
  }
  const auto batch = static_cast<double>(end - begin);
  std::vector<double> want(grad.size());
  double scale = 0.0;
  for (int c = 0; c < classes; ++c) {
    for (int d = 0; d < dim; ++d) {
      const std::size_t i = static_cast<std::size_t>(c) * dim + d;
      want[i] = -mc.learning_rate * (grad[i] / batch + mc.regularization *
                                                          w0[static_cast<std::size_t>(c)][d]);
      scale = std::max(scale, std::abs(want[i]));
    }
  }
  ASSERT_GT(scale, 0.0);

  AccessLog log;
  WorkerContext ctx(0, &store, &log, Rng(3));
  app.ProcessRange(ctx, begin, end);

  std::vector<float> row;
  for (int c = 0; c < classes; ++c) {
    store.ReadRow(MultinomialLogRegApp::kTableW, c, row);
    for (int d = 0; d < dim; ++d) {
      const double got = static_cast<double>(row[d]) - w0[static_cast<std::size_t>(c)][d];
      EXPECT_NEAR(got, want[static_cast<std::size_t>(c) * dim + d], 1e-4 * scale)
          << "class " << c << " component " << d;
    }
  }
  // One read and one coalesced update per weight row per range.
  ASSERT_EQ(log.reads.size(), static_cast<std::size_t>(classes));
  ASSERT_EQ(log.updates.size(), static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    EXPECT_EQ(log.reads[static_cast<std::size_t>(c)],
              MakeRowKey(MultinomialLogRegApp::kTableW, c));
    EXPECT_EQ(log.updates[static_cast<std::size_t>(c)],
              MakeRowKey(MultinomialLogRegApp::kTableW, c));
  }
}

TEST(Lda, ConvergesOnSingleNode) {
  CorpusConfig cc;
  cc.docs = 300;
  cc.vocab = 500;
  cc.true_topics = 8;
  const CorpusDataset data = GenerateCorpus(cc);
  LdaConfig lc;
  lc.topics = 16;
  LdaApp app(&data, lc);
  AgileMLRuntime runtime(&app, SmallConfig(), OneReliableNode());
  runtime.RunClock();  // First clock initializes topic assignments.
  const double before = runtime.ComputeObjective();
  runtime.RunClocks(15);
  const double after = runtime.ComputeObjective();
  EXPECT_LT(after, before) << "negative log-likelihood should drop";
}

TEST(MatrixFactorization, MultiNodeMatchesSingleNodeQuality) {
  RatingsConfig rc;
  rc.users = 500;
  rc.items = 200;
  rc.ratings = 20000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 16;

  MatrixFactorizationApp single_app(&data, mc);
  AgileMLRuntime single(&single_app, SmallConfig(), OneReliableNode());
  single.RunClocks(12);

  MatrixFactorizationApp multi_app(&data, mc);
  std::vector<NodeInfo> nodes;
  nodes.push_back({0, Tier::kReliable, 8, kInvalidAllocation});
  for (NodeId id = 1; id < 8; ++id) {
    nodes.push_back({id, Tier::kTransient, 8, kInvalidAllocation});
  }
  AgileMLRuntime multi(&multi_app, SmallConfig(), nodes);
  multi.RunClocks(12);

  // Parallel training must reach a comparable objective.
  EXPECT_LT(multi.ComputeObjective(), single.ComputeObjective() * 1.5);
}

TEST(Apps, CostPerItemPositive) {
  RatingsConfig rc;
  rc.users = 10;
  rc.items = 10;
  rc.ratings = 10;
  const RatingsDataset ratings = GenerateRatings(rc);
  FeaturesConfig fc;
  fc.samples = 4;
  fc.dim = 8;
  fc.classes = 2;
  const FeaturesDataset features = GenerateFeatures(fc);
  CorpusConfig cc;
  cc.docs = 4;
  cc.vocab = 20;
  const CorpusDataset corpus = GenerateCorpus(cc);
  MatrixFactorizationApp mf(&ratings, MfConfig{});
  MultinomialLogRegApp mlr(&features, MlrConfig{});
  LdaApp lda(&corpus, LdaConfig{});
  EXPECT_GT(mf.CostPerItem(), 0.0);
  EXPECT_GT(mlr.CostPerItem(), 0.0);
  EXPECT_GT(lda.CostPerItem(), 0.0);
}

}  // namespace
}  // namespace proteus
