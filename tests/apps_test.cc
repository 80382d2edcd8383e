#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
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

// The vectorized conditional against the scalar expression, bit for bit,
// on counts that include negatives and -0.0 (the clamp), for sizes that are
// tail-only, one chunk, a chunk plus a tail, and the benchmark's 64.
TEST(DenseKernels, GibbsConditionalMatchesScalar) {
  Rng rng(21);
  const double alpha = 0.1;
  const double beta = 0.01;
  const double vbeta = 8000 * beta;
  const double edge[] = {-0.0, -1.0, 0.0, -3.5};
  for (const int n : {1, 7, 8, 9, 64}) {
    SCOPED_TRACE(n);
    std::vector<double> ndk(static_cast<std::size_t>(n));
    std::vector<float> nwk(static_cast<std::size_t>(n));
    std::vector<float> nk(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const auto i = static_cast<std::size_t>(k);
      // Most entries are edge values; the rest are counts.
      ndk[i] = k % 5 < 4 ? edge[k % 4] : static_cast<double>(rng.UniformInt(0, 40));
      nwk[i] = k % 3 < 2 ? static_cast<float>(edge[(k + 1) % 4])
                         : static_cast<float>(rng.UniformInt(0, 900));
      nk[i] = k % 7 < 3 ? static_cast<float>(edge[(k + 2) % 4])
                        : static_cast<float>(rng.UniformInt(0, 90000));
    }
    std::vector<double> want(static_cast<std::size_t>(n));
    double want_total = 0.0;
    for (int k = 0; k < n; ++k) {
      const auto i = static_cast<std::size_t>(k);
      want[i] = (std::max(0.0, ndk[i]) + alpha) *
                (std::max(0.0, static_cast<double>(nwk[i])) + beta) /
                (std::max(0.0, static_cast<double>(nk[i])) + vbeta);
      want_total += want[i];
    }
    std::vector<double> prob(static_cast<std::size_t>(n), -1.0);
    const double total =
        GibbsConditional(ndk.data(), nwk.data(), nk.data(), alpha, beta, vbeta, prob.data(), n);
    EXPECT_EQ(std::memcmp(prob.data(), want.data(), want.size() * sizeof(double)), 0);
    EXPECT_EQ(total, want_total);
  }
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

// LDA's sampler as it was before the flat slab: one unordered_map word
// cache and one delta map per range, and a scalar conditional summed
// inside Categorical. LdaApp must reproduce it bit for bit.
class ScalarLdaOracle : public MLApp {
 public:
  ScalarLdaOracle(const CorpusDataset* data, LdaConfig config) : data_(data), config_(config) {
    z_.assign(static_cast<std::size_t>(data->num_tokens()), -1);
    doc_initialized_.assign(static_cast<std::size_t>(data->num_docs()), 0);
  }

  std::string Name() const override { return "lda_oracle"; }
  ModelInit DefineModel() const override { return LdaApp(data_, config_).DefineModel(); }
  std::int64_t NumItems() const override { return data_->num_docs(); }
  double CostPerItem() const override { return 1.0; }
  const std::vector<std::int32_t>& assignments() const { return z_; }

  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override {
    const int topics = config_.topics;
    const double alpha = LdaApp::kAlpha;
    const double beta = config_.beta;
    const double vbeta = static_cast<double>(data_->config.vocab) * beta;
    std::unordered_map<std::int32_t, std::vector<float>> word_cache;
    std::unordered_map<std::int32_t, std::vector<float>> word_delta;
    std::vector<float> totals;
    ctx.ReadInto(LdaApp::kTableTotals, 0, totals);
    std::vector<float> totals_delta(static_cast<std::size_t>(topics), 0.0F);
    std::vector<double> prob(static_cast<std::size_t>(topics));
    std::vector<double> doc_hist(static_cast<std::size_t>(topics));
    auto word_row = [&](std::int32_t w) -> std::vector<float>& {
      auto it = word_cache.find(w);
      if (it == word_cache.end()) {
        std::vector<float> row;
        ctx.ReadInto(LdaApp::kTableWordTopic, w, row);
        it = word_cache.emplace(w, std::move(row)).first;
      }
      return it->second;
    };
    auto delta_row = [&](std::int32_t w) -> std::vector<float>& {
      auto [it, inserted] = word_delta.try_emplace(w);
      if (inserted) {
        it->second.assign(static_cast<std::size_t>(topics), 0.0F);
      }
      return it->second;
    };
    for (std::int64_t doc = begin; doc < end; ++doc) {
      if (doc_initialized_[static_cast<std::size_t>(doc)] == 0) {
        InitDoc(ctx, doc);
        continue;
      }
      std::fill(doc_hist.begin(), doc_hist.end(), 0.0);
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        doc_hist[static_cast<std::size_t>(z_[static_cast<std::size_t>(t)])] += 1.0;
      }
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        const std::int32_t w = data_->tokens[static_cast<std::size_t>(t)];
        const auto old_k = static_cast<std::size_t>(z_[static_cast<std::size_t>(t)]);
        std::vector<float>& wrow = word_row(w);
        std::vector<float>& wdelta = delta_row(w);
        doc_hist[old_k] -= 1.0;
        wrow[old_k] -= 1.0F;
        wdelta[old_k] -= 1.0F;
        totals[old_k] -= 1.0F;
        totals_delta[old_k] -= 1.0F;
        for (int k = 0; k < topics; ++k) {
          const auto i = static_cast<std::size_t>(k);
          const double ndk = std::max(0.0, doc_hist[i]);
          const double nwk = std::max(0.0, static_cast<double>(wrow[i]));
          const double nk = std::max(0.0, static_cast<double>(totals[i]));
          prob[i] = (ndk + alpha) * (nwk + beta) / (nk + vbeta);
        }
        const auto new_k = ctx.rng().Categorical(prob);
        z_[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(new_k);
        doc_hist[new_k] += 1.0;
        wrow[new_k] += 1.0F;
        wdelta[new_k] += 1.0F;
        totals[new_k] += 1.0F;
        totals_delta[new_k] += 1.0F;
      }
    }
    for (const auto& [w, delta] : word_delta) {
      ctx.Update(LdaApp::kTableWordTopic, w, delta);
    }
    ctx.Update(LdaApp::kTableTotals, 0, totals_delta);
  }

  double ComputeObjective(const ModelStore& model) const override {
    const std::int64_t sample = std::min(LdaApp::kObjectiveSampleDocs, data_->num_docs());
    const int topics = config_.topics;
    const double alpha = LdaApp::kAlpha;
    const double beta = config_.beta;
    const double vbeta = static_cast<double>(data_->config.vocab) * beta;
    std::vector<float> totals;
    model.ReadRow(LdaApp::kTableTotals, 0, totals);
    std::vector<float> wrow;
    std::vector<double> doc_hist(static_cast<std::size_t>(topics));
    double loglik = 0.0;
    std::int64_t tokens = 0;
    for (std::int64_t doc = 0; doc < sample; ++doc) {
      if (doc_initialized_[static_cast<std::size_t>(doc)] == 0) {
        continue;
      }
      std::fill(doc_hist.begin(), doc_hist.end(), 0.0);
      const double len = static_cast<double>(data_->DocEnd(doc) - data_->DocBegin(doc));
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        doc_hist[static_cast<std::size_t>(z_[static_cast<std::size_t>(t)])] += 1.0;
      }
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        model.ReadRow(LdaApp::kTableWordTopic, data_->tokens[static_cast<std::size_t>(t)], wrow);
        double p = 0.0;
        for (int k = 0; k < topics; ++k) {
          const auto i = static_cast<std::size_t>(k);
          const double theta = (std::max(0.0, doc_hist[i]) + alpha) /
                               (len + static_cast<double>(topics) * alpha);
          const double phi = (std::max(0.0, static_cast<double>(wrow[i])) + beta) /
                             (std::max(0.0, static_cast<double>(totals[i])) + vbeta);
          p += theta * phi;
        }
        loglik += std::log(std::max(p, 1e-12));
        ++tokens;
      }
    }
    return -loglik / static_cast<double>(tokens);
  }

 private:
  void InitDoc(WorkerContext& ctx, std::int64_t doc) {
    const int topics = config_.topics;
    std::vector<float> totals_delta(static_cast<std::size_t>(topics), 0.0F);
    std::unordered_map<std::int32_t, std::vector<float>> word_delta;
    for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
      const auto k = static_cast<std::int32_t>(ctx.rng().UniformInt(0, topics - 1));
      z_[static_cast<std::size_t>(t)] = k;
      const std::int32_t w = data_->tokens[static_cast<std::size_t>(t)];
      auto [it, inserted] = word_delta.try_emplace(w);
      if (inserted) {
        it->second.assign(static_cast<std::size_t>(topics), 0.0F);
      }
      it->second[static_cast<std::size_t>(k)] += 1.0F;
      totals_delta[static_cast<std::size_t>(k)] += 1.0F;
    }
    for (const auto& [w, delta] : word_delta) {
      ctx.Update(LdaApp::kTableWordTopic, w, delta);
    }
    ctx.Update(LdaApp::kTableTotals, 0, totals_delta);
    doc_initialized_[static_cast<std::size_t>(doc)] = 1;
  }

  const CorpusDataset* data_;
  LdaConfig config_;
  std::vector<std::int32_t> z_;
  std::vector<char> doc_initialized_;
};

// Every row of a table in hex, so equal strings mean bit-identical rows.
std::string HexRows(const ModelStore& store, int table, std::int64_t rows) {
  std::string out;
  std::vector<float> row;
  char buf[32];
  for (std::int64_t r = 0; r < rows; ++r) {
    store.ReadRow(table, r, row);
    for (const float v : row) {
      std::snprintf(buf, sizeof(buf), "%a,", static_cast<double>(v));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// Six sequential clocks of three uneven ranges each, from the same store
// seed and the same per-range Rng. A priming pass first visits five
// scattered document spans, so the first clock's ranges interleave
// first-visit documents (whose counts go to the store at once) with
// visited runs, some of which touch words an earlier run of the same
// range already cached. The first clock initializes every remaining
// document; before clock 4 some word rows are set negative or to -0.0 (as
// a rollback can leave them), so the clamp runs inside ProcessRange.
// topics = 13 is not a multiple of kLanes, so the conditional's tail runs.
TEST(Lda, ProcessRangeMatchesScalarOracle) {
  CorpusConfig cc;
  cc.docs = 90;
  cc.vocab = 160;
  cc.true_topics = 5;
  cc.avg_doc_len = 24;
  const CorpusDataset data = GenerateCorpus(cc);
  for (const int topics : {16, 13}) {
    SCOPED_TRACE(topics);
    LdaConfig lc;
    lc.topics = topics;
    LdaApp app(&data, lc);
    ScalarLdaOracle oracle(&data, lc);
    ModelStore got(app.DefineModel().tables, 4, 9);
    ModelStore want(oracle.DefineModel().tables, 4, 9);
    const std::int64_t cuts[] = {0, 17, 58, cc.docs};
    auto run_range = [&](std::uint64_t seed, std::int64_t begin, std::int64_t end) {
      const Rng rng(seed);
      AccessLog got_log;
      AccessLog want_log;
      WorkerContext got_ctx(0, &got, &got_log, rng);
      WorkerContext want_ctx(0, &want, &want_log, rng);
      app.ProcessRange(got_ctx, begin, end);
      oracle.ProcessRange(want_ctx, begin, end);
      EXPECT_EQ(got_ctx.rng().engine()(), want_ctx.rng().engine()());
      for (AccessLog* log : {&got_log, &want_log}) {
        std::sort(log->reads.begin(), log->reads.end());
        std::sort(log->updates.begin(), log->updates.end());
      }
      EXPECT_EQ(got_log.reads, want_log.reads);
      EXPECT_EQ(got_log.updates, want_log.updates);
    };
    const std::int64_t primed[][2] = {{3, 8}, {20, 25}, {35, 40}, {60, 64}, {70, 80}};
    for (const auto& span : primed) {
      SCOPED_TRACE(span[0]);
      run_range(static_cast<std::uint64_t>(1000 + span[0]), span[0], span[1]);
    }
    for (int clock = 0; clock < 6; ++clock) {
      SCOPED_TRACE(clock);
      if (clock == 3) {
        std::vector<float> row(static_cast<std::size_t>(topics), -0.0F);
        row[1] = -2.0F;
        row[static_cast<std::size_t>(topics) - 1] = -1.0F;
        for (const std::int64_t w : {0, 1, 2, 5, 11}) {
          got.SetRow(LdaApp::kTableWordTopic, w, row);
          want.SetRow(LdaApp::kTableWordTopic, w, row);
        }
      }
      for (int r = 0; r < 3; ++r) {
        SCOPED_TRACE(r);
        run_range(static_cast<std::uint64_t>(100 * clock + r), cuts[r], cuts[r + 1]);
      }
      ASSERT_EQ(app.assignments(), oracle.assignments());
      ASSERT_EQ(HexRows(got, LdaApp::kTableWordTopic, cc.vocab),
                HexRows(want, LdaApp::kTableWordTopic, cc.vocab));
      ASSERT_EQ(HexRows(got, LdaApp::kTableTotals, 1), HexRows(want, LdaApp::kTableTotals, 1));
    }
    const double objective = app.ComputeObjective(got);
    EXPECT_EQ(objective, oracle.ComputeObjective(want));
    EXPECT_TRUE(std::isfinite(objective));
  }
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
