// Latent Dirichlet Allocation via collapsed Gibbs sampling (§6.2). One
// input item = one document. The shared state in the parameter server is
// the word-topic count matrix plus the per-topic totals row; per-token
// topic assignments (z) ride with the input data, and per-document topic
// histograms are recomputed from z on each visit, keeping workers
// stateless in the paper's sense.
//
// Note on recovery: after a rollback the PS counts revert while z does
// not, so counts and assignments may disagree by a few updates. Collapsed
// Gibbs is robust to this (counts are clamped non-negative in the
// sampling distribution) and re-converges; the same slack exists in any
// bounded-staleness LDA.
#ifndef SRC_APPS_LDA_H_
#define SRC_APPS_LDA_H_

#include <vector>

#include "src/agileml/app.h"
#include "src/apps/datasets.h"

namespace proteus {

struct LdaConfig {
  int topics = 64;
  double beta = 0.01;  // Topic-word smoothing.
};

class LdaApp : public MLApp {
 public:
  static constexpr int kTableWordTopic = 0;  // vocab x topics counts.
  static constexpr int kTableTotals = 1;     // 1 x topics totals.
  static constexpr double kAlpha = 0.1;      // Document-topic smoothing.
  // Documents in the objective's log-likelihood sample.
  static constexpr std::int64_t kObjectiveSampleDocs = 256;

  LdaApp(const CorpusDataset* data, LdaConfig config);

  std::string Name() const override { return "lda"; }
  ModelInit DefineModel() const override;
  std::int64_t NumItems() const override { return data_->num_docs(); }
  double CostPerItem() const override;
  // One Gibbs sweep over docs [begin, end) through a worker-side cache:
  // each run of already-visited docs is prescanned for the words it
  // touches first, which one ReadMany fetches; the range's coalesced word
  // deltas go back in one UpdateMany at its end. A first-visit doc
  // (random topics) writes its counts at once, with one UpdateMany. In
  // sequential mode every row read equals what a per-row read at the
  // word's first touch would return, so results are bit-identical to a
  // lazily reading cache.
  void ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) override;
  // Negative mean per-token log-likelihood (lower is better).
  double ComputeObjective(const ModelStore& model) const override;

  // Per-token topic assignments (-1 until the token's document is first
  // visited).
  const std::vector<std::int32_t>& assignments() const { return z_; }

 private:
  void InitDoc(WorkerContext& ctx, std::int64_t doc);

  const CorpusDataset* data_;
  LdaConfig config_;
  // Per-token topic assignments; documents are disjoint across worker
  // nodes, so concurrent access never overlaps.
  std::vector<std::int32_t> z_;
  std::vector<char> doc_initialized_;
};

}  // namespace proteus

#endif  // SRC_APPS_LDA_H_
