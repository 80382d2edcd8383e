// Synthetic dataset generators shaped like the paper's evaluation inputs.
//
// Substitution note (DESIGN.md §2): the paper trains on Netflix (sparse
// ratings), ImageNet-LLC (dense features), and NYTimes (bag-of-words).
// We generate scaled-down synthetic datasets with matching structure:
//  - ratings: low-rank-plus-noise values, Zipf item popularity;
//  - features: Gaussian class clusters in dense feature space;
//  - corpus: documents drawn from topic mixtures over a Zipf vocabulary.
// What the systems experiments depend on — parameter-access patterns,
// model sizes, and decreasing training objectives — is preserved.
#ifndef SRC_APPS_DATASETS_H_
#define SRC_APPS_DATASETS_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace proteus {

// --- Sparse ratings (MF / collaborative filtering) ---

struct RatingsConfig {
  std::int64_t users = 20000;
  std::int64_t items = 2000;
  std::int64_t ratings = 500000;
  double item_zipf = 1.1;  // Item-popularity skew.
  // Sort ratings by user id. Real MF deployments partition training data
  // by user so each worker owns a contiguous user range (its L rows stay
  // node-local); this is also what gives the paper's communication
  // pattern its shape.
  bool sort_by_user = true;
  std::uint64_t seed = 42;
};

struct RatingsDataset {
  RatingsConfig config;
  std::vector<std::int32_t> user;  // Parallel arrays, one entry per rating.
  std::vector<std::int32_t> item;
  std::vector<float> value;

  std::int64_t size() const { return static_cast<std::int64_t>(value.size()); }
};

RatingsDataset GenerateRatings(const RatingsConfig& config);

// --- Dense labeled features (MLR / classification) ---

struct FeaturesConfig {
  std::int64_t samples = 8192;
  int dim = 1024;
  int classes = 64;
  std::uint64_t seed = 43;
};

struct FeaturesDataset {
  FeaturesConfig config;
  std::vector<float> x;            // Row-major samples x dim.
  std::vector<std::int32_t> label;

  std::int64_t size() const { return static_cast<std::int64_t>(label.size()); }
  const float* Sample(std::int64_t i) const { return &x[static_cast<std::size_t>(i) * config.dim]; }
};

FeaturesDataset GenerateFeatures(const FeaturesConfig& config);

// --- Bag-of-words corpus (LDA / topic modeling) ---

struct CorpusConfig {
  std::int64_t docs = 4000;
  std::int64_t vocab = 4000;
  int true_topics = 16;     // Planted topics used for generation.
  int avg_doc_len = 100;
  std::uint64_t seed = 44;
};

struct CorpusDataset {
  CorpusConfig config;
  std::vector<std::int32_t> tokens;       // Word ids, all docs concatenated.
  std::vector<std::int64_t> doc_offsets;  // docs+1 offsets into tokens.

  std::int64_t num_docs() const { return static_cast<std::int64_t>(doc_offsets.size()) - 1; }
  std::int64_t num_tokens() const { return static_cast<std::int64_t>(tokens.size()); }
  std::int64_t DocBegin(std::int64_t d) const { return doc_offsets[static_cast<std::size_t>(d)]; }
  std::int64_t DocEnd(std::int64_t d) const {
    return doc_offsets[static_cast<std::size_t>(d) + 1];
  }
};

CorpusDataset GenerateCorpus(const CorpusConfig& config);

}  // namespace proteus

#endif  // SRC_APPS_DATASETS_H_
