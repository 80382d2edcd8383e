#include "src/apps/datasets.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace proteus {

namespace {

constexpr int kTrueRank = 8;              // Rank of the planted low-rank structure.
constexpr double kRatingNoise = 0.1;      // Additive Gaussian noise on ratings.
constexpr double kClassSeparation = 2.0;  // Distance between class centers.
constexpr double kFeatureNoise = 1.0;     // Gaussian noise around a class center.
constexpr double kWordZipf = 1.05;        // Within-topic word-frequency skew.

}  // namespace

RatingsDataset GenerateRatings(const RatingsConfig& config) {
  PROTEUS_CHECK_GT(config.users, 0);
  PROTEUS_CHECK_GT(config.items, 0);
  PROTEUS_CHECK_GT(config.ratings, 0);
  Rng rng(config.seed);
  RatingsDataset data;
  data.config = config;
  data.user.reserve(static_cast<std::size_t>(config.ratings));
  data.item.reserve(static_cast<std::size_t>(config.ratings));
  data.value.reserve(static_cast<std::size_t>(config.ratings));

  // Planted factors: entries ~ N(0, 1/sqrt(kTrueRank)) so that planted
  // ratings have unit-order variance.
  const double scale = 1.0 / std::sqrt(static_cast<double>(kTrueRank));
  std::vector<float> lstar(static_cast<std::size_t>(config.users * kTrueRank));
  std::vector<float> rstar(static_cast<std::size_t>(config.items * kTrueRank));
  for (auto& v : lstar) {
    v = static_cast<float>(rng.Normal(0.0, scale));
  }
  for (auto& v : rstar) {
    v = static_cast<float>(rng.Normal(0.0, scale));
  }

  for (std::int64_t n = 0; n < config.ratings; ++n) {
    const auto u = static_cast<std::int32_t>(rng.UniformInt(0, config.users - 1));
    const auto i = static_cast<std::int32_t>(rng.Zipf(config.items, config.item_zipf));
    double dot = 0.0;
    for (int k = 0; k < kTrueRank; ++k) {
      dot += static_cast<double>(
                 lstar[static_cast<std::size_t>(u) * kTrueRank + k]) *
             static_cast<double>(rstar[static_cast<std::size_t>(i) * kTrueRank + k]);
    }
    data.user.push_back(u);
    data.item.push_back(i);
    data.value.push_back(static_cast<float>(dot + rng.Normal(0.0, kRatingNoise)));
  }
  if (config.sort_by_user) {
    std::vector<std::size_t> order(static_cast<std::size_t>(config.ratings));
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&data](std::size_t a, std::size_t b) {
      return data.user[a] < data.user[b];
    });
    RatingsDataset sorted;
    sorted.config = data.config;
    sorted.user.reserve(order.size());
    sorted.item.reserve(order.size());
    sorted.value.reserve(order.size());
    for (const std::size_t i : order) {
      sorted.user.push_back(data.user[i]);
      sorted.item.push_back(data.item[i]);
      sorted.value.push_back(data.value[i]);
    }
    return sorted;
  }
  return data;
}

FeaturesDataset GenerateFeatures(const FeaturesConfig& config) {
  PROTEUS_CHECK_GT(config.samples, 0);
  PROTEUS_CHECK_GT(config.dim, 0);
  PROTEUS_CHECK_GT(config.classes, 1);
  Rng rng(config.seed);
  FeaturesDataset data;
  data.config = config;
  data.x.resize(static_cast<std::size_t>(config.samples) * config.dim);
  data.label.resize(static_cast<std::size_t>(config.samples));

  // Class centers: sparse random directions scaled by the separation.
  std::vector<float> centers(static_cast<std::size_t>(config.classes) * config.dim, 0.0F);
  const int active_dims = std::max(4, config.dim / 16);
  for (int c = 0; c < config.classes; ++c) {
    for (int a = 0; a < active_dims; ++a) {
      const auto d = static_cast<std::size_t>(rng.UniformInt(0, config.dim - 1));
      centers[static_cast<std::size_t>(c) * config.dim + d] = static_cast<float>(
          rng.Normal(0.0, kClassSeparation / std::sqrt(active_dims)));
    }
  }

  for (std::int64_t s = 0; s < config.samples; ++s) {
    const auto y = static_cast<std::int32_t>(rng.UniformInt(0, config.classes - 1));
    data.label[static_cast<std::size_t>(s)] = y;
    float* row = &data.x[static_cast<std::size_t>(s) * config.dim];
    const float* center = &centers[static_cast<std::size_t>(y) * config.dim];
    for (int d = 0; d < config.dim; ++d) {
      row[d] = center[d] + static_cast<float>(rng.Normal(0.0, kFeatureNoise));
    }
  }
  return data;
}

CorpusDataset GenerateCorpus(const CorpusConfig& config) {
  PROTEUS_CHECK_GT(config.docs, 0);
  PROTEUS_CHECK_GT(config.vocab, 0);
  PROTEUS_CHECK_GT(config.true_topics, 1);
  Rng rng(config.seed);
  CorpusDataset data;
  data.config = config;
  data.doc_offsets.push_back(0);

  // Each planted topic owns a contiguous slice of the vocabulary plus a
  // Zipf tail over the full vocabulary (word co-occurrence structure).
  const std::int64_t slice = config.vocab / config.true_topics;
  for (std::int64_t d = 0; d < config.docs; ++d) {
    const int len = std::max<int>(
        8, static_cast<int>(rng.ExponentialMean(static_cast<double>(config.avg_doc_len))));
    // Documents mix 1-3 topics.
    const int num_doc_topics = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<int> doc_topics;
    for (int i = 0; i < num_doc_topics; ++i) {
      doc_topics.push_back(static_cast<int>(rng.UniformInt(0, config.true_topics - 1)));
    }
    for (int t = 0; t < len; ++t) {
      const int topic = doc_topics[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(doc_topics.size()) - 1))];
      std::int64_t word = 0;
      if (rng.Bernoulli(0.85)) {
        // In-topic word, Zipf-distributed within the topic's slice.
        const std::int64_t offset = rng.Zipf(std::max<std::int64_t>(1, slice), kWordZipf);
        word = topic * slice + offset;
      } else {
        // Background word over the whole vocabulary.
        word = rng.Zipf(config.vocab, kWordZipf);
      }
      data.tokens.push_back(static_cast<std::int32_t>(std::min(word, config.vocab - 1)));
    }
    data.doc_offsets.push_back(static_cast<std::int64_t>(data.tokens.size()));
  }
  return data;
}

}  // namespace proteus
