#include "src/apps/lda.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/apps/dense_kernels.h"
#include "src/common/logging.h"

namespace proteus {

LdaApp::LdaApp(const CorpusDataset* data, LdaConfig config) : data_(data), config_(config) {
  PROTEUS_CHECK(data != nullptr);
  PROTEUS_CHECK_GT(config.topics, 1);
  z_.assign(static_cast<std::size_t>(data->num_tokens()), -1);
  doc_initialized_.assign(static_cast<std::size_t>(data->num_docs()), 0);
}

ModelInit LdaApp::DefineModel() const {
  ModelInit init;
  init.tables.push_back({kTableWordTopic, data_->config.vocab, config_.topics, 0.0F, 0.0F});
  init.tables.push_back({kTableTotals, 1, config_.topics, 0.0F, 0.0F});
  return init;
}

double LdaApp::CostPerItem() const {
  // One Gibbs sweep over an average-length document: ~6 ops per
  // (token, topic) pair.
  return 6.0 * static_cast<double>(data_->config.avg_doc_len) *
         static_cast<double>(config_.topics);
}

void LdaApp::InitDoc(WorkerContext& ctx, std::int64_t doc) {
  const int topics = config_.topics;
  const auto width = static_cast<std::size_t>(topics);
  const auto first = static_cast<std::size_t>(data_->DocBegin(doc));
  const auto last = static_cast<std::size_t>(data_->DocEnd(doc));
  // The document's distinct words, sorted, are its slots; slot i's counts
  // sit at deltas[i * topics]. All of them go out in one UpdateMany at
  // the document's end.
  std::vector<std::int64_t> words(data_->tokens.begin() + static_cast<std::ptrdiff_t>(first),
                                  data_->tokens.begin() + static_cast<std::ptrdiff_t>(last));
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  std::vector<float> deltas(words.size() * width, 0.0F);
  std::vector<float> totals_delta(width, 0.0F);
  for (std::size_t t = first; t < last; ++t) {
    const auto k = static_cast<std::int32_t>(ctx.rng().UniformInt(0, topics - 1));
    z_[t] = k;
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(words.begin(), words.end(), data_->tokens[t]) - words.begin());
    deltas[slot * width + static_cast<std::size_t>(k)] += 1.0F;
    totals_delta[static_cast<std::size_t>(k)] += 1.0F;
  }
  ctx.UpdateMany(kTableWordTopic, words, deltas);
  ctx.Update(kTableTotals, 0, totals_delta);
  doc_initialized_[static_cast<std::size_t>(doc)] = 1;
}

void LdaApp::ProcessRange(WorkerContext& ctx, std::int64_t begin, std::int64_t end) {
  const int topics = config_.topics;
  const auto width = static_cast<std::size_t>(topics);
  const double alpha = kAlpha;
  const double beta = config_.beta;
  const double vbeta = static_cast<double>(data_->config.vocab) * beta;
  auto visited = [&](std::int64_t doc) {
    return doc_initialized_[static_cast<std::size_t>(doc)] != 0;
  };

  // Worker-side cache for this range: each word row fetched once, totals
  // fetched once, all updates coalesced into one delta per row and
  // written back with one UpdateMany. slot_of maps a word to its slot in
  // `words` (-1: none yet); `rows` holds each slot's row as read, kept
  // current as the range resamples, and `deltas` the range's delta to
  // it, both [slot x topics]. At the start of each run of visited
  // documents a prescan slots the words the run touches first, and one
  // ReadMany fetches exactly those. Visited documents write nothing, so
  // each row is what a read at its first touch would return; a first
  // visit (InitDoc) writes at once, and a later run sees its writes.
  // All of it lives for one range: the same scratch kept per thread and
  // reused across ranges raised lda_churn's peak RSS by 1.5-3.7 MB, with
  // no measurable speed-up.
  std::vector<std::int32_t> slot_of(static_cast<std::size_t>(data_->config.vocab), -1);
  std::vector<std::int64_t> words;
  std::vector<float> rows;
  std::vector<float> deltas;
  std::vector<float> totals;
  ctx.ReadInto(kTableTotals, 0, totals);
  std::vector<float> totals_delta(width, 0.0F);
  std::vector<double> prob(width);
  std::vector<double> doc_hist(width);

  for (std::int64_t doc = begin; doc < end;) {
    if (!visited(doc)) {
      InitDoc(ctx, doc);
      ++doc;
      continue;
    }
    // Prescan the run of visited documents that starts here.
    const std::size_t fetched = words.size();
    std::int64_t run_end = doc;
    for (; run_end < end && visited(run_end); ++run_end) {
      for (std::int64_t t = data_->DocBegin(run_end); t < data_->DocEnd(run_end); ++t) {
        const std::int32_t w = data_->tokens[static_cast<std::size_t>(t)];
        std::int32_t& slot = slot_of[static_cast<std::size_t>(w)];
        if (slot < 0) {
          slot = static_cast<std::int32_t>(words.size());
          words.push_back(w);
        }
      }
    }
    rows.resize(words.size() * width);
    deltas.resize(words.size() * width, 0.0F);
    ctx.ReadMany(kTableWordTopic, std::span<const std::int64_t>(words).subspan(fetched),
                 std::span<float>(rows).subspan(fetched * width));

    for (; doc < run_end; ++doc) {
      // Rebuild the document-topic histogram from z.
      std::fill(doc_hist.begin(), doc_hist.end(), 0.0);
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        doc_hist[static_cast<std::size_t>(z_[static_cast<std::size_t>(t)])] += 1.0;
      }
      for (std::int64_t t = data_->DocBegin(doc); t < data_->DocEnd(doc); ++t) {
        const std::int32_t w = data_->tokens[static_cast<std::size_t>(t)];
        const auto old_k = static_cast<std::size_t>(z_[static_cast<std::size_t>(t)]);
        const auto slot = static_cast<std::size_t>(slot_of[static_cast<std::size_t>(w)]);
        float* wrow = rows.data() + slot * width;
        float* wdelta = deltas.data() + slot * width;
        // Remove the token from its current topic.
        doc_hist[old_k] -= 1.0;
        wrow[old_k] -= 1.0F;
        wdelta[old_k] -= 1.0F;
        totals[old_k] -= 1.0F;
        totals_delta[old_k] -= 1.0F;
        // Collapsed Gibbs conditional, then one draw from it.
        const double total = GibbsConditional(doc_hist.data(), wrow, totals.data(), alpha, beta,
                                              vbeta, prob.data(), topics);
        const auto new_k = ctx.rng().Categorical(prob, total);
        // Add it back under the sampled topic.
        z_[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(new_k);
        doc_hist[new_k] += 1.0;
        wrow[new_k] += 1.0F;
        wdelta[new_k] += 1.0F;
        totals[new_k] += 1.0F;
        totals_delta[new_k] += 1.0F;
      }
    }
  }

  ctx.UpdateMany(kTableWordTopic, words, deltas);
  ctx.Update(kTableTotals, 0, totals_delta);
}

double LdaApp::ComputeObjective(const ModelStore& model) const {
  const std::int64_t sample = std::min(kObjectiveSampleDocs, data_->num_docs());
  PROTEUS_CHECK_GT(sample, 0);
  const int topics = config_.topics;
  const double alpha = kAlpha;
  const double beta = config_.beta;
  const double vbeta = static_cast<double>(data_->config.vocab) * beta;

  std::vector<float> totals;
  model.ReadRow(kTableTotals, 0, totals);
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
      const std::int32_t w = data_->tokens[static_cast<std::size_t>(t)];
      model.ReadRow(kTableWordTopic, w, wrow);
      double p = 0.0;
      for (int k = 0; k < topics; ++k) {
        const double theta =
            (std::max(0.0, doc_hist[static_cast<std::size_t>(k)]) + alpha) /
            (len + static_cast<double>(topics) * alpha);
        const double phi =
            (std::max(0.0, static_cast<double>(wrow[static_cast<std::size_t>(k)])) + beta) /
            (std::max(0.0, static_cast<double>(totals[static_cast<std::size_t>(k)])) + vbeta);
        p += theta * phi;
      }
      loglik += std::log(std::max(p, 1e-12));
      ++tokens;
    }
  }
  if (tokens == 0) {
    return std::log(static_cast<double>(data_->config.vocab));  // Uniform baseline.
  }
  return -loglik / static_cast<double>(tokens);
}

}  // namespace proteus
