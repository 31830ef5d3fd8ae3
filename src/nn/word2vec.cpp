#include "nn/word2vec.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/libm_port.h"

namespace netfm::nn {
namespace {

float fast_sigmoid(float x) noexcept {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + kernels::expf_port(-x));
}

}  // namespace

Word2Vec::Word2Vec(std::size_t vocab_size, const Word2VecConfig& config)
    : vocab_(vocab_size), config_(config) {
  Rng rng(config.seed);
  input_.resize(vocab_ * config_.dim);
  output_.assign(vocab_ * config_.dim, 0.0f);
  for (float& v : input_)
    v = static_cast<float>(rng.uniform_real(-0.5, 0.5)) /
        static_cast<float>(config_.dim);
  unigram_.assign(vocab_, 0.0);
  frequency_.assign(vocab_, 0.0);
}

void Word2Vec::train_pair(int center, int context, float lr, Rng& rng) {
  const std::size_t dim = config_.dim;
  float* in = input_.data() + static_cast<std::size_t>(center) * dim;
  std::vector<float> grad_in(dim, 0.0f);

  // One positive + `negatives` sampled negatives.
  for (std::size_t n = 0; n <= config_.negatives; ++n) {
    int target;
    float label;
    if (n == 0) {
      target = context;
      label = 1.0f;
    } else {
      target = static_cast<int>(rng.weighted(unigram_));
      if (target == context) continue;
      label = 0.0f;
    }
    float* out = output_.data() + static_cast<std::size_t>(target) * dim;
    float dot = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) dot += in[d] * out[d];
    const float g = (label - fast_sigmoid(dot)) * lr;
    for (std::size_t d = 0; d < dim; ++d) {
      grad_in[d] += g * out[d];
      out[d] += g * in[d];
    }
  }
  for (std::size_t d = 0; d < dim; ++d) in[d] += grad_in[d];
}

void Word2Vec::train(const std::vector<std::vector<int>>& corpus) {
  // Token statistics for negative sampling and subsampling.
  std::fill(unigram_.begin(), unigram_.end(), 0.0);
  double total_tokens = 0.0;
  for (const auto& seq : corpus)
    for (int id : seq)
      if (id >= 0 && static_cast<std::size_t>(id) < vocab_) {
        unigram_[static_cast<std::size_t>(id)] += 1.0;
        total_tokens += 1.0;
      }
  if (total_tokens == 0.0) return;
  for (std::size_t i = 0; i < vocab_; ++i) {
    frequency_[i] = unigram_[i] / total_tokens;
    unigram_[i] = std::pow(unigram_[i], 0.75);
  }

  Rng rng(config_.seed + 1);
  const float lr_floor = config_.lr / 20.0f;
  std::size_t processed = 0;
  const std::size_t planned =
      static_cast<std::size_t>(total_tokens) * config_.epochs;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& seq : corpus) {
      // Subsample frequent tokens (Mikolov's discard rule).
      std::vector<int> kept;
      kept.reserve(seq.size());
      for (int id : seq) {
        if (id < 0 || static_cast<std::size_t>(id) >= vocab_) continue;
        const double f = frequency_[static_cast<std::size_t>(id)];
        if (f > config_.subsample) {
          const double keep_p = std::sqrt(config_.subsample / f);
          if (!rng.chance(keep_p)) continue;
        }
        kept.push_back(id);
      }
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const float progress =
            static_cast<float>(processed) / static_cast<float>(planned);
        const float lr =
            std::max(lr_floor, config_.lr * (1.0f - progress));
        const std::size_t radius = 1 + rng.uniform(config_.window);
        const std::size_t begin = i >= radius ? i - radius : 0;
        const std::size_t end = std::min(kept.size(), i + radius + 1);
        for (std::size_t j = begin; j < end; ++j)
          if (j != i) train_pair(kept[i], kept[j], lr, rng);
        ++processed;
      }
    }
  }
}

double Word2Vec::similarity(int a, int b) const {
  const std::size_t dim = config_.dim;
  const float* va = input_.data() + static_cast<std::size_t>(a) * dim;
  const float* vb = input_.data() + static_cast<std::size_t>(b) * dim;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    dot += static_cast<double>(va[d]) * vb[d];
    na += static_cast<double>(va[d]) * va[d];
    nb += static_cast<double>(vb[d]) * vb[d];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<std::pair<int, double>> Word2Vec::nearest(int id,
                                                      std::size_t k) const {
  std::vector<std::pair<int, double>> scored;
  scored.reserve(vocab_);
  for (std::size_t other = 0; other < vocab_; ++other) {
    if (static_cast<int>(other) == id) continue;
    scored.emplace_back(static_cast<int>(other),
                        similarity(id, static_cast<int>(other)));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace netfm::nn
