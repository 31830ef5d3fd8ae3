#include "core/traffic_lm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/fault.h"
#include "common/metrics.h"
#include "data/corpus.h"
#include "data/loader.h"

namespace netfm::core {

using model::Batch;
using nn::Tensor;

TrafficLM::TrafficLM(tok::Vocabulary vocab, model::TransformerConfig config)
    : vocab_(std::move(vocab)) {
  config.vocab_size = vocab_.size();
  config.causal = true;
  encoder_ = std::make_unique<model::TransformerEncoder>(config);
  Rng head_rng(config.seed + 3);
  head_ = std::make_unique<model::MlmHead>(
      encoder_->config(), encoder_->token_embeddings(), head_rng);
}

namespace {

/// Shift targets: position t predicts ids[t+1]; padding and the position
/// after [SEP] are ignored.
std::vector<int> next_token_targets(const Encoded& item) {
  std::vector<int> targets(item.ids.size(), -1);
  for (std::size_t t = 0; t + 1 < item.ids.size(); ++t) {
    if (item.mask[t] == 0.0f || item.mask[t + 1] == 0.0f) continue;
    targets[t] = item.ids[t + 1];
  }
  return targets;
}

}  // namespace

TrainLog TrafficLM::train(
    const std::vector<std::vector<std::string>>& corpus,
    const LmTrainOptions& options) {
  if (corpus.empty())
    throw std::invalid_argument("TrafficLM::train: empty corpus");
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);

  // Encode the corpus once; batches reference these by index.
  std::vector<Encoded> encoded;
  encoded.reserve(corpus.size());
  for (const auto& tokens : corpus)
    encoded.push_back(encode_context(tokens, vocab_, seq_len));
  return train_impl(
      corpus.size(),
      [&](std::size_t, std::span<const std::size_t> indices) {
        std::vector<Encoded> items;
        items.reserve(indices.size());
        for (const std::size_t i : indices) items.push_back(encoded[i]);
        return items;
      },
      options);
}

TrainLog TrafficLM::train(const data::CorpusReader& corpus,
                          const LmTrainOptions& options) {
  if (corpus.size() == 0)
    throw std::invalid_argument("TrafficLM::train: empty corpus");
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);
  data::StreamingLoader::Options loader_options;
  loader_options.seed = options.seed;
  loader_options.batch_size = options.batch_size;
  data::StreamingLoader loader(corpus, loader_options);
  return train_impl(
      corpus.size(),
      [&](std::size_t step, std::span<const std::size_t> indices) {
        auto rows = loader.batch(step);
        std::vector<Encoded> items;
        items.reserve(rows.size());
        for (const auto& row : rows)
          items.push_back(encode_context(row, vocab_, seq_len));
        (void)indices;  // composed identically inside the loader
        return items;
      },
      options);
}

TrainLog TrafficLM::train_impl(
    std::size_t corpus_size,
    const std::function<std::vector<Encoded>(
        std::size_t, std::span<const std::size_t>)>& fetch,
    const LmTrainOptions& options) {
  nn::ParameterList params = parameters();
  nn::Adam adam(options.peak_lr, 0.9f, 0.999f, 1e-8f, 0.01f);
  nn::WarmupLinearSchedule schedule(
      options.peak_lr, static_cast<std::int64_t>(options.warmup_steps),
      static_cast<std::int64_t>(options.steps));
  static const auto h_step = metrics::histogram("core.lm.step.ns");
  static const auto c_tokens = metrics::counter("core.lm.tokens", "token");
  static const auto g_loss = metrics::gauge("core.lm.loss", "nats");
  static const auto c_nonfinite =
      metrics::counter("core.lm.nonfinite_skipped");
  static const auto f_crash = fault::point("core.lm.crash");
  static const auto f_loss = fault::point("core.lm.loss");

  TrainLog log;
  std::size_t start_step = 0;
  if (!options.checkpoint_path.empty()) {
    if (const auto at =
            nn::load_checkpoint_file(options.checkpoint_path, params)) {
      start_step = std::min(static_cast<std::size_t>(*at), options.steps);
      log.resumed_from = start_step;
    }
  }

  nn::keep_freed_memory();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t step = start_step; step < options.steps; ++step) {
    metrics::ScopedTimer step_timer(h_step);
    if (f_crash.fire()) throw fault::CrashInjected{"core.lm.crash"};
    // Batch composition is a pure function of (seed, step) via the salted
    // data::batch_indices stream — the property checkpoint resume and the
    // streaming loader both rely on.
    const auto indices = data::batch_indices(options.seed, step,
                                             options.batch_size, corpus_size);
    std::vector<Encoded> items = fetch(step, indices);
    std::vector<int> targets;
    for (const Encoded& item : items) {
      const auto t = next_token_targets(item);
      targets.insert(targets.end(), t.begin(), t.end());
    }
    const Batch batch = make_batch(items);
    const Tensor hidden = encoder_->forward(batch, /*train=*/true);
    Tensor loss = nn::cross_entropy(head_->forward(hidden), targets);

    float loss_value = loss.item();
    if (const auto injected = fault::corrupt_float(f_loss))
      loss_value = *injected;
    if (!std::isfinite(loss_value)) {
      ++log.nonfinite_skipped;
      c_nonfinite.add();
      continue;
    }

    nn::zero_grad(params);
    loss.backward();
    const float grad_norm = nn::clip_grad_norm(params, 1.0f);
    if (!std::isfinite(grad_norm)) {
      ++log.nonfinite_skipped;
      c_nonfinite.add();
      continue;
    }
    adam.set_lr(schedule.lr_at(static_cast<std::int64_t>(step)));
    adam.step(params);
    log.losses.push_back(loss_value);
    c_tokens.add(batch.token_ids.size());
    g_loss.set(loss_value);

    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (step + 1) % options.checkpoint_every == 0)
      nn::save_checkpoint_file(options.checkpoint_path, params, step + 1);
  }
  if (!options.checkpoint_path.empty())
    nn::save_checkpoint_file(options.checkpoint_path, params, options.steps);
  log.steps = options.steps - start_step;
  log.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return log;
}

double TrafficLM::loss(const std::vector<std::vector<std::string>>& corpus,
                       std::size_t max_seq_len) const {
  if (corpus.empty()) return 0.0;
  const std::size_t seq_len =
      std::min(max_seq_len, encoder_->config().max_seq_len);
  const nn::InferenceGuard guard;  // evaluation never needs the graph
  // Token-weighted aggregation: cross_entropy returns a per-batch *mean*
  // over active targets, so averaging batch means would over-weight a
  // ragged final batch. Re-weight each batch by its active-target count.
  double total = 0.0;
  std::size_t total_targets = 0;
  constexpr std::size_t kBatch = 8;
  for (std::size_t at = 0; at < corpus.size(); at += kBatch) {
    const std::vector<Encoded> items = encode_to_longest(
        std::span(corpus).subspan(at, std::min(kBatch, corpus.size() - at)),
        vocab_, seq_len);
    std::vector<int> targets;
    for (const Encoded& item : items) {
      const auto t = next_token_targets(item);
      targets.insert(targets.end(), t.begin(), t.end());
    }
    const std::size_t active = static_cast<std::size_t>(
        std::count_if(targets.begin(), targets.end(),
                      [](int t) { return t >= 0; }));
    if (active == 0) continue;
    const Batch batch = make_batch(items);
    const Tensor hidden = encoder_->forward(batch, /*train=*/false);
    total += nn::cross_entropy(head_->forward(hidden), targets).item() *
             static_cast<double>(active);
    total_targets += active;
  }
  return total_targets == 0 ? 0.0
                            : total / static_cast<double>(total_targets);
}

std::vector<float> TrafficLM::next_logits(std::span<const int> ids) const {
  if (ids.empty())
    throw std::invalid_argument("TrafficLM::next_logits: empty input");
  const std::vector<int> sequence(ids.begin(), ids.end());
  return std::move(next_logits_batch({&sequence, 1})[0]);
}

std::vector<std::vector<float>> TrafficLM::next_logits_batch(
    std::span<const std::vector<int>> sequences) const {
  if (sequences.empty()) return {};
  std::size_t max_len = 0;
  for (const auto& ids : sequences) {
    if (ids.empty())
      throw std::invalid_argument("TrafficLM::next_logits_batch: empty input");
    max_len = std::max(max_len, ids.size());
  }
  if (max_len > encoder_->config().max_seq_len)
    throw std::invalid_argument(
        "TrafficLM::next_logits_batch: sequence exceeds max_seq_len");

  const nn::InferenceGuard guard;
  Batch batch;
  batch.batch_size = sequences.size();
  batch.seq_len = max_len;
  batch.token_ids.assign(sequences.size() * max_len, tok::Vocabulary::kPad);
  batch.segment_ids.assign(sequences.size() * max_len, 0);
  batch.attention_mask.assign(sequences.size() * max_len, 0.0f);
  for (std::size_t b = 0; b < sequences.size(); ++b) {
    const auto& ids = sequences[b];
    std::copy(ids.begin(), ids.end(),
              batch.token_ids.begin() +
                  static_cast<std::ptrdiff_t>(b * max_len));
    std::fill_n(batch.attention_mask.begin() +
                    static_cast<std::ptrdiff_t>(b * max_len),
                ids.size(), 1.0f);
  }
  const Tensor hidden = encoder_->forward(batch, /*train=*/false);

  // Head fast path: the LM head is row-independent, so apply it only to
  // each sequence's last real position ([B, D] rows gathered from the
  // padded [B*T, D] hidden states) instead of all B*T rows. Row-for-row
  // bitwise identical to head_->forward(hidden) at those positions.
  const std::size_t d_model = encoder_->config().d_model;
  Tensor last_hidden = Tensor::empty({sequences.size(), d_model});
  for (std::size_t b = 0; b < sequences.size(); ++b) {
    const std::size_t row = b * max_len + (sequences[b].size() - 1);
    std::copy_n(hidden.data().data() + row * d_model, d_model,
                last_hidden.data().data() + b * d_model);
  }
  const Tensor logits = head_->forward(last_hidden);  // [B, V]
  const std::size_t vocab = vocab_.size();
  std::vector<std::vector<float>> out(sequences.size());
  for (std::size_t b = 0; b < sequences.size(); ++b)
    out[b].assign(logits.data().begin() + b * vocab,
                  logits.data().begin() + (b + 1) * vocab);
  return out;
}

LmDecoder::LmDecoder(const TrafficLM& lm)
    : lm_(&lm), cache_(lm.encoder_->make_paged_cache()) {}

LmDecoder::LmDecoder(const TrafficLM& lm,
                     std::shared_ptr<model::KvBlockPool> pool)
    : lm_(&lm), cache_(lm.encoder_->make_paged_cache(std::move(pool))) {}

std::vector<float> LmDecoder::advance(int token_id) {
  LmDecoder* const self[1] = {this};
  const int ids[1] = {token_id};
  return std::move(advance_batch(self, ids)[0]);
}

std::vector<std::vector<float>> LmDecoder::advance_batch(
    std::span<LmDecoder* const> decoders, std::span<const int> token_ids) {
  static const auto f_crash = fault::point("core.decode.crash");
  if (decoders.empty()) return {};
  if (decoders.size() != token_ids.size())
    throw std::invalid_argument(
        "LmDecoder::advance_batch: one token per decoder");
  const TrafficLM* lm = decoders[0]->lm_;
  for (LmDecoder* d : decoders)
    if (d == nullptr || d->lm_ != lm)
      throw std::invalid_argument(
          "LmDecoder::advance_batch: decoders must share one TrafficLM");
  if (f_crash.fire()) throw fault::CrashInjected{"core.decode.crash"};
  const nn::InferenceGuard guard;
  std::vector<model::PagedKvCache*> caches;
  caches.reserve(decoders.size());
  for (LmDecoder* d : decoders) caches.push_back(&d->cache_);
  const Tensor hidden =
      lm->encoder_->forward_incremental_batch(token_ids, caches);  // [B, D]
  const Tensor logits = lm->head_->forward(hidden);                // [B, V]
  const std::size_t vocab = lm->vocab_.size();
  std::vector<std::vector<float>> out(decoders.size());
  for (std::size_t b = 0; b < decoders.size(); ++b)
    out[b].assign(logits.data().begin() + b * vocab,
                  logits.data().begin() + (b + 1) * vocab);
  return out;
}

namespace {

/// Frames a sequence exactly like training data: [CLS] tokens... [SEP],
/// truncated to max_seq_len.
std::vector<int> frame_for_score(const std::vector<std::string>& tokens,
                                 const tok::Vocabulary& vocab,
                                 std::size_t max_seq_len) {
  std::vector<int> ids;
  ids.reserve(tokens.size() + 2);
  ids.push_back(tok::Vocabulary::kCls);
  for (const std::string& t : tokens) ids.push_back(vocab.id(t));
  ids.push_back(tok::Vocabulary::kSep);
  if (ids.size() > max_seq_len) ids.resize(max_seq_len);
  return ids;
}

/// Stable log-softmax at the realized next token, in double: the per-step
/// term `total -=` accumulates in score_batch().
double log_prob_term(const std::vector<float>& logits, int next_id) {
  float maxv = logits[0];
  for (float v : logits) maxv = std::max(maxv, v);
  double denom = 0.0;
  for (float v : logits) denom += std::exp(static_cast<double>(v - maxv));
  return static_cast<double>(logits[static_cast<std::size_t>(next_id)] -
                             maxv) -
         std::log(denom);
}

/// One sampling step: special-token masking, temperature, optional top-k
/// truncation, softmax draw from `rng`.
int sample_next_token(std::vector<float> logits, const SampleOptions& options,
                      Rng& rng) {
  // Never emit padding/[CLS]/[MASK]; [SEP] ends the sequence.
  logits[tok::Vocabulary::kPad] = -1e9f;
  logits[tok::Vocabulary::kCls] = -1e9f;
  logits[tok::Vocabulary::kMask] = -1e9f;
  logits[tok::Vocabulary::kUnk] = -1e9f;

  // Temperature + optional top-k truncation, then softmax-sample.
  const float inv_temp =
      options.temperature > 0.0
          ? 1.0f / static_cast<float>(options.temperature)
          : 1.0f;
  for (float& v : logits) v *= inv_temp;
  if (options.top_k > 0 && options.top_k < logits.size()) {
    std::vector<float> sorted = logits;
    std::nth_element(
        sorted.begin(),
        sorted.begin() + static_cast<std::ptrdiff_t>(options.top_k - 1),
        sorted.end(), std::greater<float>());
    const float cutoff = sorted[options.top_k - 1];
    for (float& v : logits)
      if (v < cutoff) v = -1e9f;
  }
  float max_logit = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i)
    probs[i] = std::exp(static_cast<double>(logits[i]) - max_logit);
  return static_cast<int>(rng.weighted(probs));
}

}  // namespace

double TrafficLM::score(const std::vector<std::string>& tokens) const {
  LmDecoder decoder(*this);
  LmDecoder* const decoders[1] = {&decoder};
  return score_batch({&tokens, 1}, decoders)[0];
}

std::vector<double> TrafficLM::score_batch(
    std::span<const std::vector<std::string>> sequences,
    std::span<LmDecoder* const> decoders) const {
  if (sequences.size() != decoders.size())
    throw std::invalid_argument("TrafficLM::score_batch: one decoder per "
                                "sequence");
  const std::size_t n = sequences.size();
  std::vector<std::vector<int>> ids(n);
  std::vector<double> total(n, 0.0);
  std::vector<std::size_t> count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] =
        frame_for_score(sequences[i], vocab_, encoder_->config().max_seq_len);
    decoders[i]->reset();
  }
  // Lockstep decode: at step t, every sequence that still has a target
  // token joins one batched forward. Sequences fall out of the batch as
  // they end; per-sequence accumulation is untouched, so each element is
  // bitwise equal to scoring that sequence alone.
  std::vector<LmDecoder*> active;
  std::vector<int> step_tokens;
  std::vector<std::size_t> who;
  for (std::size_t t = 0;; ++t) {
    active.clear();
    step_tokens.clear();
    who.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (t + 1 >= ids[i].size()) continue;
      active.push_back(decoders[i]);
      step_tokens.push_back(ids[i][t]);
      who.push_back(i);
    }
    if (active.empty()) break;
    const auto logits = LmDecoder::advance_batch(active, step_tokens);
    for (std::size_t g = 0; g < who.size(); ++g) {
      const std::size_t i = who[g];
      total[i] -= log_prob_term(logits[g], ids[i][t + 1]);
      ++count[i];
    }
  }
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (count[i] > 0) out[i] = total[i] / static_cast<double>(count[i]);
  return out;
}

std::vector<std::string> TrafficLM::sample(const SampleOptions& options,
                                           Rng& rng) const {
  LmDecoder decoder(*this);
  Rng* const rngs[1] = {&rng};
  LmDecoder* const decoders[1] = {&decoder};
  return std::move(sample_batch({&options, 1}, rngs, decoders)[0]);
}

std::vector<std::vector<std::string>> TrafficLM::sample_batch(
    std::span<const SampleOptions> options, std::span<Rng* const> rngs,
    std::span<LmDecoder* const> decoders) const {
  if (options.size() != decoders.size() || rngs.size() != decoders.size())
    throw std::invalid_argument(
        "TrafficLM::sample_batch: one options/rng per decoder");
  const std::size_t n = decoders.size();
  const std::size_t cap = encoder_->config().max_seq_len;
  std::vector<std::vector<int>> ids(n, std::vector<int>{tok::Vocabulary::kCls});
  std::vector<std::vector<std::string>> out(n);
  std::vector<std::size_t> limit(n);
  std::vector<char> done(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // max_tokens + 1 accounts for [CLS]; compare before adding so a huge
    // max_tokens (e.g. SIZE_MAX) can't wrap to 0 and emit nothing.
    limit[i] = options[i].max_tokens >= cap ? cap : options[i].max_tokens + 1;
    decoders[i]->reset();
    if (ids[i].size() >= limit[i]) done[i] = 1;
  }
  // Lockstep decode: every still-active stream feeds its last token into
  // one batched forward, then draws from its own Rng through the shared
  // per-step sampling code — so each stream's tokens are bitwise equal to
  // sampling it alone with the same options/seed. KV-cached logits are
  // bit-identical to next_logits(ids). Streams drop out of the batch on
  // [SEP] or their token limit.
  std::vector<LmDecoder*> active;
  std::vector<int> step_tokens;
  std::vector<std::size_t> who;
  for (;;) {
    active.clear();
    step_tokens.clear();
    who.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      active.push_back(decoders[i]);
      step_tokens.push_back(ids[i].back());
      who.push_back(i);
    }
    if (active.empty()) break;
    auto logits = LmDecoder::advance_batch(active, step_tokens);
    for (std::size_t g = 0; g < who.size(); ++g) {
      const std::size_t i = who[g];
      const int token =
          sample_next_token(std::move(logits[g]), options[i], *rngs[i]);
      if (token == tok::Vocabulary::kSep) {
        done[i] = 1;
        continue;
      }
      ids[i].push_back(token);
      out[i].push_back(vocab_.token(token));
      if (ids[i].size() >= limit[i]) done[i] = 1;
    }
  }
  return out;
}

std::vector<std::vector<std::string>> TrafficLM::sample_corpus(
    std::size_t count, const SampleOptions& options, Rng& rng) const {
  std::vector<std::vector<std::string>> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto sequence = sample(options, rng);
    if (!sequence.empty()) corpus.push_back(std::move(sequence));
  }
  return corpus;
}

std::shared_ptr<model::KvBlockPool> TrafficLM::make_kv_pool(
    std::size_t num_blocks) const {
  return encoder_->make_block_pool(num_blocks);
}

std::size_t TrafficLM::kv_blocks_per_sequence() const noexcept {
  return encoder_->blocks_per_sequence();
}

nn::ParameterList TrafficLM::parameters() const {
  nn::ParameterList params = encoder_->parameters();
  head_->collect(params);
  return params;
}

void TrafficLM::prepack() const {
  encoder_->prepack();
  head_->prepack();
}

}  // namespace netfm::core
