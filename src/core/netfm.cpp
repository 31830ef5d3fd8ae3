#include "core/netfm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "common/fault.h"
#include "common/metrics.h"
#include "data/corpus.h"
#include "data/loader.h"

namespace netfm::core {

using model::Batch;
using nn::Tensor;

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Per-step batch RNG, shared with the data layer so the streaming loader
// can compose the same batches ahead of time (see data/loader.h).
using data::step_rng;

/// Pairs per batch for a given configuration (0 when the task or the pair
/// set disables them). Hoisted out of the step loop because the streaming
/// loader needs the per-step context count up front.
std::size_t pairs_per_batch(const PretrainOptions& options, bool use_pairs) {
  if (!use_pairs) return 0;
  return static_cast<std::size_t>(
      options.pair_fraction * static_cast<double>(options.batch_size) + 0.5);
}

double cosine(std::span<const float> a, std::span<const float> b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

NetFM::NetFM(tok::Vocabulary vocab, model::TransformerConfig config)
    : vocab_(std::move(vocab)), rng_(config.seed ^ 0xfeedULL) {
  config.vocab_size = vocab_.size();
  encoder_ = std::make_unique<model::TransformerEncoder>(config);
  Rng head_rng(config.seed + 1);
  mlm_head_ = std::make_unique<model::MlmHead>(
      encoder_->config(), encoder_->token_embeddings(), head_rng);
  pooler_ = std::make_unique<model::Pooler>(config.d_model, head_rng);
  next_segment_head_ =
      std::make_unique<model::NextSegmentHead>(config.d_model, head_rng);
}

TrainLog NetFM::pretrain(const std::vector<std::vector<std::string>>& corpus,
                         const std::vector<ctx::SegmentPair>& pairs,
                         const PretrainOptions& options) {
  if (corpus.empty())
    throw std::invalid_argument("NetFM::pretrain: empty corpus");
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);
  // Encode the corpus once; masking corrupts copies per step.
  std::vector<Encoded> encoded;
  encoded.reserve(corpus.size());
  for (const auto& tokens : corpus)
    encoded.push_back(encode_context(tokens, vocab_, seq_len));
  return pretrain_impl(
      corpus.size(),
      [&](std::size_t, std::span<const std::size_t> indices) {
        std::vector<Encoded> items;
        items.reserve(indices.size());
        for (const std::size_t i : indices) items.push_back(encoded[i]);
        return items;
      },
      pairs, options);
}

TrainLog NetFM::pretrain(const data::CorpusReader& corpus,
                         const std::vector<ctx::SegmentPair>& pairs,
                         const PretrainOptions& options) {
  if (corpus.size() == 0)
    throw std::invalid_argument("NetFM::pretrain: empty corpus");
  const bool use_pairs =
      options.task == PretrainTask::kMlmAndNextPacket && !pairs.empty();
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);
  // The loader draws batch_indices(seed, step, num_contexts, size) — the
  // identical composition pretrain_impl expects — and prefetches upcoming
  // steps in the background; this thread only encodes what it consumes.
  data::StreamingLoader::Options loader_options;
  loader_options.seed = options.seed;
  loader_options.batch_size =
      options.batch_size - pairs_per_batch(options, use_pairs);
  data::StreamingLoader loader(corpus, loader_options);
  return pretrain_impl(
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
      pairs, options);
}

TrainLog NetFM::pretrain_impl(
    std::size_t corpus_size,
    const std::function<std::vector<Encoded>(
        std::size_t, std::span<const std::size_t>)>& fetch,
    const std::vector<ctx::SegmentPair>& pairs,
    const PretrainOptions& options) {
  const bool use_pairs =
      options.task == PretrainTask::kMlmAndNextPacket && !pairs.empty();
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);

  std::vector<Encoded> encoded_pairs;
  std::vector<int> pair_labels;
  if (use_pairs) {
    for (const ctx::SegmentPair& pair : pairs) {
      encoded_pairs.push_back(
          encode_pair(pair.first, pair.second, vocab_, seq_len));
      pair_labels.push_back(pair.is_next ? 1 : 0);
    }
  }

  nn::ParameterList params = parameters();
  nn::Adam adam(options.peak_lr, 0.9f, 0.999f, 1e-8f, 0.01f);
  nn::WarmupLinearSchedule schedule(
      options.peak_lr, static_cast<std::int64_t>(options.warmup_steps),
      static_cast<std::int64_t>(options.steps));

  std::vector<double> per_id_prob;
  if (!options.focus_prefixes.empty())
    per_id_prob = focused_mask_probabilities(
        vocab_, options.focus_prefixes, options.focus_prob,
        options.mask_prob);

  static const auto h_step = metrics::histogram("core.pretrain.step.ns");
  static const auto c_tokens =
      metrics::counter("core.pretrain.tokens", "token");
  static const auto g_loss = metrics::gauge("core.pretrain.loss", "nats");
  static const auto c_nonfinite =
      metrics::counter("core.pretrain.nonfinite_skipped");
  static const auto f_crash = fault::point("core.pretrain.crash");
  static const auto f_loss = fault::point("core.pretrain.loss");

  TrainLog log;
  std::size_t start_step = 0;
  if (!options.checkpoint_path.empty()) {
    if (const auto at =
            nn::load_checkpoint_file(options.checkpoint_path, params)) {
      start_step = std::min(static_cast<std::size_t>(*at), options.steps);
      log.resumed_from = start_step;
    }
  }

  const std::size_t num_pairs = pairs_per_batch(options, use_pairs);
  const std::size_t num_contexts = options.batch_size - num_pairs;

  nn::keep_freed_memory();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t step = start_step; step < options.steps; ++step) {
    metrics::ScopedTimer step_timer(h_step);
    if (f_crash.fire()) throw fault::CrashInjected{"core.pretrain.crash"};
    // Batches are a pure function of (seed, step): a resumed run draws the
    // same data the uninterrupted run would have from this step on. The
    // context indices come from a separate salted stream (batch_indices)
    // so the loader can compose batches ahead of the step loop; step_rng
    // then covers masking and pair draws only.
    const auto indices =
        data::batch_indices(options.seed, step, num_contexts, corpus_size);
    Rng rng = step_rng(options.seed, step);
    // Assemble the batch in two runs — contexts first, then segment pairs —
    // so pair rows are contiguous for the next-packet head.
    std::vector<Encoded> batch_items = fetch(step, indices);
    std::vector<std::vector<int>> batch_targets;
    std::vector<int> batch_next_labels;
    for (Encoded& item : batch_items) {
      batch_targets.push_back(apply_mlm_mask(item.ids, vocab_, rng,
                                             options.mask_prob, per_id_prob));
    }
    for (std::size_t b = 0; b < num_pairs; ++b) {
      const std::size_t at = rng.uniform(encoded_pairs.size());
      Encoded item = encoded_pairs[at];
      batch_targets.push_back(apply_mlm_mask(item.ids, vocab_, rng,
                                             options.mask_prob, per_id_prob));
      batch_items.push_back(std::move(item));
      batch_next_labels.push_back(pair_labels[at]);
    }

    const Batch batch = make_batch(batch_items);
    std::vector<int> flat_targets;
    flat_targets.reserve(batch.token_ids.size());
    for (const auto& t : batch_targets)
      flat_targets.insert(flat_targets.end(), t.begin(), t.end());

    const Tensor hidden = encoder_->forward(batch, /*train=*/true);
    Tensor loss = mlm_head_->masked_loss(hidden, flat_targets);

    if (num_pairs > 0) {
      // Next-packet head reads the pooled output of the pair rows only.
      const Tensor pooled =
          pooler_->forward(hidden, batch.batch_size, batch.seq_len);
      const Tensor pair_pooled = nn::slice_rows(
          pooled, num_contexts, num_contexts + num_pairs);
      const Tensor next_logits = next_segment_head_->forward(pair_pooled);
      loss = nn::add(loss, nn::cross_entropy(next_logits, batch_next_labels));
    }

    float loss_value = loss.item();
    if (const auto injected = fault::corrupt_float(f_loss))
      loss_value = *injected;
    if (!std::isfinite(loss_value)) {
      // A NaN/Inf loss would poison every parameter through backward();
      // drop the step instead of the run.
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
    if (options.verbose && step % 20 == 0)
      std::printf("  pretrain step %zu loss %.4f\n", step, loss_value);

    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (step + 1) % options.checkpoint_every == 0)
      nn::save_checkpoint_file(options.checkpoint_path, params, step + 1);
  }
  if (!options.checkpoint_path.empty())
    nn::save_checkpoint_file(options.checkpoint_path, params, options.steps);
  log.seconds = seconds_since(start);
  log.steps = options.steps - start_step;
  return log;
}

double NetFM::mlm_loss(const std::vector<std::vector<std::string>>& corpus,
                       std::size_t max_seq_len, std::uint64_t seed) const {
  if (corpus.empty()) return 0.0;
  const std::size_t seq_len =
      std::min(max_seq_len, encoder_->config().max_seq_len);
  Rng rng(seed);
  const nn::InferenceGuard guard;  // evaluation never needs the graph
  double total = 0.0;
  std::size_t batches = 0;
  constexpr std::size_t kBatch = 8;
  for (std::size_t at = 0; at < corpus.size(); at += kBatch) {
    // apply_mlm_mask never draws for padding, so the trimmed batch sees
    // the same RNG stream as a window-padded one.
    std::vector<Encoded> items = encode_to_longest(
        std::span(corpus).subspan(at, std::min(kBatch, corpus.size() - at)),
        vocab_, seq_len);
    std::vector<int> targets;
    for (Encoded& item : items) {
      const auto t = apply_mlm_mask(item.ids, vocab_, rng, 0.15);
      targets.insert(targets.end(), t.begin(), t.end());
    }
    const Batch batch = make_batch(items);
    const Tensor hidden = encoder_->forward(batch, /*train=*/false);
    total += mlm_head_->masked_loss(hidden, targets).item();
    ++batches;
  }
  return batches == 0 ? 0.0 : total / static_cast<double>(batches);
}

TrainLog NetFM::fine_tune(
    const std::vector<std::vector<std::string>>& contexts,
    std::span<const int> labels, std::size_t num_classes,
    const FineTuneOptions& options) {
  if (contexts.size() != labels.size() || contexts.empty())
    throw std::invalid_argument("NetFM::fine_tune: bad inputs");
  const std::size_t seq_len =
      std::min(options.max_seq_len, encoder_->config().max_seq_len);

  Rng head_rng(options.seed);
  classifier_ = std::make_unique<model::ClassificationHead>(
      encoder_->config().d_model, num_classes, head_rng);

  nn::ParameterList params;
  if (!options.freeze_encoder) {
    for (nn::Parameter& p : encoder_->parameters()) {
      if (options.freeze_token_embeddings && p.name == "embed.token")
        continue;
      params.push_back(std::move(p));
    }
  }
  pooler_->collect(params);
  classifier_->collect(params);

  std::vector<Encoded> encoded;
  encoded.reserve(contexts.size());
  for (const auto& tokens : contexts)
    encoded.push_back(encode_context(tokens, vocab_, seq_len));

  nn::Adam adam(options.lr);
  static const auto f_crash = fault::point("core.finetune.crash");
  static const auto f_loss = fault::point("core.finetune.loss");
  static const auto c_nonfinite =
      metrics::counter("core.finetune.nonfinite_skipped");

  TrainLog log;
  std::size_t start_epoch = 0;
  if (!options.checkpoint_path.empty()) {
    if (const auto at =
            nn::load_checkpoint_file(options.checkpoint_path, params)) {
      start_epoch = std::min(static_cast<std::size_t>(*at), options.epochs);
      log.resumed_from = start_epoch;
    }
  }

  nn::keep_freed_memory();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::size_t> order(encoded.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    if (f_crash.fire()) throw fault::CrashInjected{"core.finetune.crash"};
    // Shuffle and dropout are a pure function of (seed, epoch) so a resumed
    // run replays the uninterrupted run's batch order.
    Rng rng = step_rng(options.seed + 1, epoch);
    rng.shuffle(order);
    float epoch_loss = 0.0f;
    std::size_t batches = 0;
    for (std::size_t at = 0; at < order.size(); at += options.batch_size) {
      const std::size_t end =
          std::min(order.size(), at + options.batch_size);
      std::vector<Encoded> items;
      std::vector<int> batch_labels;
      for (std::size_t i = at; i < end; ++i) {
        Encoded item = encoded[order[i]];
        if (options.token_dropout > 0.0) {
          for (int& id : item.ids)
            if (id >= tok::Vocabulary::kNumSpecial &&
                rng.chance(options.token_dropout))
              id = tok::Vocabulary::kMask;
        }
        items.push_back(std::move(item));
        batch_labels.push_back(labels[order[i]]);
      }
      const Batch batch = make_batch(items);
      const Tensor hidden = encoder_->forward(batch, /*train=*/true);
      const Tensor pooled =
          pooler_->forward(hidden, batch.batch_size, batch.seq_len);
      const Tensor logits = classifier_->forward(pooled);
      Tensor loss = nn::cross_entropy(logits, batch_labels);

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
      adam.step(params);
      epoch_loss += loss_value;
      ++batches;
      ++log.steps;
      static const auto c_steps = metrics::counter("core.finetune.steps");
      c_steps.add();
    }
    log.losses.push_back(batches ? epoch_loss / batches : 0.0f);
    static const auto g_loss = metrics::gauge("core.finetune.loss", "nats");
    g_loss.set(batches ? epoch_loss / batches : 0.0f);

    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        (epoch + 1) % options.checkpoint_every == 0)
      nn::save_checkpoint_file(options.checkpoint_path, params, epoch + 1);
  }
  log.seconds = seconds_since(start);
  return log;
}

nn::Tensor NetFM::forward_pooled(const Batch& batch, bool train) const {
  const Tensor hidden = encoder_->forward(batch, train);
  return pooler_->forward(hidden, batch.batch_size, batch.seq_len);
}

std::vector<float> NetFM::predict_logits(
    const std::vector<std::string>& context, std::size_t max_seq_len) const {
  if (!classifier_)
    throw std::logic_error("NetFM::predict_logits: call fine_tune() first");
  const std::size_t seq_len =
      std::min(max_seq_len, encoder_->config().max_seq_len);
  const Batch batch =
      make_batch(encode_to_longest({&context, 1}, vocab_, seq_len));
  const nn::InferenceGuard guard;
  const Tensor logits =
      classifier_->forward(forward_pooled(batch, /*train=*/false));
  return {logits.data().begin(), logits.data().end()};
}

std::vector<float> NetFM::predict_proba(
    const std::vector<std::string>& context, std::size_t max_seq_len) const {
  const std::vector<float> raw = predict_logits(context, max_seq_len);
  const Tensor logits(nn::Shape{1, raw.size()}, raw);
  const Tensor probs = nn::softmax(logits);
  return {probs.data().begin(), probs.data().end()};
}

int NetFM::predict(const std::vector<std::string>& context,
                   std::size_t max_seq_len) const {
  const auto probs = predict_proba(context, max_seq_len);
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

std::vector<float> NetFM::embed(const std::vector<std::string>& context,
                                std::size_t max_seq_len) const {
  return std::move(embed_flows({&context, 1}, max_seq_len)[0]);
}

std::vector<std::vector<float>> NetFM::embed_flows(
    std::span<const std::vector<std::string>> contexts,
    std::size_t max_seq_len) const {
  if (contexts.empty()) return {};
  const std::size_t seq_len =
      std::min(max_seq_len, encoder_->config().max_seq_len);
  // The batch runs at its longest flow's length, not seq_len, and the
  // forward computes each sequence's real rows independently of its batch
  // neighbours and of trailing padding (padding is masked to an exact zero
  // attention weight) — so one batched pass produces the same floats as a
  // per-flow loop, and as a pass padded to seq_len.
  const Batch batch = make_batch(encode_to_longest(contexts, vocab_, seq_len));
  const nn::InferenceGuard guard;
  const Tensor hidden = encoder_->forward(batch, /*train=*/false);

  // Mean over each flow's real (non-padding) positions.
  const std::size_t d_model = encoder_->config().d_model;
  std::vector<std::vector<float>> out(contexts.size());
  for (std::size_t b = 0; b < contexts.size(); ++b) {
    std::vector<float>& row = out[b];
    row.assign(d_model, 0.0f);
    float count = 0.0f;
    const float* base = hidden.data().data() + b * batch.seq_len * d_model;
    for (std::size_t t = 0; t < batch.seq_len; ++t) {
      if (batch.attention_mask[b * batch.seq_len + t] == 0.0f) continue;
      for (std::size_t d = 0; d < d_model; ++d) row[d] += base[t * d_model + d];
      count += 1.0f;
    }
    if (count > 0.0f)
      for (float& v : row) v /= count;
  }
  return out;
}

std::vector<float> NetFM::token_vector(std::string_view token) const {
  const int id = vocab_.id(token);
  const std::size_t d_model = encoder_->config().d_model;
  const auto table = encoder_->token_embeddings().data();
  const auto row = static_cast<std::size_t>(id) * d_model;
  return {table.begin() + row, table.begin() + row + d_model};
}

std::vector<std::pair<std::string, double>> NetFM::nearest_tokens(
    std::string_view token, std::size_t k) const {
  const std::vector<float> query = token_vector(token);
  const int self_id = vocab_.id(token);
  std::vector<std::pair<std::string, double>> scored;
  for (std::size_t id = tok::Vocabulary::kNumSpecial; id < vocab_.size();
       ++id) {
    if (static_cast<int>(id) == self_id) continue;
    const std::vector<float> candidate =
        token_vector(vocab_.token(static_cast<int>(id)));
    scored.emplace_back(vocab_.token(static_cast<int>(id)),
                        cosine(query, candidate));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

std::vector<std::pair<std::string, double>> NetFM::analogy(
    std::string_view a, std::string_view b, std::string_view c,
    std::size_t k) const {
  const std::vector<float> va = token_vector(a);
  const std::vector<float> vb = token_vector(b);
  const std::vector<float> vc = token_vector(c);
  std::vector<float> query(va.size());
  for (std::size_t i = 0; i < query.size(); ++i)
    query[i] = vb[i] - va[i] + vc[i];

  std::vector<std::pair<std::string, double>> scored;
  for (std::size_t id = tok::Vocabulary::kNumSpecial; id < vocab_.size();
       ++id) {
    const std::string& candidate = vocab_.token(static_cast<int>(id));
    if (candidate == a || candidate == b || candidate == c) continue;
    scored.emplace_back(candidate, cosine(query, token_vector(candidate)));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& x, const auto& y) { return x.second > y.second; });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

nn::ParameterList NetFM::parameters() const {
  nn::ParameterList params = encoder_->parameters();
  mlm_head_->collect(params);
  pooler_->collect(params);
  next_segment_head_->collect(params);
  if (classifier_) classifier_->collect(params);
  return params;
}

bool NetFM::save(const std::string& path) const {
  return nn::save_parameters_file(path, parameters());
}

bool NetFM::load(const std::string& path) {
  nn::ParameterList params = parameters();
  if (!nn::load_parameters_file(path, params)) return false;
  prepack();  // pack weight panels against the loaded weights
  return true;
}

void NetFM::prepack() const {
  encoder_->prepack();
  mlm_head_->prepack();
  pooler_->prepack();
  next_segment_head_->prepack();
  if (classifier_) classifier_->prepack();
}

}  // namespace netfm::core
