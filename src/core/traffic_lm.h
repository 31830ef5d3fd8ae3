// TrafficLM — a GPT-style autoregressive model over network tokens.
//
// The paper's §4.2 proposes synthetic trace generators as the way around
// privacy-locked network data, and §3.1 lists "generator" tasks among the
// downstream uses. TrafficLM closes that loop inside this library: train
// it on tokenized flows from a private capture, then sample synthetic
// token sequences that preserve the corpus statistics — usable as a
// shareable pretraining corpus (experiment E12 quantifies how much
// downstream utility such synthetic data retains).
#pragma once

#include <memory>

#include "core/netfm.h"  // TrainLog, data encoding

namespace netfm::core {

struct LmTrainOptions {
  std::size_t steps = 300;
  std::size_t batch_size = 8;
  std::size_t max_seq_len = 48;
  float peak_lr = 1e-3f;
  std::size_t warmup_steps = 20;
  std::uint64_t seed = 77;
  /// Periodic atomic checkpointing + auto-resume, as in PretrainOptions:
  /// batches derive per-step from `seed`, so a resumed run replays the
  /// uninterrupted run's data order.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 25;
};

struct SampleOptions {
  std::size_t max_tokens = 46;   // excludes the [CLS] start token
  double temperature = 1.0;      // <1 sharpens, >1 flattens
  std::size_t top_k = 0;         // 0 = full distribution
};

class LmDecoder;

class TrafficLM {
 public:
  /// Builds an untrained causal LM over the vocabulary.
  TrafficLM(tok::Vocabulary vocab, model::TransformerConfig config);

  const tok::Vocabulary& vocab() const noexcept { return vocab_; }

  /// Next-token training over token-string contexts ([CLS] acts as BOS,
  /// [SEP] as EOS). Returns per-step losses.
  TrainLog train(const std::vector<std::vector<std::string>>& corpus,
                 const LmTrainOptions& options);

  /// Streaming training over a memory-mapped sharded corpus through a
  /// prefetching data::StreamingLoader. Loss trajectory is bitwise equal
  /// to the in-RAM overload on the same corpus contents and options.
  TrainLog train(const data::CorpusReader& corpus,
                 const LmTrainOptions& options);

  /// Average next-token cross-entropy on a corpus (exp() = perplexity).
  double loss(const std::vector<std::vector<std::string>>& corpus,
              std::size_t max_seq_len) const;

  /// Samples one synthetic token sequence (without [CLS]/[SEP] framing):
  /// sample_batch over one stream with a private decoder.
  std::vector<std::string> sample(const SampleOptions& options,
                                  Rng& rng) const;

  /// Samples a whole synthetic corpus.
  std::vector<std::vector<std::string>> sample_corpus(
      std::size_t count, const SampleOptions& options, Rng& rng) const;

  /// Mean next-token negative log-likelihood of one token sequence
  /// (framed [CLS] ... [SEP], truncated to max_seq_len): score_batch over
  /// one sequence with a private decoder. KV-cached, so a sequence of
  /// length T costs O(T^2) total work instead of the O(T^3) of scoring
  /// each prefix from scratch; bitwise equal to the same arithmetic over
  /// the uncached next_logits() oracle.
  double score(const std::vector<std::string>& tokens) const;

  /// score() for many sequences at once, one decoder per sequence (all on
  /// this model, each reset on entry), run as lockstep batched decode
  /// steps — one padded forward per step across every still-active
  /// sequence via LmDecoder::advance_batch. Per-sequence math is untouched
  /// by batching, so element i is bitwise equal to score(sequences[i]),
  /// the B=1 case, and a pooled decoder scores exactly as a fresh one.
  std::vector<double> score_batch(
      std::span<const std::vector<std::string>> sequences,
      std::span<LmDecoder* const> decoders) const;

  /// sample() for many streams at once (options[i]/rngs[i]/decoders[i]
  /// drive stream i; each decoder is reset on entry), decoded in lockstep
  /// batched steps. Each stream draws from its own Rng with the per-step
  /// sampling math unchanged, so element i is bitwise equal to
  /// sample(options[i], *rngs[i]), the B=1 case. Streams drop out of the
  /// batch as they emit [SEP] or hit their token limit.
  std::vector<std::vector<std::string>> sample_batch(
      std::span<const SampleOptions> options, std::span<Rng* const> rngs,
      std::span<LmDecoder* const> decoders) const;

  /// A shared paged KV block pool for this model: `num_blocks` 0 means one
  /// full sequence. Hand it to the pool-taking LmDecoder constructor so
  /// many decoders share one reservation.
  std::shared_ptr<model::KvBlockPool> make_kv_pool(
      std::size_t num_blocks = 0) const;

  /// KV blocks one max_seq_len sequence needs (sizing unit for pools).
  std::size_t kv_blocks_per_sequence() const noexcept;

  nn::ParameterList parameters() const;

  /// Eagerly packs all inference weight panels so the first inference call
  /// pays no pack cost.
  void prepack() const;

  /// Logits for the next token after `ids` (ids start with [CLS]):
  /// next_logits_batch over one sequence. Re-runs the full forward every
  /// call — the uncached reference path that LmDecoder is tested and
  /// benchmarked against. Throws invalid_argument on empty input.
  std::vector<float> next_logits(std::span<const int> ids) const;

  /// next_logits() for many sequences at once: pads to the longest
  /// sequence, runs one batched no-grad forward, and applies the LM head
  /// only to each sequence's last real position. Each sequence's rows are
  /// computed independently of its padded neighbours, so element i is
  /// bitwise equal to next_logits(sequences[i]), the B=1 case — the padded
  /// forward the serving scheduler batches compatible requests into.
  std::vector<std::vector<float>> next_logits_batch(
      std::span<const std::vector<int>> sequences) const;

 private:
  friend class LmDecoder;

  /// Shared step loop behind both train overloads; `fetch(step, indices)`
  /// returns the encoded batch rows in data::batch_indices order.
  TrainLog train_impl(std::size_t corpus_size,
                      const std::function<std::vector<Encoded>(
                          std::size_t, std::span<const std::size_t>)>& fetch,
                      const LmTrainOptions& options);

  tok::Vocabulary vocab_;
  std::unique_ptr<model::TransformerEncoder> encoder_;
  std::unique_ptr<model::MlmHead> head_;  // tied decoder reused as LM head
};

/// Incremental decoder: feeds tokens one at a time through the paged
/// KV-cached fast path (model::PagedKvCache), so appending a token to a
/// T-token prefix costs O(T) instead of the O(T^2) full re-forward of
/// TrafficLM::next_logits — with bit-identical logits. One decoder per
/// generation stream; reset() (or a fresh decoder) starts a new stream and
/// is also required after any weight mutation. Not thread-safe, but
/// decoders on *distinct* caches may decode concurrently even when they
/// share one block pool.
class LmDecoder {
 public:
  /// Decoder with a private block pool sized for one full sequence — the
  /// drop-in equivalent of the old dense-cache decoder (it can always
  /// reach max_seq_len).
  explicit LmDecoder(const TrafficLM& lm);

  /// Decoder drawing KV blocks from a shared pool (from
  /// TrafficLM::make_kv_pool). advance() throws
  /// model::ContextFullError{pool_exhausted()=true} when the pool runs
  /// dry, leaving the cache untouched so the step can be retried once
  /// other decoders have returned blocks. The destructor returns the
  /// decoder's blocks to the pool.
  LmDecoder(const TrafficLM& lm, std::shared_ptr<model::KvBlockPool> pool);

  /// Feeds `token_id` at position cached_tokens() and returns the logits
  /// for the *next* token: advance_batch over this decoder alone.
  std::vector<float> advance(int token_id);

  /// One lockstep decode step across many decoders (all on one TrafficLM,
  /// all distinct): feeds token_ids[i] to decoders[i] and returns each
  /// next-token logits row. Row i is bitwise equal to
  /// decoders[i]->advance(token_ids[i]), the B=1 case — one padded forward
  /// replaces n serial ones. Observes `core.decode.crash` once per step;
  /// after an injected crash, reset() restores a clean (cold-cache)
  /// state. On ContextFullError no decoder has advanced.
  static std::vector<std::vector<float>> advance_batch(
      std::span<LmDecoder* const> decoders, std::span<const int> token_ids);

  /// Forgets the cached prefix; the next advance() starts a new sequence.
  /// Held KV blocks are kept for reuse until the decoder is destroyed.
  void reset() noexcept { cache_.reset(); }

  std::size_t cached_tokens() const noexcept { return cache_.length; }
  std::size_t held_kv_blocks() const noexcept { return cache_.held_blocks(); }

 private:
  const TrafficLM* lm_;
  model::PagedKvCache cache_;
};

}  // namespace netfm::core
