// NetFM — the network foundation model this library exists to provide.
//
// Lifecycle mirrors the paper's pipeline:
//   1. pretrain() on an unlabeled token corpus (masked-token modeling,
//      optionally + next-packet prediction),
//   2. fine_tune() a small labeled set for a downstream task, or
//      embed() frozen features for external classifiers,
//   3. query the learned representation space: nearest_tokens(),
//      analogy() (the NetBERT/NorBERT probes of §3.4).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/data.h"
#include "model/gru.h"
#include "model/heads.h"
#include "nn/serialize.h"

namespace netfm::data {
class CorpusReader;
}

namespace netfm::core {

/// Which pretraining objectives to optimize (§4.1.4).
enum class PretrainTask {
  kMlmOnly,            // masked-token modeling
  kMlmAndNextPacket,   // + next-packet prediction on segment pairs
};

struct PretrainOptions {
  std::size_t steps = 200;
  std::size_t batch_size = 8;
  std::size_t max_seq_len = 48;
  double mask_prob = 0.15;
  float peak_lr = 1e-3f;
  std::size_t warmup_steps = 20;
  PretrainTask task = PretrainTask::kMlmOnly;
  /// Fraction of each batch drawn from segment pairs when the task
  /// includes next-packet prediction.
  double pair_fraction = 0.5;
  /// Field-targeted masking (§4.1.4): tokens whose string starts with one
  /// of these prefixes are masked with `focus_prob` instead of
  /// `mask_prob`, forcing the model to predict those protocol fields from
  /// their context. Empty = uniform BERT masking.
  std::vector<std::string> focus_prefixes;
  double focus_prob = 0.5;
  std::uint64_t seed = 99;
  bool verbose = false;
  /// When `checkpoint_path` is non-empty, a checkpoint (parameters + step)
  /// is written atomically every `checkpoint_every` steps, and a valid
  /// checkpoint found at entry resumes training from its step. Batches are
  /// derived per-step from `seed`, so a resumed run replays the same data
  /// order the uninterrupted run would have seen.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 25;
};

struct FineTuneOptions {
  std::size_t epochs = 8;
  std::size_t batch_size = 8;
  std::size_t max_seq_len = 48;
  float lr = 5e-4f;
  bool freeze_encoder = false;
  /// Keeps the token-embedding table at its pretrained values while the
  /// rest of the encoder adapts. Preserves the pretrained geometry of
  /// tokens that are absent from the fine-tuning set (the cross-site
  /// transfer mechanism of E1).
  bool freeze_token_embeddings = false;
  /// Replaces each non-special input token with [MASK] with this
  /// probability during fine-tuning (training batches only). Prevents the
  /// classifier from keying on a single shortcut token and forces it onto
  /// redundant features — the robust-adaptation recipe §4.1.4 invites.
  double token_dropout = 0.0;
  std::uint64_t seed = 101;
  /// Per-epoch atomic checkpointing + auto-resume (see PretrainOptions;
  /// here `checkpoint_every` counts epochs).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
};

struct TrainLog {
  std::vector<float> losses;  // per logging interval
  double seconds = 0.0;
  std::size_t steps = 0;
  /// Step/epoch a checkpoint restore skipped to (0 = started fresh).
  std::size_t resumed_from = 0;
  /// Optimizer steps skipped because the loss or gradient norm went
  /// non-finite (NaN/Inf detection in the hardened training loops).
  std::size_t nonfinite_skipped = 0;
};

class NetFM {
 public:
  /// Builds an untrained model over the given vocabulary.
  NetFM(tok::Vocabulary vocab, model::TransformerConfig config);

  const tok::Vocabulary& vocab() const noexcept { return vocab_; }
  const model::TransformerConfig& config() const noexcept {
    return encoder_->config();
  }
  const model::TransformerEncoder& encoder() const noexcept {
    return *encoder_;
  }

  /// Self-supervised pretraining over token-string contexts (+ optional
  /// segment pairs for next-packet prediction).
  TrainLog pretrain(const std::vector<std::vector<std::string>>& corpus,
                    const std::vector<ctx::SegmentPair>& pairs,
                    const PretrainOptions& options);

  /// Streaming pretraining over a memory-mapped sharded corpus. Batches
  /// come through a prefetching data::StreamingLoader (NETFM_DATA_PREFETCH
  /// controls the window), so the corpus never has to fit in RAM. Batch
  /// composition and every RNG draw match the in-RAM overload exactly —
  /// the two produce bitwise-identical loss trajectories for the same
  /// (corpus contents, options). Segment pairs stay in-RAM (they are a
  /// small sampled set, not the bulk corpus).
  TrainLog pretrain(const data::CorpusReader& corpus,
                    const std::vector<ctx::SegmentPair>& pairs,
                    const PretrainOptions& options);

  /// Average masked-token cross-entropy (lower = better) on a held-out
  /// corpus; exp() of it is the MLM perplexity.
  double mlm_loss(const std::vector<std::vector<std::string>>& corpus,
                  std::size_t max_seq_len, std::uint64_t seed = 7) const;

  /// Supervised fine-tuning for sequence classification. Replaces any
  /// previous head. Labels are 0..num_classes-1.
  TrainLog fine_tune(const std::vector<std::vector<std::string>>& contexts,
                     std::span<const int> labels, std::size_t num_classes,
                     const FineTuneOptions& options);

  /// Class probabilities from the fine-tuned head (requires fine_tune()).
  std::vector<float> predict_proba(const std::vector<std::string>& context,
                                   std::size_t max_seq_len) const;
  /// Raw classifier logits (requires fine_tune()).
  std::vector<float> predict_logits(const std::vector<std::string>& context,
                                    std::size_t max_seq_len) const;
  int predict(const std::vector<std::string>& context,
              std::size_t max_seq_len) const;

  /// Frozen pooled representation of a context (mean over real tokens of
  /// the final hidden states): embed_flows over one context. Usable with
  /// or without fine-tuning.
  std::vector<float> embed(const std::vector<std::string>& context,
                           std::size_t max_seq_len) const;

  /// embed() for many flows at once: pads every context to the longest
  /// one's length (encode_to_longest, capped at max_seq_len) and runs them
  /// through one batched no-grad forward instead of one forward per flow.
  /// Each row is computed independently of its batch neighbours and of
  /// trailing padding, so element i is bitwise equal to
  /// embed(contexts[i]), the B=1 case.
  std::vector<std::vector<float>> embed_flows(
      std::span<const std::vector<std::string>> contexts,
      std::size_t max_seq_len) const;

  /// Static (context-independent) embedding of one vocabulary token: its
  /// row of the input embedding table.
  std::vector<float> token_vector(std::string_view token) const;

  /// k nearest vocabulary tokens by cosine similarity of token_vector().
  /// Specials and [UNK] are excluded.
  std::vector<std::pair<std::string, double>> nearest_tokens(
      std::string_view token, std::size_t k) const;

  /// Analogy query: returns tokens nearest to (b - a + c), excluding the
  /// inputs — "a is to b as c is to ?".
  std::vector<std::pair<std::string, double>> analogy(
      std::string_view a, std::string_view b, std::string_view c,
      std::size_t k) const;

  /// All trainable parameters (encoder + heads), for checkpointing.
  nn::ParameterList parameters() const;

  bool save(const std::string& path) const;
  /// Loads parameters and eagerly packs the inference weight panels for the
  /// freshly loaded weights.
  bool load(const std::string& path);

  /// Eagerly packs all inference weight panels (nn/packed.h).
  void prepack() const;

 private:
  /// Shared step loop behind both pretrain overloads. `fetch(step,
  /// indices)` returns the encoded context rows for that step, in the
  /// order data::batch_indices names them; pairs ride along in RAM.
  TrainLog pretrain_impl(
      std::size_t corpus_size,
      const std::function<std::vector<Encoded>(
          std::size_t, std::span<const std::size_t>)>& fetch,
      const std::vector<ctx::SegmentPair>& pairs,
      const PretrainOptions& options);

  nn::Tensor forward_pooled(const model::Batch& batch, bool train) const;

  tok::Vocabulary vocab_;
  std::unique_ptr<model::TransformerEncoder> encoder_;
  std::unique_ptr<model::MlmHead> mlm_head_;
  std::unique_ptr<model::Pooler> pooler_;
  std::unique_ptr<model::NextSegmentHead> next_segment_head_;
  std::unique_ptr<model::ClassificationHead> classifier_;
  mutable Rng rng_;
};

}  // namespace netfm::core
