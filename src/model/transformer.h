// BERT-style transformer encoder built on the netfm::nn autograd engine.
//
// Forward is batched: a batch of B sequences of length T flows through the
// network as rank-2 [B*T, D] activations, with attention computed as
// batched rank-3 [B*H, T, *] matmuls (head split/merge via nn::swap_axes).
// A forward keeps no state between calls: its key mask is built per call,
// and attention maps are returned only by attentions().
// Post-LN residual blocks, learned positions, GELU FFN — the original BERT
// recipe, scaled down.
#pragma once

#include <memory>
#include <span>

#include "model/config.h"
#include "model/kv_pool.h"
#include "nn/optim.h"
#include "nn/packed.h"
#include "nn/tensor.h"

namespace netfm::model {

/// A batch of same-length token sequences plus masks.
struct Batch {
  std::size_t batch_size = 0;
  std::size_t seq_len = 0;
  std::vector<int> token_ids;    // B*T, row-major
  std::vector<int> segment_ids;  // B*T; all zero if unused
  std::vector<float> attention_mask;  // B*T; 1 = real token, 0 = padding

  /// Single-sequence convenience (B=1, no padding).
  static Batch single(std::span<const int> ids);
};

/// Dense affine layer (weight [in, out], bias [out]).
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, Rng& rng, const std::string& name);

  /// In inference mode, runs on the layer's packed weight panels
  /// (nn/packed.h); otherwise the fp32 autograd matmul. Both routes give
  /// the same bits.
  nn::Tensor forward(const nn::Tensor& x) const;
  void collect(nn::ParameterList& out) const;

  /// Eagerly packs the weight panels for the current weights.
  void prepack() const;

 private:
  nn::Parameter weight_, bias_;
  mutable nn::PackedWeights packed_;
};

/// LayerNorm with learned gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  LayerNorm(std::size_t dim, const std::string& name);

  nn::Tensor forward(const nn::Tensor& x) const;
  void collect(nn::ParameterList& out) const;

 private:
  nn::Parameter gain_, bias_;
};

/// One encoder block: self-attention + FFN, each with residual + LayerNorm.
class EncoderBlock {
 public:
  EncoderBlock(const TransformerConfig& config, Rng& rng,
               const std::string& prefix);

  /// x is [B*T, D]; returns same shape. `mask` is the batch's key mask,
  /// built once per forward by the encoder and shared across layers.
  /// `train` enables dropout. When `attention` is non-null it receives
  /// this layer's probabilities, [B*H, T, T].
  nn::Tensor forward(const nn::Tensor& x, std::size_t seq_len,
                     const nn::KeyMask& mask, bool train, Rng& rng,
                     nn::Tensor* attention = nullptr) const;

  /// Batched one-token decode step over B independent sessions: x is
  /// [B, D] (row b is session b's token at position caches[b]->length).
  /// Appends each row's K/V into its session's current KV block and
  /// attends over that session's block table. Row b is bit-identical to
  /// the corresponding row of the full forward over session b's prefix
  /// (see the implementation notes). Callers must have reserved each
  /// cache's block for this step already (see
  /// TransformerEncoder::forward_incremental_batch).
  nn::Tensor forward_incremental_batch(const nn::Tensor& x,
                                       std::span<PagedKvCache* const> caches,
                                       std::size_t layer) const;

  void collect(nn::ParameterList& out) const;

  /// Eagerly packs every projection's weight panels.
  void prepack() const;

 private:
  const TransformerConfig* config_;
  Linear query_, key_, value_, output_;
  Linear ffn_in_, ffn_out_;
  LayerNorm norm_attn_, norm_ffn_;
};

/// The full encoder: embeddings -> N blocks.
class TransformerEncoder {
 public:
  explicit TransformerEncoder(const TransformerConfig& config);

  /// Returns contextual embeddings [B*T, D].
  nn::Tensor forward(const Batch& batch, bool train = false) const;

  /// A shared paged KV block pool sized for this encoder. `num_blocks` 0
  /// means exactly one full sequence (ceil(max_seq_len / kKvBlockTokens)).
  std::shared_ptr<KvBlockPool> make_block_pool(std::size_t num_blocks = 0) const;

  /// Blocks one max_seq_len sequence needs (kKvBlockTokens per block).
  std::size_t blocks_per_sequence() const noexcept;

  /// An empty paged cache drawing from `pool` (geometry must match this
  /// encoder). The no-arg overload builds a private single-sequence pool
  /// that can never run out of blocks before max_seq_len.
  PagedKvCache make_paged_cache(std::shared_ptr<KvBlockPool> pool) const;
  PagedKvCache make_paged_cache() const;

  /// One lockstep decode step across B sessions: token_ids[b] is fed to
  /// caches[b] at its current length; returns the B contextual embeddings
  /// as [B, D]. Row b is bit-identical to the last row of forward() over
  /// that session's prefix, at O(T) cost per step instead of O(T^2), and
  /// does not depend on the other sessions in the batch. Requires a causal
  /// config; run under nn::InferenceGuard (no dropout). Throws
  /// ContextFullError when a session is at max_seq_len or
  /// (pool_exhausted()) the shared pool has no free block. Blocks needed
  /// by this step are reserved up front across all sessions — on
  /// exhaustion the reservation is rolled back with every cache
  /// unmodified, so the step can be retried after blocks are freed.
  nn::Tensor forward_incremental_batch(std::span<const int> token_ids,
                                       std::span<PagedKvCache* const> caches) const;

  const TransformerConfig& config() const noexcept { return config_; }
  nn::ParameterList parameters() const;

  /// Eagerly packs all layers' weight panels so the first inference call
  /// pays no pack cost.
  void prepack() const;

  /// Token embedding table [V, D] (tied into the MLM decoder).
  const nn::Tensor& token_embeddings() const noexcept {
    return token_embed_.tensor;
  }

  /// Per-layer attention probabilities ([B*H, T, T] each) of a no-grad
  /// forward over `batch`, for interpretability (attention rollout). The
  /// same maps forward() computes, bit for bit.
  std::vector<nn::Tensor> attentions(const Batch& batch) const;

 private:
  /// forward(), also handing each layer's probabilities to `attentions`
  /// when it is non-null.
  nn::Tensor run(const Batch& batch, bool train,
                 std::vector<nn::Tensor>* attentions) const;

  TransformerConfig config_;
  mutable Rng rng_;  // dropout stream, drawn only when train is set
  nn::Parameter token_embed_, position_embed_, segment_embed_;
  LayerNorm embed_norm_;
  std::vector<std::unique_ptr<EncoderBlock>> blocks_;
};

}  // namespace netfm::model
