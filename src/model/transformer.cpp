#include "model/transformer.h"

#include <cmath>
#include <stdexcept>

#include "common/metrics.h"
#include "nn/kernels/kernels.h"
#include "nn/workspace.h"

namespace netfm::model {

using nn::Tensor;

Batch Batch::single(std::span<const int> ids) {
  Batch b;
  b.batch_size = 1;
  b.seq_len = ids.size();
  b.token_ids.assign(ids.begin(), ids.end());
  b.segment_ids.assign(ids.size(), 0);
  b.attention_mask.assign(ids.size(), 1.0f);
  return b;
}

Linear::Linear(std::size_t in, std::size_t out, Rng& rng,
               const std::string& name) {
  // Xavier-uniform-equivalent gaussian init.
  const float stddev = std::sqrt(2.0f / static_cast<float>(in + out));
  weight_ = {name + ".weight", Tensor::randn({in, out}, rng, stddev)};
  bias_ = {name + ".bias", Tensor({out}, true)};
}

Tensor Linear::forward(const Tensor& x) const {
  if (nn::inference_mode()) {
    // Weight [in, out] row-major: element (k, j) at w[k * out + j].
    const Tensor& w = weight_.tensor;
    return nn::packed_linear(x, w.data().data(), w.dim(0), w.dim(1),
                             /*rs=*/w.dim(1), /*cs=*/1, bias_.tensor,
                             packed_);
  }
  return nn::linear(x, weight_.tensor, bias_.tensor);
}

void Linear::collect(nn::ParameterList& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

void Linear::prepack() const {
  const Tensor& w = weight_.tensor;
  if (!w.defined()) return;
  nn::prepack(w.data().data(), w.dim(0), w.dim(1), /*rs=*/w.dim(1),
              /*cs=*/1, packed_);
}

LayerNorm::LayerNorm(std::size_t dim, const std::string& name) {
  gain_ = {name + ".gain", Tensor::full({dim}, 1.0f)};
  gain_.tensor.set_requires_grad(true);
  bias_ = {name + ".bias", Tensor({dim}, true)};
}

Tensor LayerNorm::forward(const Tensor& x) const {
  return nn::layer_norm(x, gain_.tensor, bias_.tensor);
}

void LayerNorm::collect(nn::ParameterList& out) const {
  out.push_back(gain_);
  out.push_back(bias_);
}

EncoderBlock::EncoderBlock(const TransformerConfig& config, Rng& rng,
                           const std::string& prefix)
    : config_(&config),
      query_(config.d_model, config.d_model, rng, prefix + ".q"),
      key_(config.d_model, config.d_model, rng, prefix + ".k"),
      value_(config.d_model, config.d_model, rng, prefix + ".v"),
      output_(config.d_model, config.d_model, rng, prefix + ".o"),
      ffn_in_(config.d_model, config.d_ffn, rng, prefix + ".ffn_in"),
      ffn_out_(config.d_ffn, config.d_model, rng, prefix + ".ffn_out"),
      norm_attn_(config.d_model, prefix + ".norm_attn"),
      norm_ffn_(config.d_model, prefix + ".norm_ffn") {}

Tensor EncoderBlock::forward(const Tensor& x, std::size_t seq_len,
                             const nn::KeyMask& mask, bool train, Rng& rng,
                             Tensor* attention) const {
  const TransformerConfig& cfg = *config_;
  const std::size_t heads = cfg.num_heads, dk = cfg.head_dim();
  const std::size_t bsz = seq_len == 0 ? 0 : x.dim(0) / seq_len;

  // Head split: [B*T, D] viewed as (B, T, H, dk) -> [B*H, T, dk].
  const auto split = [&](const Tensor& t) {
    return nn::swap_axes(t, {bsz, seq_len, heads, dk},
                         {bsz * heads, seq_len, dk});
  };
  const Tensor q = split(query_.forward(x));
  const Tensor k = split(key_.forward(x));
  const Tensor v = split(value_.forward(x));

  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor attn = nn::attention_probs(q, k, mask, inv_sqrt_dk);
  if (attention != nullptr) *attention = attn;
  attn = nn::dropout(attn, cfg.dropout, train, rng);

  // Head merge: [B*H, T, dk] viewed as (B, H, T, dk) -> [B*T, D].
  const Tensor merged =
      nn::swap_axes(nn::matmul(attn, v), {bsz, heads, seq_len, dk},
                    {bsz * seq_len, cfg.d_model});
  Tensor attended = output_.forward(merged);
  attended = nn::dropout(attended, cfg.dropout, train, rng);
  const Tensor x1 = norm_attn_.forward(nn::add(x, attended));

  Tensor ffn = ffn_out_.forward(nn::gelu(ffn_in_.forward(x1)));
  ffn = nn::dropout(ffn, cfg.dropout, train, rng);
  return norm_ffn_.forward(nn::add(x1, ffn));
}

Tensor EncoderBlock::forward_incremental_batch(
    const Tensor& x, std::span<PagedKvCache* const> caches,
    std::size_t layer) const {
  // Row b of this step is bit-identical to the full forward's row for
  // session b's token. That rests on three facts:
  //  - Linear/LayerNorm/GELU compute each row independently of how many
  //    rows share the tensor, and the GEMM reduces K in a fixed serial
  //    order per output element regardless of blocking.
  //  - The per-(b, h) attention below reduces over the same index ranges
  //    in the same order as attention_probs and matmul(attn, v), with the
  //    j-th key and value looked up through the block table.
  //  - In the full forward, attention_probs leaves causally hidden keys
  //    out of the max and the sum and writes them as exactly 0.0f, and a
  //    0.0f weight adds +0.0f to the context — so attending over only the
  //    [0, t] prefix is bit-identical to the full-row attention.
  const TransformerConfig& cfg = *config_;
  const std::size_t heads = cfg.num_heads;
  const std::size_t dk = cfg.head_dim();
  const std::size_t d_model = cfg.d_model;
  const std::size_t bsz = caches.size();
  constexpr std::size_t bt = kKvBlockTokens;

  const Tensor q = query_.forward(x);  // [B, D]
  const Tensor k = key_.forward(x);
  const Tensor v = value_.forward(x);

  // Append each session's K column and V row into its current block. A
  // block's K run is zeroed when its first token is written, so the
  // full-width score over a partly filled block reads only defined values
  // (slots past t are computed and never read).
  const float* kp = k.data().data();
  const float* vp = v.data().data();
  for (std::size_t b = 0; b < bsz; ++b) {
    PagedKvCache& cache = *caches[b];
    KvBlockPool& pool = *cache.pool;
    const std::size_t t = cache.length;
    const std::uint32_t blk = cache.blocks[t / bt];
    const std::size_t off = t % bt;
    for (std::size_t h = 0; h < heads; ++h) {
      float* krun = pool.key_head(layer, blk, h);
      if (off == 0) std::fill_n(krun, dk * bt, 0.0f);
      const float* krow = kp + b * d_model + h * dk;
      for (std::size_t c = 0; c < dk; ++c) krun[c * bt + off] = krow[c];
      std::copy_n(vp + b * d_model + h * dk, dk,
                  pool.value_head(layer, blk, h) + off * dk);
    }
  }

  Tensor context = Tensor::empty({bsz, heads * dk});
  float* op = context.data().data();
  const float* qp = q.data().data();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  std::size_t max_slots = 0;  // key slots in the widest block table
  for (const PagedKvCache* cache : caches)
    max_slots =
        std::max(max_slots, kv_blocks_for(cache->length + 1, bt) * bt);
  std::span<float> s = nn::Workspace::current().scratch(max_slots);
  const nn::kernels::KernelTable& kt = nn::kernels::table();
  std::vector<const float*> runs;
  for (std::size_t b = 0; b < bsz; ++b) {
    const PagedKvCache& cache = *caches[b];
    const KvBlockPool& pool = *cache.pool;
    const std::size_t t = cache.length;
    const std::size_t n_runs = kv_blocks_for(t + 1, bt);
    for (std::size_t h = 0; h < heads; ++h) {
      const float* qh = qp + b * d_model + h * dk;
      // Scores block by block: over a transposed K run, weighted_sum
      // gives s[j] = q · k_j with one lane per key and dk reduced serially
      // from 0.0f, one multiply and one add per step — the per-output
      // sequence of attention_probs' GEMM. Then scale, as it does.
      for (std::size_t r = 0; r < n_runs; ++r)
        kt.weighted_sum(qh, pool.key_head(layer, cache.blocks[r], h), dk, bt,
                        s.data() + r * bt);
      for (std::size_t j = 0; j <= t; ++j) s[j] *= scale;
      // Softmax over [0, t] — the same values, in the same order, as
      // attention_probs' row loop over the visible keys.
      float maxv = s[0];
      for (std::size_t j = 1; j <= t; ++j) maxv = std::max(maxv, s[j]);
      kt.exp_shift(s.data(), maxv, t + 1, s.data());
      float total = 0.0f;
      for (std::size_t j = 0; j <= t; ++j) total += s[j];
      for (std::size_t j = 0; j <= t; ++j) s[j] /= total;
      // context = attn · V accumulated run-by-run across the block table
      // on the dispatched backend — bit-identical to one contiguous
      // weighted_sum (see paged_weighted_sum).
      runs.clear();
      for (std::size_t r = 0; r < n_runs; ++r)
        runs.push_back(pool.value_head(layer, cache.blocks[r], h));
      nn::kernels::paged_weighted_sum(kt, s.data(), runs.data(), n_runs, bt,
                                      t + 1, dk, op + b * heads * dk + h * dk);
    }
  }

  const Tensor attended = output_.forward(context);
  const Tensor x1 = norm_attn_.forward(nn::add(x, attended));
  const Tensor ffn = ffn_out_.forward(nn::gelu(ffn_in_.forward(x1)));
  return norm_ffn_.forward(nn::add(x1, ffn));
}

void EncoderBlock::collect(nn::ParameterList& out) const {
  query_.collect(out);
  key_.collect(out);
  value_.collect(out);
  output_.collect(out);
  ffn_in_.collect(out);
  ffn_out_.collect(out);
  norm_attn_.collect(out);
  norm_ffn_.collect(out);
}

void EncoderBlock::prepack() const {
  query_.prepack();
  key_.prepack();
  value_.prepack();
  output_.prepack();
  ffn_in_.prepack();
  ffn_out_.prepack();
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config)
    : config_(config), rng_(config.seed) {
  Rng init_rng(config.seed);
  const float stddev = 0.02f;
  token_embed_ = {"embed.token",
                  Tensor::randn({config.vocab_size, config.d_model}, init_rng,
                                stddev)};
  position_embed_ = {"embed.position",
                     Tensor::randn({config.max_seq_len, config.d_model},
                                   init_rng, stddev)};
  segment_embed_ = {"embed.segment",
                    Tensor::randn({config.num_segments, config.d_model},
                                  init_rng, stddev)};
  embed_norm_ = LayerNorm(config.d_model, "embed.norm");
  for (std::size_t layer = 0; layer < config.num_layers; ++layer)
    blocks_.push_back(std::make_unique<EncoderBlock>(
        config_, init_rng, "layer" + std::to_string(layer)));
}

Tensor TransformerEncoder::forward(const Batch& batch, bool train) const {
  return run(batch, train, nullptr);
}

std::vector<Tensor> TransformerEncoder::attentions(const Batch& batch) const {
  const nn::InferenceGuard guard;
  std::vector<Tensor> out;
  (void)run(batch, /*train=*/false, &out);
  return out;
}

Tensor TransformerEncoder::run(const Batch& batch, bool train,
                               std::vector<Tensor>* attentions) const {
  static const auto h_forward = metrics::histogram("infer.forward_ns");
  metrics::ScopedTimer forward_timer(h_forward);
  nn::Workspace::current().reset_scratch();
  if (batch.seq_len > config_.max_seq_len)
    throw std::invalid_argument("TransformerEncoder: sequence of length " +
                                std::to_string(batch.seq_len) +
                                " exceeds max_seq_len " +
                                std::to_string(config_.max_seq_len));
  std::vector<int> positions(batch.batch_size * batch.seq_len);
  for (std::size_t b = 0; b < batch.batch_size; ++b)
    for (std::size_t t = 0; t < batch.seq_len; ++t)
      positions[b * batch.seq_len + t] = static_cast<int>(t);

  Tensor x = nn::embedding(token_embed_.tensor, batch.token_ids);
  x = nn::add(x, nn::embedding(position_embed_.tensor, positions));
  x = nn::add(x, nn::embedding(segment_embed_.tensor, batch.segment_ids));
  x = embed_norm_.forward(x);
  x = nn::dropout(x, config_.dropout, train, rng_);

  // One key flag per (sequence, position), shared by every head and layer;
  // attention_probs derives the causal triangle from the query position.
  const nn::KeyMask mask{
      std::make_shared<const std::vector<float>>(batch.attention_mask),
      config_.num_heads, config_.causal};
  if (attentions != nullptr) attentions->resize(blocks_.size());
  for (std::size_t layer = 0; layer < blocks_.size(); ++layer)
    x = blocks_[layer]->forward(
        x, batch.seq_len, mask, train, rng_,
        attentions != nullptr ? &(*attentions)[layer] : nullptr);
  return x;
}

std::size_t TransformerEncoder::blocks_per_sequence() const noexcept {
  return kv_blocks_for(config_.max_seq_len, kKvBlockTokens);
}

std::shared_ptr<KvBlockPool> TransformerEncoder::make_block_pool(
    std::size_t num_blocks) const {
  if (num_blocks == 0) num_blocks = blocks_per_sequence();
  return std::make_shared<KvBlockPool>(config_.num_layers, config_.num_heads,
                                       config_.head_dim(), num_blocks);
}

PagedKvCache TransformerEncoder::make_paged_cache(
    std::shared_ptr<KvBlockPool> pool) const {
  if (!pool)
    throw std::invalid_argument("make_paged_cache: null pool");
  if (pool->layers() != config_.num_layers ||
      pool->heads() != config_.num_heads ||
      pool->head_dim() != config_.head_dim())
    throw std::invalid_argument(
        "make_paged_cache: pool geometry mismatch (use make_block_pool())");
  return PagedKvCache(std::move(pool), config_.max_seq_len);
}

PagedKvCache TransformerEncoder::make_paged_cache() const {
  // A private pool sized for exactly one full sequence: the cache can
  // always decode to max_seq_len.
  return make_paged_cache(make_block_pool());
}

Tensor TransformerEncoder::forward_incremental_batch(
    std::span<const int> token_ids,
    std::span<PagedKvCache* const> caches) const {
  static const auto h_forward = metrics::histogram("infer.forward_ns");
  static const auto c_kv_hits =
      metrics::counter("infer.kv_hit_tokens", "token");
  metrics::ScopedTimer forward_timer(h_forward);
  nn::Workspace::current().reset_scratch();
  if (!config_.causal)
    throw std::invalid_argument(
        "forward_incremental_batch: requires a causal config (later tokens "
        "must not change earlier rows)");
  if (token_ids.size() != caches.size() || caches.empty())
    throw std::invalid_argument(
        "forward_incremental_batch: need one token per cache (and at least "
        "one session)");
  for (std::size_t b = 0; b < caches.size(); ++b) {
    PagedKvCache* cache = caches[b];
    if (cache == nullptr || !cache->pool)
      throw std::invalid_argument(
          "forward_incremental_batch: cache has no pool (use "
          "make_paged_cache())");
    const KvBlockPool& pool = *cache->pool;
    if (pool.layers() != config_.num_layers ||
        pool.heads() != config_.num_heads ||
        pool.head_dim() != config_.head_dim() ||
        cache->capacity != config_.max_seq_len)
      throw std::invalid_argument(
          "forward_incremental_batch: cache geometry mismatch (use "
          "make_paged_cache())");
    if (cache->length >= cache->capacity)
      throw ContextFullError("forward_incremental_batch: cache full");
    for (std::size_t o = 0; o < b; ++o)
      if (caches[o] == cache)
        throw std::invalid_argument(
            "forward_incremental_batch: duplicate cache in batch");
  }

  // Reserve this step's blocks across all sessions, all-or-nothing: on
  // exhaustion the partial reservation is rolled back and no cache has
  // been touched, so every session can retry after blocks are freed.
  std::vector<std::size_t> grew;
  bool exhausted = false;
  for (std::size_t b = 0; b < caches.size() && !exhausted; ++b) {
    PagedKvCache& cache = *caches[b];
    const std::size_t need = kv_blocks_for(cache.length + 1, kKvBlockTokens);
    while (cache.blocks.size() < need) {
      std::uint32_t blk = 0;
      if (!cache.pool->try_alloc(&blk)) {
        exhausted = true;
        break;
      }
      cache.blocks.push_back(blk);
      grew.push_back(b);
    }
  }
  if (exhausted) {
    for (const std::size_t b : grew) {
      caches[b]->pool->free_block(caches[b]->blocks.back());
      caches[b]->blocks.pop_back();
    }
    throw ContextFullError(
        "forward_incremental_batch: KV block pool exhausted",
        /*pool_exhausted=*/true);
  }

  const std::size_t bsz = caches.size();
  std::vector<int> ids(token_ids.begin(), token_ids.end());
  std::vector<int> positions(bsz);
  std::vector<int> segments(bsz, 0);
  std::uint64_t cached = 0;
  for (std::size_t b = 0; b < bsz; ++b) {
    positions[b] = static_cast<int>(caches[b]->length);
    cached += caches[b]->length;
  }
  c_kv_hits.add(cached);  // prefix tokens served from cache, not recomputed
  Tensor x = nn::embedding(token_embed_.tensor, ids);
  x = nn::add(x, nn::embedding(position_embed_.tensor, positions));
  x = nn::add(x, nn::embedding(segment_embed_.tensor, segments));
  x = embed_norm_.forward(x);
  // No dropout: incremental decode is inference-only (train=false).
  for (std::size_t layer = 0; layer < blocks_.size(); ++layer)
    x = blocks_[layer]->forward_incremental_batch(x, caches, layer);
  for (PagedKvCache* cache : caches) ++cache->length;
  return x;
}

nn::ParameterList TransformerEncoder::parameters() const {
  nn::ParameterList out;
  out.push_back(token_embed_);
  out.push_back(position_embed_);
  out.push_back(segment_embed_);
  embed_norm_.collect(out);
  for (const auto& block : blocks_) block->collect(out);
  return out;
}

void TransformerEncoder::prepack() const {
  for (const auto& block : blocks_) block->prepack();
}

}  // namespace netfm::model
