#include "model/heads.h"

namespace netfm::model {

using nn::Tensor;

MlmHead::MlmHead(const TransformerConfig& config,
                 const nn::Tensor& tied_embeddings, Rng& rng)
    : transform_(config.d_model, config.d_model, rng, "mlm.transform"),
      norm_(config.d_model, "mlm.norm"),
      tied_embeddings_(tied_embeddings),
      decoder_bias_{"mlm.decoder_bias",
                    Tensor({config.vocab_size}, true)} {}

Tensor MlmHead::forward(const Tensor& hidden) const {
  const Tensor transformed =
      norm_.forward(nn::gelu(transform_.forward(hidden)));
  // Tied decoder: logits = transformed * E^T + bias.
  if (nn::inference_mode()) {
    // E is [V, D]; decoder column v is E row v, so (k, j) -> e[j * D + k]
    // (rs = 1, cs = D) packs the tied weights without a transpose copy.
    const Tensor& e = tied_embeddings_;
    return nn::packed_linear(transformed, e.data().data(), /*K=*/e.dim(1),
                             /*N=*/e.dim(0), /*rs=*/1, /*cs=*/e.dim(1),
                             decoder_bias_.tensor, decoder_packed_);
  }
  return nn::linear(transformed, nn::transpose(tied_embeddings_),
                    decoder_bias_.tensor);
}

Tensor MlmHead::masked_loss(const Tensor& hidden,
                            std::span<const int> targets) const {
  std::vector<int> rows, row_targets;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] < 0) continue;
    rows.push_back(static_cast<int>(i));
    row_targets.push_back(targets[i]);
  }
  return nn::cross_entropy(forward(nn::embedding(hidden, rows)), row_targets);
}

void MlmHead::prepack() const {
  transform_.prepack();
  if (!tied_embeddings_.defined()) return;
  const Tensor& e = tied_embeddings_;
  nn::prepack(e.data().data(), /*K=*/e.dim(1), /*N=*/e.dim(0), /*rs=*/1,
              /*cs=*/e.dim(1), decoder_packed_);
}

void MlmHead::collect(nn::ParameterList& out) const {
  transform_.collect(out);
  norm_.collect(out);
  out.push_back(decoder_bias_);
}

Pooler::Pooler(std::size_t d_model, Rng& rng)
    : dense_(d_model, d_model, rng, "pooler.dense") {}

Tensor Pooler::forward(const Tensor& hidden, std::size_t batch_size,
                       std::size_t seq_len) const {
  // Gather row 0 of every sequence.
  std::vector<int> first_rows(batch_size);
  for (std::size_t b = 0; b < batch_size; ++b)
    first_rows[b] = static_cast<int>(b * seq_len);
  const Tensor cls = nn::embedding(hidden, first_rows);
  return nn::tanh_op(dense_.forward(cls));
}

void Pooler::collect(nn::ParameterList& out) const { dense_.collect(out); }

ClassificationHead::ClassificationHead(std::size_t d_model,
                                       std::size_t num_classes, Rng& rng)
    : dense_(d_model, num_classes, rng, "cls.dense"),
      num_classes_(num_classes) {}

Tensor ClassificationHead::forward(const Tensor& pooled) const {
  return dense_.forward(pooled);
}

void ClassificationHead::collect(nn::ParameterList& out) const {
  dense_.collect(out);
}

RegressionHead::RegressionHead(std::size_t d_model, Rng& rng)
    : hidden_(d_model, d_model, rng, "reg.hidden"),
      out_(d_model, 1, rng, "reg.out") {}

Tensor RegressionHead::forward(const Tensor& pooled) const {
  return out_.forward(nn::gelu(hidden_.forward(pooled)));
}

void RegressionHead::collect(nn::ParameterList& out) const {
  hidden_.collect(out);
  out_.collect(out);
}

NextSegmentHead::NextSegmentHead(std::size_t d_model, Rng& rng)
    : dense_(d_model, 2, rng, "nsp.dense") {}

Tensor NextSegmentHead::forward(const Tensor& pooled) const {
  return dense_.forward(pooled);
}

void NextSegmentHead::collect(nn::ParameterList& out) const {
  dense_.collect(out);
}

}  // namespace netfm::model
