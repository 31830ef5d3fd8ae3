// Task heads that sit on top of the encoder's [B*T, D] output:
// masked-token prediction (pretraining), next-segment prediction
// (pretraining), sequence classification / regression (fine-tuning).
#pragma once

#include "model/transformer.h"

namespace netfm::model {

/// Masked-token modeling head: transform + decode over the vocabulary.
/// The decoder weight is tied to the encoder token embedding.
class MlmHead {
 public:
  MlmHead(const TransformerConfig& config, const nn::Tensor& tied_embeddings,
          Rng& rng);

  /// hidden [R, D] -> logits [R, V], row by row: any R rows of the
  /// encoder's [B*T, D] output, such as only the masked ones (a row's
  /// logits do not depend on the other rows). In inference mode the tied
  /// decoder runs on panels packed straight from the [V, D] embedding
  /// table (nn/packed.h), with no transposed weight copy.
  nn::Tensor forward(const nn::Tensor& hidden) const;

  /// Masked-token loss: cross_entropy(forward(hidden), targets) with
  /// targets < 0 ignored, computed on only the rows that carry a target.
  /// Those rows are gathered in ascending order before the head (BERT's
  /// gather_indexes). The loss and every gradient are bitwise those of
  /// the full-row head: an ignored row's logit gradient is exactly +0, so
  /// dropping the row drops only +0 terms from each gradient sum. With no
  /// target the loss is 0.
  nn::Tensor masked_loss(const nn::Tensor& hidden,
                         std::span<const int> targets) const;

  void collect(nn::ParameterList& out) const;

  /// Eagerly packs the transform + tied-decoder weight panels.
  void prepack() const;

 private:
  Linear transform_;
  LayerNorm norm_;
  nn::Tensor tied_embeddings_;  // [V, D]
  nn::Parameter decoder_bias_;  // [V]
  mutable nn::PackedWeights decoder_packed_;
};

/// Pools the first token ([CLS]) of each sequence: [B*T, D] -> [B, D],
/// tanh-squashed through a learned projection (the BERT pooler).
class Pooler {
 public:
  Pooler(std::size_t d_model, Rng& rng);

  nn::Tensor forward(const nn::Tensor& hidden, std::size_t batch_size,
                     std::size_t seq_len) const;
  void collect(nn::ParameterList& out) const;
  void prepack() const { dense_.prepack(); }

 private:
  Linear dense_;
};

/// Linear classifier over pooled output: [B, D] -> [B, num_classes].
class ClassificationHead {
 public:
  ClassificationHead(std::size_t d_model, std::size_t num_classes, Rng& rng);

  nn::Tensor forward(const nn::Tensor& pooled) const;
  void collect(nn::ParameterList& out) const;
  std::size_t num_classes() const noexcept { return num_classes_; }
  void prepack() const { dense_.prepack(); }

 private:
  Linear dense_;
  std::size_t num_classes_;
};

/// Scalar regression over pooled output: [B, D] -> [B, 1].
class RegressionHead {
 public:
  RegressionHead(std::size_t d_model, Rng& rng);

  nn::Tensor forward(const nn::Tensor& pooled) const;
  void collect(nn::ParameterList& out) const;
  void prepack() const {
    hidden_.prepack();
    out_.prepack();
  }

 private:
  Linear hidden_, out_;
};

/// Binary next-segment prediction over pooled output (the NSP analogue:
/// "is segment B the packet that actually followed segment A?").
class NextSegmentHead {
 public:
  NextSegmentHead(std::size_t d_model, Rng& rng);

  nn::Tensor forward(const nn::Tensor& pooled) const;
  void collect(nn::ParameterList& out) const;
  void prepack() const { dense_.prepack(); }

 private:
  Linear dense_;
};

}  // namespace netfm::model
