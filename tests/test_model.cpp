// Transformer encoder, heads, GRU, optimizers, GloVe, serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "model/gru.h"
#include "model/heads.h"
#include "model/transformer.h"
#include "nn/glove.h"
#include "nn/serialize.h"

namespace netfm::model {
namespace {

TransformerConfig test_config() {
  TransformerConfig config = TransformerConfig::tiny(32);
  config.max_seq_len = 16;
  config.dropout = 0.0f;
  return config;
}

Batch make_test_batch(std::size_t batch, std::size_t seq, int vocab,
                      std::uint64_t seed) {
  Batch b;
  b.batch_size = batch;
  b.seq_len = seq;
  Rng rng(seed);
  for (std::size_t i = 0; i < batch * seq; ++i) {
    b.token_ids.push_back(static_cast<int>(rng.uniform(vocab)));
    b.segment_ids.push_back(0);
    b.attention_mask.push_back(1.0f);
  }
  return b;
}

TEST(Transformer, ForwardShape) {
  const TransformerConfig config = test_config();
  TransformerEncoder encoder(config);
  const Batch batch = make_test_batch(3, 10, 32, 1);
  const nn::Tensor hidden = encoder.forward(batch);
  EXPECT_EQ(hidden.shape(), (nn::Shape{30, config.d_model}));
}

TEST(Transformer, RejectsOverlongSequence) {
  TransformerEncoder encoder(test_config());
  const Batch batch = make_test_batch(1, 17, 32, 1);
  EXPECT_THROW(encoder.forward(batch), std::invalid_argument);
}

TEST(Transformer, DeterministicInEvalMode) {
  TransformerEncoder encoder(test_config());
  const Batch batch = make_test_batch(2, 8, 32, 2);
  const nn::Tensor a = encoder.forward(batch, /*train=*/false);
  const nn::Tensor b = encoder.forward(batch, /*train=*/false);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

TEST(Transformer, PaddingDoesNotChangeRealTokens) {
  // Same sequence with and without trailing padding: the real positions'
  // outputs must match (attention mask blocks the padding).
  TransformerEncoder encoder(test_config());
  Batch unpadded = make_test_batch(1, 6, 32, 3);
  Batch padded = unpadded;
  padded.seq_len = 10;
  for (int i = 0; i < 4; ++i) {
    padded.token_ids.push_back(0);
    padded.segment_ids.push_back(0);
    padded.attention_mask.push_back(0.0f);
  }
  const nn::Tensor a = encoder.forward(unpadded);
  const nn::Tensor b = encoder.forward(padded);
  const std::size_t d = encoder.config().d_model;
  for (std::size_t i = 0; i < 6 * d; ++i)
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4f);
}

TEST(Transformer, AttentionIgnoresMaskedPositions) {
  TransformerEncoder encoder(test_config());
  Batch batch = make_test_batch(1, 8, 32, 4);
  batch.attention_mask[7] = 0.0f;
  for (const nn::Tensor& attn : encoder.attentions(batch)) {
    // Every row's attention to position 7 is ~0.
    const std::size_t seq = 8;
    for (std::size_t h = 0; h < encoder.config().num_heads; ++h)
      for (std::size_t i = 0; i < seq; ++i)
        EXPECT_LT(attn.data()[(h * seq + i) * seq + 7], 1e-6f);
  }
}

TEST(Transformer, AttentionRowsSumToOne) {
  TransformerEncoder encoder(test_config());
  const Batch batch = make_test_batch(2, 8, 32, 5);
  const auto attentions = encoder.attentions(batch);
  ASSERT_EQ(attentions.size(), encoder.config().num_layers);
  const nn::Tensor& attn = attentions[0];
  const std::size_t rows = attn.dim(0) * attn.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < attn.dim(2); ++c)
      total += attn.data()[r * attn.dim(2) + c];
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(Transformer, ParameterCountMatchesFormula) {
  const TransformerConfig config = test_config();
  TransformerEncoder encoder(config);
  std::size_t actual = 0;
  for (const nn::Parameter& p : encoder.parameters()) actual += p.tensor.size();
  EXPECT_EQ(actual, parameter_count(config));
}

TEST(Transformer, CanOverfitTinyMlmTask) {
  // Train MLM on a fixed 2-sequence corpus; loss must fall sharply.
  TransformerConfig config = test_config();
  config.dropout = 0.0f;
  TransformerEncoder encoder(config);
  Rng head_rng(9);
  MlmHead head(config, encoder.token_embeddings(), head_rng);

  nn::ParameterList params = encoder.parameters();
  head.collect(params);
  nn::Adam adam(3e-3f);

  Batch batch = make_test_batch(2, 8, 32, 6);
  std::vector<int> targets(batch.token_ids.begin(), batch.token_ids.end());
  // Mask positions 2 and 5 of each row.
  std::vector<int> mlm_targets(16, -1);
  for (std::size_t row = 0; row < 2; ++row)
    for (std::size_t pos : {2u, 5u}) {
      mlm_targets[row * 8 + pos] = targets[row * 8 + pos];
      batch.token_ids[row * 8 + pos] = 4;  // [MASK]
    }

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const nn::Tensor hidden = encoder.forward(batch, /*train=*/true);
    const nn::Tensor logits = head.forward(hidden);
    nn::Tensor loss = nn::cross_entropy(logits, mlm_targets);
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
    nn::zero_grad(params);
    loss.backward();
    adam.step(params);
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
}

TEST(Heads, PoolerReadsClsPosition) {
  const TransformerConfig config = test_config();
  Rng rng(10);
  Pooler pooler(config.d_model, rng);
  // Hidden where row 0 (CLS of seq 0) and row 4 (CLS of seq 1) are marked.
  nn::Tensor hidden({8, config.d_model});
  hidden.data()[0] = 7.0f;                      // batch 0, pos 0
  hidden.data()[4 * config.d_model] = -7.0f;    // batch 1, pos 0
  const nn::Tensor pooled = pooler.forward(hidden, 2, 4);
  EXPECT_EQ(pooled.shape(), (nn::Shape{2, config.d_model}));
  // tanh squashes into [-1, 1].
  for (float v : pooled.data()) {
    EXPECT_LE(v, 1.0f);
    EXPECT_GE(v, -1.0f);
  }
}

TEST(Heads, ClassificationShape) {
  Rng rng(11);
  ClassificationHead head(16, 5, rng);
  nn::Tensor pooled({3, 16});
  EXPECT_EQ(head.forward(pooled).shape(), (nn::Shape{3, 5}));
  EXPECT_EQ(head.num_classes(), 5u);
}

TEST(Heads, RegressionShape) {
  Rng rng(12);
  RegressionHead head(16, rng);
  nn::Tensor pooled({3, 16});
  EXPECT_EQ(head.forward(pooled).shape(), (nn::Shape{3, 1}));
}

TEST(Gru, ForwardShapeAndDeterminism) {
  GruConfig config;
  config.vocab_size = 20;
  config.num_classes = 4;
  config.dropout = 0.0f;
  GruClassifier gru(config);
  const std::vector<int> ids = {1, 5, 3, 7, 2};
  const nn::Tensor a = gru.forward(ids);
  const nn::Tensor b = gru.forward(ids);
  EXPECT_EQ(a.shape(), (nn::Shape{1, 4}));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

TEST(Gru, CanOverfitTinyClassification) {
  GruConfig config;
  config.vocab_size = 10;
  config.num_classes = 2;
  config.dropout = 0.0f;
  GruClassifier gru(config);
  nn::ParameterList params = gru.parameters();
  nn::Adam adam(1e-2f);

  // Class by first token.
  const std::vector<std::vector<int>> sequences = {
      {7, 1, 2, 3}, {7, 3, 2, 1}, {8, 1, 2, 3}, {8, 3, 2, 1}};
  const std::vector<int> labels = {0, 0, 1, 1};
  for (int epoch = 0; epoch < 80; ++epoch) {
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const nn::Tensor logits = gru.forward(sequences[i], /*train=*/true);
      const std::vector<int> target = {labels[i]};
      nn::Tensor loss = nn::cross_entropy(logits, target);
      nn::zero_grad(params);
      loss.backward();
      adam.step(params);
    }
  }
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const nn::Tensor logits = gru.forward(sequences[i]);
    const int predicted =
        logits.data()[0] > logits.data()[1] ? 0 : 1;
    EXPECT_EQ(predicted, labels[i]) << "sequence " << i;
  }
}

TEST(Gru, LoadEmbeddingsValidatesAndFreezes) {
  GruConfig config;
  config.vocab_size = 6;
  GruClassifier gru(config);
  EXPECT_THROW(gru.load_embeddings(std::vector<float>(5, 0.0f)),
               std::invalid_argument);
  std::vector<float> vectors(config.vocab_size * config.embed_dim, 0.5f);
  gru.load_embeddings(vectors, /*freeze=*/true);
  // Frozen embedding is excluded from the trainable set.
  for (const nn::Parameter& p : gru.parameters())
    EXPECT_NE(p.name, "gru.embed");
}

TEST(Optim, SgdDescendsQuadratic) {
  nn::Parameter x{"x", nn::Tensor({1}, {5.0f}, true)};
  nn::ParameterList params = {x};
  nn::Sgd sgd(0.1f);
  for (int i = 0; i < 100; ++i) {
    nn::Tensor loss = nn::mul(x.tensor, x.tensor);
    nn::zero_grad(params);
    loss.backward();
    sgd.step(params);
  }
  EXPECT_NEAR(x.tensor.data()[0], 0.0f, 1e-3f);
}

TEST(Optim, AdamDescendsQuadratic) {
  nn::Parameter x{"x", nn::Tensor({1}, {5.0f}, true)};
  nn::ParameterList params = {x};
  nn::Adam adam(0.3f);
  for (int i = 0; i < 200; ++i) {
    nn::Tensor loss = nn::mul(x.tensor, x.tensor);
    nn::zero_grad(params);
    loss.backward();
    adam.step(params);
  }
  EXPECT_NEAR(x.tensor.data()[0], 0.0f, 1e-2f);
}

TEST(Optim, ClipGradNorm) {
  nn::Parameter x{"x", nn::Tensor({2}, {0.0f, 0.0f}, true)};
  x.tensor.grad()[0] = 3.0f;
  x.tensor.grad()[1] = 4.0f;  // norm 5
  nn::ParameterList params = {x};
  const float norm = nn::clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(x.tensor.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.tensor.grad()[1], 0.8f, 1e-5f);
}

TEST(Optim, ClipLeavesSmallGradientsAlone) {
  nn::Parameter x{"x", nn::Tensor({1}, {0.0f}, true)};
  x.tensor.grad()[0] = 0.5f;
  nn::ParameterList params = {x};
  nn::clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(x.tensor.grad()[0], 0.5f);
}

TEST(Optim, WarmupLinearSchedule) {
  nn::WarmupLinearSchedule schedule(1.0f, 10, 110);
  EXPECT_NEAR(schedule.lr_at(0), 0.1f, 1e-5f);
  EXPECT_NEAR(schedule.lr_at(9), 1.0f, 1e-5f);
  EXPECT_NEAR(schedule.lr_at(60), 0.5f, 1e-5f);
  EXPECT_FLOAT_EQ(schedule.lr_at(110), 0.0f);
  EXPECT_FLOAT_EQ(schedule.lr_at(1000), 0.0f);
}

TEST(Serialize, RoundTripRestoresValues) {
  Rng rng(13);
  nn::ParameterList params = {
      {"w1", nn::Tensor::randn({3, 4}, rng)},
      {"b1", nn::Tensor::randn({4}, rng)},
  };
  const auto blob = nn::save_parameters(params);

  nn::ParameterList fresh = {
      {"w1", nn::Tensor({3, 4}, true)},
      {"b1", nn::Tensor({4}, true)},
  };
  ASSERT_TRUE(nn::load_parameters(blob, fresh));
  for (std::size_t i = 0; i < params[0].tensor.size(); ++i)
    EXPECT_FLOAT_EQ(fresh[0].tensor.data()[i], params[0].tensor.data()[i]);
}

TEST(Serialize, RejectsMismatchedShapesAndNames) {
  Rng rng(14);
  nn::ParameterList params = {{"w", nn::Tensor::randn({2, 2}, rng)}};
  const auto blob = nn::save_parameters(params);

  nn::ParameterList wrong_shape = {{"w", nn::Tensor({2, 3}, true)}};
  EXPECT_FALSE(nn::load_parameters(blob, wrong_shape));
  nn::ParameterList wrong_name = {{"v", nn::Tensor({2, 2}, true)}};
  EXPECT_FALSE(nn::load_parameters(blob, wrong_name));
  std::vector<std::uint8_t> garbage = {1, 2, 3};
  nn::ParameterList ok = {{"w", nn::Tensor({2, 2}, true)}};
  EXPECT_FALSE(nn::load_parameters(garbage, ok));
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(15);
  nn::ParameterList params = {{"w", nn::Tensor::randn({8}, rng)}};
  const std::string path = "/tmp/netfm_test_ckpt.bin";
  ASSERT_TRUE(nn::save_parameters_file(path, params));
  nn::ParameterList fresh = {{"w", nn::Tensor({8}, true)}};
  ASSERT_TRUE(nn::load_parameters_file(path, fresh));
  EXPECT_FLOAT_EQ(fresh[0].tensor.data()[3], params[0].tensor.data()[3]);
  std::remove(path.c_str());
}

TEST(Glove, CooccurrenceCountsSymmetric) {
  nn::CooccurrenceCounts counts(10);
  const std::vector<int> seq = {1, 2, 3};
  counts.add_sequence(seq, 2);
  const auto& pairs = counts.pairs();
  EXPECT_DOUBLE_EQ(pairs.at(nn::CooccurrenceCounts::key(1, 2)),
                   pairs.at(nn::CooccurrenceCounts::key(2, 1)));
  // Distance weighting: (1,2) adjacent = 1.0, (1,3) distance 2 = 0.5.
  EXPECT_DOUBLE_EQ(pairs.at(nn::CooccurrenceCounts::key(1, 2)), 1.0);
  EXPECT_DOUBLE_EQ(pairs.at(nn::CooccurrenceCounts::key(1, 3)), 0.5);
}

TEST(Glove, NegativeIdsSkipped) {
  nn::CooccurrenceCounts counts(5);
  const std::vector<int> seq = {1, -1, 2};
  counts.add_sequence(seq, 2);
  EXPECT_EQ(counts.pairs().count(nn::CooccurrenceCounts::key(1, 2)), 1u);
  // No pair involving -1 possible; only (1,2) and (2,1).
  EXPECT_EQ(counts.pairs().size(), 2u);
}

TEST(Glove, CooccurringTokensEndUpCloser) {
  // Tokens 1,2 always together; token 3 always with 4; 1-3 never co-occur.
  nn::CooccurrenceCounts counts(6);
  Rng rng(16);
  for (int i = 0; i < 200; ++i) {
    counts.add_sequence(std::vector<int>{1, 2, 1, 2}, 2);
    counts.add_sequence(std::vector<int>{3, 4, 3, 4}, 2);
  }
  nn::GloveConfig config;
  config.dim = 8;
  config.epochs = 30;
  const auto vectors = nn::train_glove(counts, config);
  auto cosine = [&](int a, int b) {
    double dot = 0, na = 0, nb = 0;
    for (std::size_t d = 0; d < 8; ++d) {
      dot += vectors[a * 8 + d] * vectors[b * 8 + d];
      na += vectors[a * 8 + d] * vectors[a * 8 + d];
      nb += vectors[b * 8 + d] * vectors[b * 8 + d];
    }
    return dot / std::sqrt(na * nb);
  };
  EXPECT_GT(cosine(1, 2), cosine(1, 3));
  EXPECT_GT(cosine(3, 4), cosine(2, 4));
}

TEST(Config, PresetLadderGrows) {
  const auto tiny = TransformerConfig::tiny(100);
  const auto small = TransformerConfig::small(100);
  const auto base = TransformerConfig::base(100);
  EXPECT_LT(parameter_count(tiny), parameter_count(small));
  EXPECT_LT(parameter_count(small), parameter_count(base));
}

}  // namespace
}  // namespace netfm::model
