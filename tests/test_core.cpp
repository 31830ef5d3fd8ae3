// Core NetFM: encoding, masking, pretraining, fine-tuning, embeddings,
// nearest-neighbor/analogy queries, checkpointing, few-shot.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>

#include "core/fewshot.h"
#include "core/netfm.h"
#include "model/heads.h"

namespace netfm::core {
namespace {

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt", "tls_ch", "cs49199",
                        "cs49200"})
    v.add(t);
  return v;
}

model::TransformerConfig tiny_config(std::size_t vocab) {
  auto config = model::TransformerConfig::tiny(vocab);
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  return config;
}

TEST(EncodeContext, FramesWithSpecials) {
  const tok::Vocabulary v = tiny_vocab();
  const Encoded e = encode_context({"tcp", "p80"}, v, 8);
  ASSERT_EQ(e.ids.size(), 8u);
  EXPECT_EQ(e.ids[0], tok::Vocabulary::kCls);
  EXPECT_EQ(e.ids[1], v.id("tcp"));
  EXPECT_EQ(e.ids[2], v.id("p80"));
  EXPECT_EQ(e.ids[3], tok::Vocabulary::kSep);
  EXPECT_EQ(e.ids[4], tok::Vocabulary::kPad);
  EXPECT_FLOAT_EQ(e.mask[3], 1.0f);
  EXPECT_FLOAT_EQ(e.mask[4], 0.0f);
}

TEST(EncodeContext, TruncatesLongInput) {
  const tok::Vocabulary v = tiny_vocab();
  const std::vector<std::string> tokens(50, "tcp");
  const Encoded e = encode_context(tokens, v, 10);
  EXPECT_EQ(e.ids.size(), 10u);
  EXPECT_EQ(e.ids[9], tok::Vocabulary::kSep);
}

TEST(EncodeContext, RejectsTinyMaxLen) {
  const tok::Vocabulary v = tiny_vocab();
  EXPECT_THROW(encode_context({"tcp"}, v, 2), std::invalid_argument);
}

TEST(EncodePair, SegmentsSplitAtSep) {
  const tok::Vocabulary v = tiny_vocab();
  const Encoded e = encode_pair({"tcp", "p80"}, {"udp", "p53"}, v, 12);
  EXPECT_EQ(e.ids[0], tok::Vocabulary::kCls);
  EXPECT_EQ(e.segments[0], 0);
  // After first [SEP], segment flips to 1.
  std::size_t sep_at = 0;
  for (std::size_t i = 1; i < e.ids.size(); ++i)
    if (e.ids[i] == tok::Vocabulary::kSep) {
      sep_at = i;
      break;
    }
  ASSERT_GT(sep_at, 0u);
  EXPECT_EQ(e.segments[sep_at + 1], 1);
}

TEST(MlmMask, CorruptsExpectedFraction) {
  const tok::Vocabulary v = tiny_vocab();
  Rng rng(21);
  std::size_t corrupted = 0, total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Encoded e = encode_context(std::vector<std::string>(18, "tcp"), v, 20);
    const auto targets = apply_mlm_mask(e.ids, v, rng, 0.15);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (e.ids[i] == tok::Vocabulary::kPad ||
          e.ids[i] == tok::Vocabulary::kCls ||
          e.ids[i] == tok::Vocabulary::kSep)
        continue;
      ++total;
      if (targets[i] >= 0) ++corrupted;
    }
  }
  const double fraction =
      static_cast<double>(corrupted) / static_cast<double>(total);
  EXPECT_NEAR(fraction, 0.15, 0.02);
}

TEST(MlmMask, NeverTouchesSpecials) {
  const tok::Vocabulary v = tiny_vocab();
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    Encoded e = encode_context({"tcp", "udp"}, v, 8);
    const auto targets = apply_mlm_mask(e.ids, v, rng, 1.0);
    EXPECT_EQ(e.ids[0], tok::Vocabulary::kCls);
    EXPECT_EQ(targets[0], -1);
    // Padding untouched.
    for (std::size_t i = 4; i < e.ids.size(); ++i)
      EXPECT_EQ(e.ids[i], tok::Vocabulary::kPad);
  }
}

TEST(MlmMask, TargetsRecordOriginals) {
  const tok::Vocabulary v = tiny_vocab();
  Rng rng(23);
  Encoded e = encode_context({"tcp", "udp", "p80", "p443"}, v, 10);
  const std::vector<int> original = e.ids;
  const auto targets = apply_mlm_mask(e.ids, v, rng, 1.0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= 0) {
      EXPECT_EQ(targets[i], original[i]);
    }
  }
}

TEST(MakeBatch, PacksRows) {
  const tok::Vocabulary v = tiny_vocab();
  const std::vector<Encoded> items = {encode_context({"tcp"}, v, 6),
                                      encode_context({"udp", "p53"}, v, 6)};
  const model::Batch batch = make_batch(items);
  EXPECT_EQ(batch.batch_size, 2u);
  EXPECT_EQ(batch.seq_len, 6u);
  EXPECT_EQ(batch.token_ids.size(), 12u);
}

TEST(MakeBatch, RejectsRaggedAndEmpty) {
  const tok::Vocabulary v = tiny_vocab();
  const std::vector<Encoded> ragged = {encode_context({"tcp"}, v, 6),
                                       encode_context({"tcp"}, v, 8)};
  EXPECT_THROW(make_batch(ragged), std::invalid_argument);
  EXPECT_THROW(make_batch({}), std::invalid_argument);
}

/// Synthetic corpus with strong structure: "web" contexts pair p80 with
/// d_www; "dns" contexts pair p53 with dns_query.
std::vector<std::vector<std::string>> structured_corpus(std::size_t n) {
  std::vector<std::vector<std::string>> corpus;
  Rng rng(31);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0)
      corpus.push_back({"dir_up", "tcp", "p80", "fl_S", "d_www", "pkt",
                        "dir_dn", "tcp", "p80", "fl_SA"});
    else
      corpus.push_back({"dir_up", "udp", "p53", "dns_query", "d_video",
                        "pkt", "dir_dn", "udp", "p53", "dns_resp"});
  }
  return corpus;
}

TEST(NetFM, PretrainReducesMlmLoss) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto corpus = structured_corpus(40);
  const double before = fm.mlm_loss(corpus, 16);
  PretrainOptions options;
  options.steps = 80;
  options.batch_size = 8;
  options.max_seq_len = 16;
  const TrainLog log = fm.pretrain(corpus, {}, options);
  EXPECT_EQ(log.steps, 80u);
  EXPECT_EQ(log.losses.size(), 80u);
  const double after = fm.mlm_loss(corpus, 16);
  EXPECT_LT(after, before * 0.8);
}

TEST(NetFM, MaskedRowHeadMatchesFullHead) {
  // Two identical encoder + head pairs (same seeds, dropout on) see the
  // same batch; one runs the MLM head on every row with -1 targets, the
  // other on the masked rows only. Loss and gradients must match bit for
  // bit, including a batch whose targets are all -1.
  auto config = model::TransformerConfig::tiny(40);
  config.dropout = 0.1f;
  const std::size_t batch_size = 3, seq_len = 12;
  model::Batch batch;
  batch.batch_size = batch_size;
  batch.seq_len = seq_len;
  Rng data_rng(17);
  std::vector<int> masked_targets;
  for (std::size_t b = 0; b < batch_size; ++b)
    for (std::size_t t = 0; t < seq_len; ++t) {
      const bool real = t < seq_len - 3 * b;  // later rows padded
      batch.token_ids.push_back(
          real ? 5 + static_cast<int>(data_rng.uniform(35)) : 0);
      batch.segment_ids.push_back(0);
      batch.attention_mask.push_back(real ? 1.0f : 0.0f);
      masked_targets.push_back(real && data_rng.chance(0.3)
                                   ? static_cast<int>(data_rng.uniform(40))
                                   : -1);
    }
  const std::vector<int> no_targets(batch_size * seq_len, -1);

  const auto bits = [](std::span<const float> values) {
    std::vector<std::uint32_t> out;
    for (float v : values) out.push_back(std::bit_cast<std::uint32_t>(v));
    return out;
  };
  const auto run = [&](const std::vector<int>& targets, bool gathered) {
    model::TransformerEncoder encoder(config);
    Rng head_rng(config.seed + 1);
    model::MlmHead head(config, encoder.token_embeddings(), head_rng);
    nn::ParameterList params = encoder.parameters();
    head.collect(params);
    nn::zero_grad(params);
    const nn::Tensor hidden = encoder.forward(batch, /*train=*/true);
    nn::Tensor loss = gathered
                          ? head.masked_loss(hidden, targets)
                          : nn::cross_entropy(head.forward(hidden), targets);
    loss.backward();
    std::vector<std::vector<std::uint32_t>> out{bits(loss.data())};
    for (const nn::Parameter& p : params) out.push_back(bits(p.tensor.grad()));
    return out;
  };
  ASSERT_GT(std::count_if(masked_targets.begin(), masked_targets.end(),
                          [](int t) { return t >= 0; }),
            1);
  const auto expect_same = [&](const std::vector<int>& targets) {
    const auto full = run(targets, false);
    const auto gathered = run(targets, true);
    ASSERT_EQ(full.size(), gathered.size());
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_EQ(full[i], gathered[i]) << "entry " << i;
  };
  expect_same(masked_targets);
  expect_same(no_targets);
  EXPECT_EQ(run(no_targets, true)[0],
            std::vector<std::uint32_t>{std::bit_cast<std::uint32_t>(0.0f)});
}

TEST(NetFM, PretrainStepsReuseFreedMemory) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "measures glibc malloc's page reuse";
#endif
  // A step at the pretrain_stream shape (small model, 16 x 64) builds and
  // frees megabyte-sized attention tensors. Once warm, a step must reuse
  // the memory the previous step freed instead of faulting fresh pages in:
  // without keep_freed_memory() such a step took ~11k minor faults.
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, model::TransformerConfig::small(v.size()));
  const auto corpus = structured_corpus(64);
  PretrainOptions options;
  options.steps = 3;
  options.batch_size = 16;
  options.max_seq_len = 64;
  options.task = PretrainTask::kMlmOnly;
  fm.pretrain(corpus, {}, options);  // warm-up
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  options.steps = 6;
  options.seed += 1;
  const long before = minor_faults();
  fm.pretrain(corpus, {}, options);
  EXPECT_LT((minor_faults() - before) / 6, 1000);
}

TEST(NetFM, PretrainWithNextPacketTask) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto corpus = structured_corpus(20);
  std::vector<ctx::SegmentPair> pairs;
  for (int i = 0; i < 20; ++i) {
    ctx::SegmentPair p;
    p.first = {"tcp", "p80", "fl_S"};
    p.second = i % 2 == 0 ? std::vector<std::string>{"tcp", "p80", "fl_SA"}
                          : std::vector<std::string>{"udp", "p53"};
    p.is_next = i % 2 == 0;
    pairs.push_back(std::move(p));
  }
  PretrainOptions options;
  options.steps = 30;
  options.task = PretrainTask::kMlmAndNextPacket;
  options.max_seq_len = 16;
  const TrainLog log = fm.pretrain(corpus, pairs, options);
  EXPECT_FALSE(log.losses.empty());
  EXPECT_GT(log.losses.front(), 0.0f);
}

TEST(NetFM, PretrainRejectsEmptyCorpus) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  EXPECT_THROW(fm.pretrain(std::vector<std::vector<std::string>>{}, {},
                           PretrainOptions{}),
               std::invalid_argument);
}

TEST(NetFM, FineTuneLearnsSeparableTask) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto corpus = structured_corpus(40);
  std::vector<int> labels;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    labels.push_back(static_cast<int>(i % 2));

  FineTuneOptions options;
  options.epochs = 6;
  options.max_seq_len = 16;
  fm.fine_tune(corpus, labels, 2, options);

  int correct = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    if (fm.predict(corpus[i], 16) == labels[i]) ++correct;
  EXPECT_GT(correct, static_cast<int>(corpus.size() * 9 / 10));
}

TEST(NetFM, PredictBeforeFineTuneThrows) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  EXPECT_THROW(fm.predict({"tcp"}, 16), std::logic_error);
}

TEST(NetFM, PredictProbaSumsToOne) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto corpus = structured_corpus(10);
  std::vector<int> labels(10);
  for (std::size_t i = 0; i < 10; ++i) labels[i] = static_cast<int>(i % 2);
  FineTuneOptions options;
  options.epochs = 1;
  options.max_seq_len = 16;
  fm.fine_tune(corpus, labels, 2, options);
  const auto probs = fm.predict_proba(corpus[0], 16);
  double total = 0.0;
  for (float p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(NetFM, EmbedIsDeterministicAndSized) {
  const tok::Vocabulary v = tiny_vocab();
  const auto config = tiny_config(v.size());
  NetFM fm(v, config);
  const auto a = fm.embed({"tcp", "p80"}, 16);
  const auto b = fm.embed({"tcp", "p80"}, 16);
  EXPECT_EQ(a.size(), config.d_model);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  const auto c = fm.embed({"udp", "p53"}, 16);
  EXPECT_NE(a, c);
}

TEST(NetFM, NearestTokensExcludesSelfAndSpecials) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto neighbors = fm.nearest_tokens("p80", 5);
  ASSERT_EQ(neighbors.size(), 5u);
  for (const auto& [token, score] : neighbors) {
    EXPECT_NE(token, "p80");
    EXPECT_NE(token[0], '[');
    EXPECT_GE(score, -1.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(NetFM, InterchangeableTokensBecomeNeighbors) {
  // The E2 construction: p80 and p443 fill the same slot of otherwise
  // identical web contexts, p53 fills a different (DNS) template. After
  // MLM pretraining, p80's embedding must be closer to p443 than to p53.
  tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  std::vector<std::vector<std::string>> corpus;
  Rng rng(77);
  for (int i = 0; i < 80; ++i) {
    const char* web_port = rng.chance(0.5) ? "p80" : "p443";
    corpus.push_back({"dir_up", "tcp", web_port, "fl_S", "d_www", "pkt",
                      "dir_dn", "tcp", web_port, "fl_SA"});
    corpus.push_back({"dir_up", "udp", "p53", "dns_query", "d_video", "pkt",
                      "dir_dn", "udp", "p53", "dns_resp"});
  }
  PretrainOptions options;
  options.steps = 350;
  options.batch_size = 8;
  options.max_seq_len = 16;
  fm.pretrain(corpus, {}, options);

  const auto neighbors = fm.nearest_tokens("p80", v.size());
  std::size_t rank_443 = neighbors.size(), rank_53 = neighbors.size();
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i].first == "p443") rank_443 = i;
    if (neighbors[i].first == "p53") rank_53 = i;
  }
  EXPECT_LT(rank_443, rank_53);
}

TEST(NetFM, AnalogyExcludesInputs) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto result = fm.analogy("tcp", "p80", "udp", 3);
  ASSERT_EQ(result.size(), 3u);
  for (const auto& [token, score] : result) {
    EXPECT_NE(token, "tcp");
    EXPECT_NE(token, "p80");
    EXPECT_NE(token, "udp");
  }
}

TEST(NetFM, SaveLoadRoundTrip) {
  const tok::Vocabulary v = tiny_vocab();
  const auto config = tiny_config(v.size());
  NetFM fm(v, config);
  const auto corpus = structured_corpus(10);
  PretrainOptions options;
  options.steps = 10;
  options.max_seq_len = 16;
  fm.pretrain(corpus, {}, options);

  const std::string path = "/tmp/netfm_test_model.bin";
  ASSERT_TRUE(fm.save(path));

  NetFM fresh(v, config);
  const auto before = fresh.embed({"tcp", "p80"}, 16);
  ASSERT_TRUE(fresh.load(path));
  const auto after = fresh.embed({"tcp", "p80"}, 16);
  const auto original = fm.embed({"tcp", "p80"}, 16);
  EXPECT_NE(before, after);
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_FLOAT_EQ(after[i], original[i]);
  std::remove(path.c_str());
}

TEST(FewShot, LearnsFromHandfulOfExamples) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  const auto corpus = structured_corpus(60);
  PretrainOptions options;
  options.steps = 150;
  options.max_seq_len = 16;
  fm.pretrain(corpus, {}, options);

  FewShotClassifier fewshot(fm, 16);
  // 2 examples per class.
  fewshot.add_example(corpus[0], 0);
  fewshot.add_example(corpus[2], 0);
  fewshot.add_example(corpus[1], 1);
  fewshot.add_example(corpus[3], 1);
  EXPECT_EQ(fewshot.num_classes(), 2u);

  int correct = 0;
  for (std::size_t i = 4; i < 24; ++i)
    if (fewshot.predict(corpus[i]) == static_cast<int>(i % 2)) ++correct;
  EXPECT_GE(correct, 18);
}

TEST(FewShot, EmptyPredictsNegative) {
  const tok::Vocabulary v = tiny_vocab();
  NetFM fm(v, tiny_config(v.size()));
  FewShotClassifier fewshot(fm, 16);
  EXPECT_EQ(fewshot.predict({"tcp"}), -1);
  EXPECT_THROW(fewshot.add_example({"tcp"}, -2), std::invalid_argument);
}

}  // namespace
}  // namespace netfm::core
