// Word2Vec skip-gram, trace anonymizer, and the causal TrafficLM.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "core/traffic_lm.h"
#include "net/anonymize.h"
#include "nn/word2vec.h"
#include "trafficgen/generator.h"

namespace netfm {
namespace {

TEST(Word2Vec, CooccurringTokensEndUpClose) {
  // Tokens 1,2 interchange in one template; 3,4 in another.
  std::vector<std::vector<int>> corpus;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const int web = rng.chance(0.5) ? 1 : 2;
    corpus.push_back({5, web, 6, web, 7});
    const int dns = rng.chance(0.5) ? 3 : 4;
    corpus.push_back({8, dns, 9, dns, 10});
  }
  nn::Word2VecConfig config;
  config.dim = 16;
  config.epochs = 3;
  nn::Word2Vec w2v(11, config);
  w2v.train(corpus);
  EXPECT_GT(w2v.similarity(1, 2), w2v.similarity(1, 3));
  EXPECT_GT(w2v.similarity(3, 4), w2v.similarity(2, 4));
  const auto nearest = w2v.nearest(1, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].first, 2);
}

TEST(Word2Vec, HandlesEmptyAndOutOfRange) {
  nn::Word2VecConfig config;
  nn::Word2Vec w2v(5, config);
  w2v.train({});  // no tokens: no-op
  std::vector<std::vector<int>> corpus = {{0, -1, 99, 1}};  // bad ids skipped
  EXPECT_NO_THROW(w2v.train(corpus));
  EXPECT_EQ(w2v.vectors().size(), 5u * config.dim);
}

TEST(Anonymizer, DeterministicAndKeyed) {
  const TraceAnonymizer a1({.key = 1});
  const TraceAnonymizer a2({.key = 1});
  const TraceAnonymizer a3({.key = 2});
  const Ipv4Addr addr = Ipv4Addr::from_octets(10, 1, 2, 3);
  EXPECT_EQ(a1.anonymize(addr), a2.anonymize(addr));
  EXPECT_NE(a1.anonymize(addr), a3.anonymize(addr));
  EXPECT_NE(a1.anonymize(addr), addr);
}

TEST(Anonymizer, PreservesPrefixRelationships) {
  const TraceAnonymizer anon({.key = 7});
  const Ipv4Addr a = Ipv4Addr::from_octets(10, 1, 2, 3);
  const Ipv4Addr b = Ipv4Addr::from_octets(10, 1, 2, 77);    // same /24
  const Ipv4Addr c = Ipv4Addr::from_octets(10, 1, 9, 3);     // same /16
  const Ipv4Addr d = Ipv4Addr::from_octets(192, 168, 2, 3);  // different
  const auto aa = anon.anonymize(a);
  const auto ab = anon.anonymize(b);
  const auto ac = anon.anonymize(c);
  const auto ad = anon.anonymize(d);
  EXPECT_EQ(aa.value >> 8, ab.value >> 8);    // /24 preserved
  EXPECT_EQ(aa.value >> 16, ac.value >> 16);  // /16 preserved
  EXPECT_NE(aa.value >> 24, ad.value >> 24);  // distinct first octets stay
  EXPECT_NE(aa.value, ab.value);              // but hosts still differ
}

TEST(Anonymizer, MacLosesOuiKeepsDistinctness) {
  const TraceAnonymizer anon({.key = 9});
  const MacAddr m1 = MacAddr::from_id(111);
  const MacAddr m2 = MacAddr::from_id(222);
  const MacAddr a1 = anon.anonymize(m1);
  const MacAddr a2 = anon.anonymize(m2);
  EXPECT_EQ(a1.octets[0], 0x06);
  EXPECT_NE(a1, a2);
  EXPECT_EQ(a1, anon.anonymize(m1));
}

TEST(Anonymizer, FramesStayWellFormedWithValidChecksums) {
  const auto trace = gen::quick_trace(5.0, 13);
  const TraceAnonymizer anon({.key = 42});
  std::vector<Packet> packets = trace.interleaved;
  const std::size_t rewritten = anon.anonymize_trace(packets);
  EXPECT_EQ(rewritten, packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto parsed = parse_packet(BytesView{packets[i].frame});
    ASSERT_TRUE(parsed.has_value()) << "frame " << i;
    ASSERT_TRUE(parsed->ipv4.has_value());
    // IP header checksum verifies.
    const std::size_t ihl = parsed->ipv4->header_length();
    EXPECT_EQ(internet_checksum(
                  BytesView{packets[i].frame}.subspan(14, ihl)),
              0);
    // L4 checksum verifies (UDP 0xffff handled by the writer convention).
    const std::size_t l4_at = 14 + ihl;
    const std::size_t l4_len = packets[i].frame.size() - l4_at;
    if (parsed->tcp) {
      EXPECT_EQ(l4_checksum_ipv4(
                    *parsed->ipv4, IpProto::kTcp,
                    BytesView{packets[i].frame}.subspan(l4_at, l4_len)),
                0);
    }
    // Addresses actually changed.
    const auto original = parse_packet(BytesView{trace.interleaved[i].frame});
    EXPECT_NE(parsed->ipv4->src, original->ipv4->src);
  }
}

TEST(Anonymizer, FlowStructureSurvives) {
  // Anonymization must not merge or split flows.
  const auto trace = gen::quick_trace(10.0, 17);
  std::vector<Packet> packets = trace.interleaved;
  TraceAnonymizer anon({.key = 5});
  anon.anonymize_trace(packets);
  FlowTable original_table, anon_table;
  for (const Packet& p : trace.interleaved) original_table.add(p);
  for (const Packet& p : packets) anon_table.add(p);
  original_table.flush();
  anon_table.flush();
  EXPECT_EQ(original_table.finished().size(), anon_table.finished().size());
}

TEST(Anonymizer, ScrubReplacesPayloadKeepsLength) {
  const auto trace = gen::quick_trace(3.0, 19);
  // Find a packet with a TCP payload.
  std::size_t target = trace.interleaved.size();
  for (std::size_t i = 0; i < trace.interleaved.size(); ++i) {
    const auto parsed = parse_packet(BytesView{trace.interleaved[i].frame});
    if (parsed && parsed->tcp && parsed->l4_payload.size() > 20) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, trace.interleaved.size());
  Bytes frame = trace.interleaved[target].frame;
  const TraceAnonymizer anon({.key = 3, .scrub_payloads = true});
  ASSERT_TRUE(anon.anonymize_frame(frame));
  EXPECT_EQ(frame.size(), trace.interleaved[target].frame.size());
  const auto parsed = parse_packet(BytesView{frame});
  ASSERT_TRUE(parsed.has_value());
  const auto original = parse_packet(BytesView{trace.interleaved[target].frame});
  EXPECT_NE(Bytes(parsed->l4_payload.begin(), parsed->l4_payload.end()),
            Bytes(original->l4_payload.begin(), original->l4_payload.end()));
}

TEST(TrafficLM, LearnsTemplateGrammar) {
  // Grammar: class-0 contexts "tcp p80 fl_S", class-1 "udp p53 dns_query".
  tok::Vocabulary vocab;
  for (const char* t : {"tcp", "udp", "p80", "p53", "fl_S", "dns_query"})
    vocab.add(t);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 12;
  config.dropout = 0.0f;
  core::TrafficLM lm(vocab, config);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back({"tcp", "p80", "fl_S"});
    corpus.push_back({"udp", "p53", "dns_query"});
  }
  const double before = lm.loss(corpus, 12);
  core::LmTrainOptions options;
  options.steps = 150;
  options.max_seq_len = 12;
  lm.train(corpus, options);
  const double after = lm.loss(corpus, 12);
  EXPECT_LT(after, before * 0.5);

  // Samples respect the grammar: "tcp" is followed by "p80", never "p53".
  Rng rng(23);
  core::SampleOptions sampling;
  sampling.max_tokens = 6;
  sampling.temperature = 0.5;
  std::size_t checked = 0;
  for (int i = 0; i < 30; ++i) {
    const auto tokens = lm.sample(sampling, rng);
    for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
      if (tokens[t] == "tcp") {
        EXPECT_NE(tokens[t + 1], "p53");
        ++checked;
      }
      if (tokens[t] == "udp") {
        EXPECT_NE(tokens[t + 1], "p80");
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(TrafficLM, SamplesNeverContainSpecials) {
  tok::Vocabulary vocab;
  vocab.add("a");
  vocab.add("b");
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 8;
  core::TrafficLM lm(vocab, config);
  Rng rng(29);
  core::SampleOptions options;
  options.max_tokens = 6;
  for (int i = 0; i < 20; ++i) {
    const auto tokens = lm.sample(options, rng);
    EXPECT_LE(tokens.size(), 6u);
    for (const std::string& t : tokens) EXPECT_NE(t[0], '[');
  }
}

TEST(TrafficLM, TopKRestrictsSampling) {
  tok::Vocabulary vocab;
  for (const char* t : {"x", "y", "z", "w"}) vocab.add(t);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 8;
  config.dropout = 0.0f;
  core::TrafficLM lm(vocab, config);
  // Train so "x" dominates.
  std::vector<std::vector<std::string>> corpus(40, {"x", "x", "x"});
  core::LmTrainOptions options;
  options.steps = 80;
  options.max_seq_len = 8;
  lm.train(corpus, options);
  Rng rng(31);
  core::SampleOptions sampling;
  sampling.top_k = 1;
  sampling.max_tokens = 3;
  for (int i = 0; i < 10; ++i)
    for (const std::string& t : lm.sample(sampling, rng))
      EXPECT_EQ(t, "x");
}

TEST(TrafficLM, LossIsTokenWeightedAcrossRaggedBatches) {
  // 9 sequences against the internal batch size of 8: the final batch
  // holds one short sequence. Correct aggregation weights each internal
  // batch by its active-target count; the old code averaged per-batch
  // means, over-weighting the ragged tail.
  tok::Vocabulary vocab;
  for (const char* t : {"tcp", "udp", "p80", "p53", "fl_S", "dns_query"})
    vocab.add(t);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 16;
  config.dropout = 0.0f;
  const core::TrafficLM lm(vocab, config);

  std::vector<std::vector<std::string>> head;  // first internal batch (8)
  Rng rng(7);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<std::string> seq;
    for (std::size_t j = 0; j < 4 + i; ++j)
      seq.push_back(vocab.token(static_cast<int>(
          tok::Vocabulary::kNumSpecial +
          rng.uniform(vocab.size() - tok::Vocabulary::kNumSpecial))));
    head.push_back(std::move(seq));
  }
  const std::vector<std::vector<std::string>> tail = {{"udp", "p53"}};
  std::vector<std::vector<std::string>> corpus = head;
  corpus.push_back(tail[0]);

  // Active next-token targets per sequence: [CLS] t1..tN [SEP] (possibly
  // truncated to max_seq_len) predicts at every position but the last.
  const auto active_targets = [&](const std::vector<std::string>& seq) {
    return std::min<std::size_t>(seq.size() + 2, config.max_seq_len) - 1;
  };
  std::size_t n_head = 0, n_tail = 0;
  for (const auto& seq : head) n_head += active_targets(seq);
  for (const auto& seq : tail) n_tail += active_targets(seq);

  // Sub-corpora of <= 8 sequences run as single internal batches whose
  // forwards are bitwise-identical to the full corpus's two batches, so
  // the token-weighted identity must hold to double rounding.
  const double full = lm.loss(corpus, config.max_seq_len);
  const double head_mean = lm.loss(head, config.max_seq_len);
  const double tail_mean = lm.loss(tail, config.max_seq_len);
  ASSERT_NE(head_mean, tail_mean);  // else weighting would be untestable
  const double expected =
      (head_mean * static_cast<double>(n_head) +
       tail_mean * static_cast<double>(n_tail)) /
      static_cast<double>(n_head + n_tail);
  EXPECT_NEAR(full, expected, 1e-12);
  // The buggy mean-of-means disagrees: make sure the test can tell.
  EXPECT_GT(std::abs((head_mean + tail_mean) / 2.0 - expected), 1e-6);
}

TEST(TrafficLM, SampleClampsHugeMaxTokens) {
  tok::Vocabulary vocab;
  for (const char* t : {"tcp", "udp", "p80"}) vocab.add(t);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 12;
  config.dropout = 0.0f;
  const core::TrafficLM lm(vocab, config);
  core::SampleOptions options;
  // max_tokens + 1 used to wrap to 0 and emit nothing.
  options.max_tokens = std::numeric_limits<std::size_t>::max();
  Rng rng(3);
  const auto sampled = lm.sample(options, rng);
  EXPECT_FALSE(sampled.empty());
  EXPECT_LE(sampled.size() + 1, config.max_seq_len);
}

TEST(TrafficLM, RejectsEmptyCorpus) {
  tok::Vocabulary vocab;
  vocab.add("a");
  core::TrafficLM lm(vocab, model::TransformerConfig::tiny(vocab.size()));
  EXPECT_THROW(lm.train(std::vector<std::vector<std::string>>{}, {}),
               std::invalid_argument);
}

TEST(CausalEncoder, FuturePositionsGetNoAttention) {
  auto config = model::TransformerConfig::tiny(16);
  config.max_seq_len = 8;
  config.causal = true;
  model::TransformerEncoder encoder(config);
  model::Batch batch;
  batch.batch_size = 1;
  batch.seq_len = 6;
  batch.token_ids = {1, 2, 3, 4, 5, 6};
  batch.segment_ids.assign(6, 0);
  batch.attention_mask.assign(6, 1.0f);
  for (const nn::Tensor& attn : encoder.attentions(batch))
    for (std::size_t h = 0; h < config.num_heads; ++h)
      for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = i + 1; j < 6; ++j)
          EXPECT_LT(attn.data()[(h * 6 + i) * 6 + j], 1e-6f);
}

TEST(CausalEncoder, PrefixOutputsUnaffectedBySuffix) {
  // With causal attention, changing a later token must not change the
  // hidden states of earlier positions.
  auto config = model::TransformerConfig::tiny(16);
  config.max_seq_len = 8;
  config.causal = true;
  config.dropout = 0.0f;
  model::TransformerEncoder encoder(config);
  model::Batch a;
  a.batch_size = 1;
  a.seq_len = 5;
  a.token_ids = {1, 2, 3, 4, 5};
  a.segment_ids.assign(5, 0);
  a.attention_mask.assign(5, 1.0f);
  model::Batch b = a;
  b.token_ids[4] = 9;
  const nn::Tensor ha = encoder.forward(a);
  const nn::Tensor hb = encoder.forward(b);
  const std::size_t d = config.d_model;
  for (std::size_t i = 0; i < 4 * d; ++i)
    EXPECT_NEAR(ha.data()[i], hb.data()[i], 1e-5f);
}

}  // namespace
}  // namespace netfm
