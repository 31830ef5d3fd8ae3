// Golden bits: the exact outputs of a fixed tiny model, pinned as hexfloats.
//
// Every route below runs the transcendental kernels (GELU's tanh, the
// softmax exp, the GRU's sigmoid and tanh) together with the GEMM, layer
// norm, dropout and Adam. The pinned values were produced by the
// libm-backed build these kernels replaced; they hold on every kernel
// backend because every backend is bitwise equal to the scalar oracle.
// A change that moves one bit anywhere on these routes fails here, with the
// new value printed next to the pinned one.
//
// Float tanh and exp come from the in-repo ports, not libm. The routes still
// call the host libm elsewhere: logf in log_softmax and cross_entropy, powf
// in Adam, the double exp and log in TrafficLM::score and sample. On a host
// whose libm rounds those differently these values can move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/gru.h"

namespace netfm {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FNV-1a over the bit patterns: any changed bit changes the digest.
std::string digest(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (float f : v) {
    h ^= std::bit_cast<std::uint32_t>(f);
    h *= 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

tok::Vocabulary vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt", "tls_ch"})
    v.add(t);
  return v;
}

std::vector<std::vector<std::string>> corpus() {
  return {{"tcp", "p443", "fl_S", "dir_up", "tls_ch", "pkt"},
          {"udp", "p53", "dns_query", "d_www", "dir_up"},
          {"udp", "p53", "dns_resp", "d_video", "dir_dn", "pkt"},
          {"tcp", "p80", "fl_SA", "dir_dn", "pkt", "pkt", "pkt"},
          {"tcp", "p443", "tls_ch", "d_video", "dir_dn"},
          {"udp", "p53", "dns_query", "d_video"}};
}

model::TransformerConfig config(std::size_t vocab_size) {
  auto c = model::TransformerConfig::tiny(vocab_size);
  c.max_seq_len = 16;
  c.dropout = 0.1f;
  return c;
}

TEST(GoldenBits, TrafficLmTrainScoreSampleLogits) {
  core::TrafficLM lm(vocab(), config(vocab().size()));
  core::LmTrainOptions opt;
  opt.steps = 4;
  opt.batch_size = 4;
  opt.max_seq_len = 16;
  opt.warmup_steps = 2;
  opt.peak_lr = 3e-3f;
  opt.seed = 5;
  const core::TrainLog log = lm.train(corpus(), opt);
  ASSERT_EQ(log.losses.size(), 4u);
  EXPECT_EQ(hex(log.losses[0]), "0x1.7f1906p+1");
  EXPECT_EQ(hex(log.losses[1]), "0x1.7a33bp+1");
  EXPECT_EQ(hex(log.losses[2]), "0x1.76024ap+1");
  EXPECT_EQ(hex(log.losses[3]), "0x1.6e40ccp+1");

  EXPECT_EQ(hex(lm.loss(corpus(), 16)), "0x1.68eee4p+1");
  EXPECT_EQ(hex(lm.score(corpus()[0])), "0x1.67615d56fda1ap+1");
  EXPECT_EQ(hex(lm.score(corpus()[3])), "0x1.66c6989f18138p+1");

  const std::vector<int> ids = {tok::Vocabulary::kCls, lm.vocab().id("tcp"),
                                lm.vocab().id("p443")};
  const std::vector<float> logits = lm.next_logits(ids);
  EXPECT_EQ(digest(logits), "cfea69f6990fb3de");
  EXPECT_EQ(hex(logits[0]), "-0x1.dcbcf2p-3");
  EXPECT_EQ(hex(logits[5]), "0x1.a54c28p-3");

  Rng rng(11);
  core::SampleOptions so;
  so.max_tokens = 10;
  std::string sampled;
  for (int i = 0; i < 3; ++i)
    for (const std::string& t : lm.sample(so, rng)) sampled += t + " ";
  EXPECT_EQ(sampled,
            "udp tcp p80 dns_query tcp p443 d_www tls_ch fl_S p80 p443 dir_dn "
            "tcp p53 dir_dn ");
}

TEST(GoldenBits, NetFmPretrainStepAndEmbed) {
  core::NetFM fm(vocab(), config(vocab().size()));
  core::PretrainOptions opt;
  opt.steps = 2;
  opt.batch_size = 4;
  opt.max_seq_len = 16;
  opt.warmup_steps = 1;
  opt.peak_lr = 3e-3f;
  opt.mask_prob = 0.3;
  opt.seed = 13;
  const core::TrainLog log = fm.pretrain(corpus(), {}, opt);
  ASSERT_EQ(log.losses.size(), 2u);
  EXPECT_EQ(hex(log.losses[0]), "0x1.7bf704p+1");
  EXPECT_EQ(hex(log.losses[1]), "0x1.7189e8p+1");

  const std::vector<float> e = fm.embed(corpus()[1], 16);
  EXPECT_EQ(digest(e), "a64112387a9f6949");
  EXPECT_EQ(hex(e[0]), "0x1.2f0ab2p+0");
  EXPECT_EQ(hex(fm.mlm_loss(corpus(), 16)), "0x1.80624p+1");
}

TEST(GoldenBits, GruForward) {
  model::GruConfig c;
  c.vocab_size = 20;
  c.embed_dim = 8;
  c.hidden_dim = 12;
  c.num_classes = 3;
  c.seed = 17;
  model::GruClassifier gru(c);
  const std::vector<int> ids = {3, 7, 1, 19, 4, 4, 0, 12};
  const nn::Tensor out = gru.forward(ids, /*train=*/false);
  const std::vector<float> v(out.data().begin(), out.data().end());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(hex(v[0]), "-0x1.4d012p-4");
  EXPECT_EQ(hex(v[1]), "0x1.3e6c9p-5");
  EXPECT_EQ(hex(v[2]), "0x1.68ap-5");
}

}  // namespace
}  // namespace netfm
