// Inference fast path: no-grad execution, the per-thread workspace, the
// attention-probability op, KV-cached decoding, and batched embedding.
//
// The fast path's contract is *bitwise* equivalence with the recording
// route: every test here compares floats with exact equality, and the
// routes are exercised both single-threaded (NETFM_THREADS=1 equivalent,
// via ThreadPool::reset_global(1)) and on the default pool. Part of the
// `infer` ctest label, which the CI concurrency lane also runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/threadpool.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/heads.h"
#include "model/kv_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/optim.h"
#include "nn/packed.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace netfm {
namespace {

using nn::Tensor;
namespace kernels = nn::kernels;

/// Restores the backend active at construction (usually the dispatched
/// default) so tests can switch freely.
struct BackendGuard {
  kernels::Backend saved = kernels::active();
  ~BackendGuard() { kernels::set_backend(saved); }
};

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt"})
    v.add(t);
  return v;
}

model::TransformerConfig tiny_config(std::size_t vocab) {
  auto config = model::TransformerConfig::tiny(vocab);
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  return config;
}

/// Runs `body` once on a single-thread pool and once on the default pool.
template <typename Fn>
void with_thread_counts(Fn&& body) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ThreadPool::reset_global(threads);
    body();
  }
  ThreadPool::reset_global(0);
}

TEST(InferenceGuard, NestsAndRestores) {
  EXPECT_FALSE(nn::inference_mode());
  {
    nn::InferenceGuard outer;
    EXPECT_TRUE(nn::inference_mode());
    {
      nn::InferenceGuard inner;
      EXPECT_TRUE(nn::inference_mode());
    }
    EXPECT_TRUE(nn::inference_mode());
  }
  EXPECT_FALSE(nn::inference_mode());
}

TEST(InferenceGuard, OpsBuildNoGraph) {
  Rng rng(11);
  const Tensor w = Tensor::randn({8, 8}, rng, 0.5f, /*requires_grad=*/true);
  const Tensor x = Tensor::randn({4, 8}, rng, 0.5f, /*requires_grad=*/false);
  nn::InferenceGuard guard;
  const Tensor y = nn::gelu(nn::matmul(x, w));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(y.node()->backward));
}

TEST(InferenceGuard, ForwardBitwiseEqualsGradRoute) {
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  std::vector<core::Encoded> items = {
      core::encode_context({"tcp", "p80", "d_www"}, vocab, 12),
      core::encode_context({"udp", "p53", "dns_query", "dns_resp", "pkt"},
                           vocab, 12)};
  const model::Batch batch = core::make_batch(items);

  const Tensor reference = encoder.forward(batch, /*train=*/false);
  ASSERT_TRUE(reference.requires_grad());  // recording route built a graph

  with_thread_counts([&] {
    nn::InferenceGuard guard;
    const Tensor fast = encoder.forward(batch, /*train=*/false);
    EXPECT_FALSE(fast.requires_grad());
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      ASSERT_EQ(fast.data()[i], reference.data()[i]) << "element " << i;
  });
}

/// Checks attention_probs, its backward and its no-grad route bitwise
/// against the composed route matmul(q, k^T) -> scale -> hidden scores set
/// to -1e9 (mul by 1/0, add 0/-1e9) -> full-row softmax, causal and
/// bidirectional, at every thread count. `key_valid` holds t flags per
/// sequence; a row that sees no key must come out uniform.
void expect_attention_probs_match_composed(
    std::shared_ptr<const std::vector<float>> key_valid, std::size_t heads,
    std::size_t t, std::size_t dk, std::uint64_t seed) {
  const std::size_t bh = key_valid->size() / t * heads;
  const float kScale = 0.25f;
  Rng rng(seed);
  const Tensor q = Tensor::randn({bh, t, dk}, rng, 1.0f, false);
  const Tensor k = Tensor::randn({bh, t, dk}, rng, 1.0f, false);
  const Tensor weights = Tensor::randn({bh, t, t}, rng, 1.0f, false);

  const auto leaf = [](const Tensor& src) {
    const std::vector<float> values(src.data().begin(), src.data().end());
    return Tensor(src.shape(), values, /*requires_grad=*/true);
  };
  const auto expect_bitwise = [](std::span<const float> got,
                                 std::span<const float> want,
                                 const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  };

  for (const bool causal : {false, true}) {
    SCOPED_TRACE(causal ? "causal" : "bidirectional");
    std::vector<float> keep(bh * t * t), fill(bh * t * t);
    std::vector<std::size_t> blind_rows;
    for (std::size_t lane = 0; lane < bh; ++lane)
      for (std::size_t i = 0; i < t; ++i) {
        bool any = false;
        for (std::size_t j = 0; j < t; ++j) {
          const bool visible = (!causal || j <= i) &&
                               (*key_valid)[lane / heads * t + j] != 0.0f;
          keep[(lane * t + i) * t + j] = visible ? 1.0f : 0.0f;
          fill[(lane * t + i) * t + j] = visible ? 0.0f : -1e9f;
          any = any || visible;
        }
        if (!any) blind_rows.push_back(lane * t + i);
      }
    const Tensor keep_t({bh, t, t}, keep), fill_t({bh, t, t}, fill);
    Tensor oq = leaf(q), ok = leaf(k);
    const Tensor oracle = nn::softmax(nn::add(
        nn::mul(nn::scale(nn::matmul(oq, nn::transpose(ok)), kScale), keep_t),
        fill_t));
    nn::sum(nn::mul(oracle, weights)).backward();

    const nn::KeyMask mask{key_valid, heads, causal};
    with_thread_counts([&] {
      Tensor fq = leaf(q), fk = leaf(k);
      const Tensor probs = nn::attention_probs(fq, fk, mask, kScale);
      expect_bitwise(probs.data(), oracle.data(), "probs");
      nn::sum(nn::mul(probs, weights)).backward();
      expect_bitwise(fq.grad(), oq.grad(), "q.grad");
      expect_bitwise(fk.grad(), ok.grad(), "k.grad");
      for (const std::size_t r : blind_rows)
        for (std::size_t j = 0; j < t; ++j)
          ASSERT_EQ(probs.data()[r * t + j], 1.0f / static_cast<float>(t))
              << "row " << r;

      nn::InferenceGuard guard;
      const Tensor fast = nn::attention_probs(q, k, mask, kScale);
      EXPECT_FALSE(fast.requires_grad());
      expect_bitwise(fast.data(), oracle.data(), "no-grad probs");
    });
  }
}

TEST(AttentionProbs, BitwiseEqualsComposedOps) {
  // Four sequences of 16 keys, 4 heads: one sees every key, one has a
  // ragged padded tail, one is all padding (its rows must come out
  // uniform), and one is left-padded, so its first causal rows see no key
  // and the later ones some.
  {
    SCOPED_TRACE("t=16 heads=4");
    const std::size_t t = 16;
    auto key_valid = std::make_shared<std::vector<float>>(4 * t, 1.0f);
    for (std::size_t j = 11; j < t; ++j) (*key_valid)[t + j] = 0.0f;
    for (std::size_t j = 0; j < t; ++j) (*key_valid)[2 * t + j] = 0.0f;
    for (std::size_t j = 0; j < 5; ++j) (*key_valid)[3 * t + j] = 0.0f;
    expect_attention_probs_match_composed(key_valid, 4, t, 16, 31);
  }
  // t = 13 and 3 heads, so the row -> (sequence, position) split crosses
  // lane and sequence boundaries that are not powers of two: a full
  // sequence, a left-padded one, a padded tail, and holes mid-sequence.
  {
    SCOPED_TRACE("t=13 heads=3");
    const std::size_t t = 13;
    auto key_valid = std::make_shared<std::vector<float>>(4 * t, 1.0f);
    for (std::size_t j = 0; j < 4; ++j) (*key_valid)[t + j] = 0.0f;
    for (std::size_t j = 9; j < t; ++j) (*key_valid)[2 * t + j] = 0.0f;
    for (std::size_t j = 1; j < t; j += 3) (*key_valid)[3 * t + j] = 0.0f;
    expect_attention_probs_match_composed(key_valid, 3, t, 8, 32);
  }
}

TEST(AttentionProbs, RejectsMisSizedKeyMask) {
  Rng rng(7);
  const Tensor q = Tensor::randn({4, 3, 4}, rng, 1.0f, true);
  const Tensor k = Tensor::randn({4, 3, 4}, rng, 1.0f, false);
  // Two sequences x two heads x three keys needs six flags.
  auto short_mask = std::make_shared<const std::vector<float>>(5, 1.0f);
  EXPECT_THROW(nn::attention_probs(q, k, {short_mask, 2, false}, 1.0f),
               std::invalid_argument);
  auto mask = std::make_shared<const std::vector<float>>(6, 1.0f);
  EXPECT_THROW(nn::attention_probs(q, k, {mask, 3, false}, 1.0f),
               std::invalid_argument);
  EXPECT_THROW(nn::attention_probs(q, k, {nullptr, 2, false}, 1.0f),
               std::invalid_argument);
  EXPECT_NO_THROW(nn::attention_probs(q, k, {mask, 2, true}, 1.0f));
}

TEST(KvCache, DecodeBitwiseEqualsFullRecompute) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  std::vector<int> ids = {tok::Vocabulary::kCls};
  for (const char* t : {"tcp", "p80", "fl_S", "dir_up", "pkt", "d_www",
                        "udp", "p53", "dns_query", "dns_resp"})
    ids.push_back(vocab.id(t));

  with_thread_counts([&] {
    core::LmDecoder decoder(lm);
    for (std::size_t t = 0; t < ids.size(); ++t) {
      const std::vector<float> fast = decoder.advance(ids[t]);
      const std::vector<float> reference =
          lm.next_logits(std::span<const int>(ids.data(), t + 1));
      ASSERT_EQ(fast.size(), reference.size());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast[i], reference[i]) << "step " << t << " logit " << i;
    }
    EXPECT_EQ(decoder.cached_tokens(), ids.size());
  });
}

TEST(KvCache, ResetReplaysFromColdCache) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {tok::Vocabulary::kCls, vocab.id("tcp"),
                                vocab.id("p443"), vocab.id("fl_SA")};
  core::LmDecoder decoder(lm);
  std::vector<std::vector<float>> first;
  for (int id : ids) first.push_back(decoder.advance(id));
  decoder.reset();
  EXPECT_EQ(decoder.cached_tokens(), 0u);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = decoder.advance(ids[t]);
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]);
  }
}

TEST(KvCache, CacheFullAndGeometryChecks) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 4;
  const core::TrafficLM lm(vocab, config);
  core::LmDecoder decoder(lm);
  for (int t = 0; t < 4; ++t) decoder.advance(tok::Vocabulary::kCls);
  EXPECT_THROW(decoder.advance(tok::Vocabulary::kCls), std::invalid_argument);
}

TEST(KvCache, ScoreMatchesUncachedReference) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::string> tokens = {"tcp", "p80", "fl_S", "pkt"};
  const double cached = lm.score(tokens);

  // Same framing and the same log-softmax arithmetic over the uncached
  // reference logits; cached logits are bitwise-equal, so the scores are.
  std::vector<int> ids = {tok::Vocabulary::kCls};
  for (const auto& t : tokens) ids.push_back(vocab.id(t));
  ids.push_back(tok::Vocabulary::kSep);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const std::vector<float> logits =
        lm.next_logits(std::span<const int>(ids.data(), t + 1));
    float maxv = logits[0];
    for (float v : logits) maxv = std::max(maxv, v);
    double denom = 0.0;
    for (float v : logits) denom += std::exp(static_cast<double>(v - maxv));
    total -= static_cast<double>(
                 logits[static_cast<std::size_t>(ids[t + 1])] - maxv) -
             std::log(denom);
    ++count;
  }
  EXPECT_DOUBLE_EQ(cached, total / static_cast<double>(count));
}

TEST(EmbedFlows, BitwiseEqualsPerFlowLoop) {
  const tok::Vocabulary vocab = tiny_vocab();
  core::NetFM fm(vocab, tiny_config(vocab.size()));
  const std::vector<std::vector<std::string>> flows = {
      {"tcp", "p80", "d_www"},
      {"udp", "p53", "dns_query", "dns_resp"},
      {"tcp", "p443", "fl_S", "fl_SA", "dir_up", "dir_dn"},
  };
  // The batch runs at its longest flow's 8 positions and each single flow
  // at its own: window 4 truncates, 8 fits the longest flow exactly, and
  // 16 and 24 leave padding that neither route computes.
  with_thread_counts([&] {
    for (const std::size_t window : {4, 8, 16, 24}) {
      const auto batched = fm.embed_flows(flows, window);
      ASSERT_EQ(batched.size(), flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f) {
        const std::vector<float> single = fm.embed(flows[f], window);
        ASSERT_EQ(batched[f].size(), single.size());
        for (std::size_t d = 0; d < single.size(); ++d)
          ASSERT_EQ(batched[f][d], single[d])
              << "window " << window << " flow " << f << " dim " << d;
      }
    }
  });
  EXPECT_TRUE(fm.embed_flows({}, 16).empty());
}

TEST(Workspace, RecyclesBuffersAcrossForwards) {
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  const model::Batch batch = model::Batch::single(std::vector<int>{
      tok::Vocabulary::kCls, vocab.id("tcp"), vocab.id("p80"),
      tok::Vocabulary::kSep});

  nn::Workspace::current().clear();
  // Warm-up: the pool sizes itself over the first few passes. bytes_held()
  // counts heap capacity, so it also sees the transient reallocs while
  // request/buffer pairing settles (a big request landing on a smaller
  // recycled block grows it in place); a handful of passes reaches the
  // fixed point.
  std::size_t warm_bytes = 0;
  for (int pass = 0; pass < 8; ++pass) {
    nn::InferenceGuard guard;
    encoder.forward(batch, /*train=*/false);
    const std::size_t held = nn::Workspace::current().bytes_held();
    if (held == warm_bytes) break;
    warm_bytes = held;
  }
  EXPECT_GT(warm_bytes, 0u);
  // Steady state: every further pass draws each buffer from the free list
  // and returns it — zero capacity growth.
  for (int pass = 0; pass < 3; ++pass) {
    nn::InferenceGuard guard;
    encoder.forward(batch, /*train=*/false);
    EXPECT_EQ(nn::Workspace::current().bytes_held(), warm_bytes)
        << "steady-state pass " << pass << " grew the pool";
  }
  nn::Workspace::current().clear();
}

TEST(Workspace, AcquireReusesReleasedCapacity) {
  nn::Workspace& ws = nn::Workspace::current();
  ws.clear();
  nn::FloatBuffer a = ws.acquire(256);
  const float* block = a.data();
  ws.release(std::move(a));
  nn::FloatBuffer b = ws.acquire(256);
  EXPECT_EQ(b.data(), block);  // same heap block came back
  ws.release(std::move(b));
  ws.clear();
}

TEST(Workspace, ScratchInvalidatesOnReset) {
  nn::Workspace& ws = nn::Workspace::current();
  ws.clear();
  std::span<float> a = ws.scratch(64);
  std::span<float> b = ws.scratch(64);
  EXPECT_NE(a.data(), b.data());  // live spans never alias
  ws.reset_scratch();
  std::span<float> c = ws.scratch(64);
  EXPECT_EQ(c.data(), a.data());  // slabs recycle after reset
  ws.clear();
}

TEST(Workspace, PooledTensorMayOutliveGuard) {
  Tensor kept;
  {
    nn::InferenceGuard guard;
    Rng rng(3);
    const Tensor x = Tensor::randn({4, 4}, rng, 1.0f, false);
    kept = nn::gelu(x);
  }
  // Guard is gone; the pooled tensor is still valid and returns its buffer
  // whenever it dies.
  EXPECT_EQ(kept.size(), 16u);
  const float first = kept.data()[0];
  EXPECT_EQ(first, first);  // finite read, no poison
}

// ---- Paged KV & cross-session batched decode ----------------------------
//
// The batched route's contract (DESIGN.md "Paged KV & batched decode") is
// bitwise equivalence with the serial per-decoder route on every backend,
// thread count, and quant setting — so all comparisons below are exact.

/// Four equal-length token streams with distinct content (lockstep batches
/// feed one token per live stream per step).
std::vector<std::vector<int>> batch_token_ids(const tok::Vocabulary& vocab) {
  const std::vector<std::vector<const char*>> words = {
      {"tcp", "p80", "fl_S", "dir_up", "pkt", "d_www"},
      {"udp", "p53", "dns_query", "dns_resp", "pkt", "dir_dn"},
      {"tcp", "p443", "fl_SA", "d_video", "dir_dn", "pkt"},
      {"udp", "p80", "pkt", "pkt", "dir_up", "d_www"},
  };
  std::vector<std::vector<int>> ids;
  for (const auto& seq : words) {
    std::vector<int> stream = {tok::Vocabulary::kCls};
    for (const char* t : seq) stream.push_back(vocab.id(t));
    ids.push_back(std::move(stream));
  }
  return ids;
}

TEST(PagedKv, AdvanceBatchBitwiseEqualsSerialAcrossBackends) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::vector<int>> ids = batch_token_ids(vocab);
  const std::size_t batch = ids.size();
  const std::size_t steps = ids.front().size();

  BackendGuard backend_guard;
  for (kernels::Backend b : kernels::available()) {
    kernels::set_backend(b);
    with_thread_counts([&] {
      // Serial oracle: one private-pool decoder per stream.
      std::vector<std::vector<std::vector<float>>> want(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        core::LmDecoder decoder(lm);
        for (std::size_t t = 0; t < steps; ++t)
          want[i].push_back(decoder.advance(ids[i][t]));
      }

      // Batched route: every decoder draws from one shared pool.
      const auto pool = lm.make_kv_pool(batch * lm.kv_blocks_per_sequence());
      std::vector<std::unique_ptr<core::LmDecoder>> decoders;
      std::vector<core::LmDecoder*> ptrs;
      for (std::size_t i = 0; i < batch; ++i) {
        decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
        ptrs.push_back(decoders.back().get());
      }
      for (std::size_t t = 0; t < steps; ++t) {
        std::vector<int> step;
        for (std::size_t i = 0; i < batch; ++i) step.push_back(ids[i][t]);
        const std::vector<std::vector<float>> got =
            core::LmDecoder::advance_batch(ptrs, step);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(got[i].size(), want[i][t].size());
          for (std::size_t j = 0; j < got[i].size(); ++j)
            ASSERT_EQ(got[i][j], want[i][t][j])
                << kernels::backend_name(b) << " stream " << i << " step "
                << t << " logit " << j;
        }
      }
    });
  }
}

TEST(PagedKv, ScoreBatchBitwiseEqualsSerial) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  // Differing lengths: short streams fall out of the lockstep early.
  const std::vector<std::vector<std::string>> sequences = {
      {"tcp", "p80", "fl_S", "pkt"},
      {"udp", "p53", "dns_query", "dns_resp", "pkt", "dir_dn"},
      {"tcp", "p443"},
      {"udp", "p80", "pkt", "d_www", "dir_up"},
  };
  with_thread_counts([&] {
    const auto pool =
        lm.make_kv_pool(sequences.size() * lm.kv_blocks_per_sequence());
    std::vector<std::unique_ptr<core::LmDecoder>> decoders;
    std::vector<core::LmDecoder*> ptrs;
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
      ptrs.push_back(decoders.back().get());
    }
    const std::vector<double> batched = lm.score_batch(sequences, ptrs);
    ASSERT_EQ(batched.size(), sequences.size());
    for (std::size_t i = 0; i < sequences.size(); ++i)
      ASSERT_EQ(batched[i], lm.score(sequences[i])) << "sequence " << i;
  });
}

TEST(PagedKv, SampleBatchBitwiseEqualsSerial) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  std::vector<core::SampleOptions> options(3);
  options[0].max_tokens = 8;
  options[1].max_tokens = 12;
  options[1].temperature = 0.7;
  options[1].top_k = 4;
  options[2].max_tokens = 5;
  options[2].temperature = 1.3;

  with_thread_counts([&] {
    // Serial oracle, one fresh RNG per stream.
    std::vector<std::vector<std::string>> want;
    for (std::size_t i = 0; i < options.size(); ++i) {
      Rng rng(100 + i);
      want.push_back(lm.sample(options[i], rng));
    }

    const auto pool =
        lm.make_kv_pool(options.size() * lm.kv_blocks_per_sequence());
    std::vector<Rng> rngs;
    rngs.reserve(options.size());
    std::vector<Rng*> rng_ptrs;
    std::vector<std::unique_ptr<core::LmDecoder>> decoders;
    std::vector<core::LmDecoder*> ptrs;
    for (std::size_t i = 0; i < options.size(); ++i) {
      rngs.emplace_back(100 + i);
      rng_ptrs.push_back(&rngs.back());
      decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
      ptrs.push_back(decoders.back().get());
    }
    const std::vector<std::vector<std::string>> got =
        lm.sample_batch(options, rng_ptrs, ptrs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "stream " << i;
  });
}

TEST(PagedKv, PoolExhaustionIsTypedAndRollsBack) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  // A one-block pool shared by two decoders: the first advance takes the
  // only block.
  const auto pool = lm.make_kv_pool(1);
  auto first = std::make_unique<core::LmDecoder>(lm, pool);
  core::LmDecoder second(lm, pool);
  const std::vector<float> cold = first->advance(tok::Vocabulary::kCls);
  EXPECT_EQ(pool->blocks_in_use(), 1u);

  try {
    second.advance(vocab.id("tcp"));
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_TRUE(e.pool_exhausted());
  }
  // The failed advance left no trace: no tokens cached, no blocks held,
  // nothing leaked from the in-flight reservation.
  EXPECT_EQ(second.cached_tokens(), 0u);
  EXPECT_EQ(second.held_kv_blocks(), 0u);
  EXPECT_EQ(pool->blocks_in_use(), 1u);

  // Destroying the first decoder frees its block and unblocks the retry,
  // which produces exactly what the first cold advance did.
  first.reset();
  EXPECT_EQ(pool->blocks_in_use(), 0u);
  const std::vector<float> retried = second.advance(tok::Vocabulary::kCls);
  ASSERT_EQ(retried.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    ASSERT_EQ(retried[i], cold[i]) << "logit " << i;
}

TEST(PagedKv, AdvanceBatchRollsBackOnExhaustion) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  // Two fresh decoders both need a first block; the pool holds only one.
  const auto pool = lm.make_kv_pool(1);
  core::LmDecoder a(lm, pool);
  core::LmDecoder b(lm, pool);
  core::LmDecoder* ptrs[] = {&a, &b};
  const int step[] = {tok::Vocabulary::kCls, tok::Vocabulary::kCls};
  try {
    core::LmDecoder::advance_batch(ptrs, step);
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_TRUE(e.pool_exhausted());
  }
  // All-or-nothing: neither decoder advanced and the partial reservation
  // was rolled back, so the step is retryable after blocks free up.
  EXPECT_EQ(a.cached_tokens(), 0u);
  EXPECT_EQ(b.cached_tokens(), 0u);
  EXPECT_EQ(a.held_kv_blocks(), 0u);
  EXPECT_EQ(b.held_kv_blocks(), 0u);
  EXPECT_EQ(pool->blocks_in_use(), 0u);
}

TEST(PagedKv, MaxContextIsTypedButNotPoolExhaustion) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 4;
  const core::TrafficLM lm(vocab, config);
  core::LmDecoder decoder(lm);
  for (int t = 0; t < 4; ++t) decoder.advance(tok::Vocabulary::kCls);
  try {
    decoder.advance(tok::Vocabulary::kCls);
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_FALSE(e.pool_exhausted());  // at max_seq_len, pool has room
  }
}

TEST(PagedKv, ReleaseAndBlockReuseAreBitwiseInvisible) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {tok::Vocabulary::kCls, vocab.id("tcp"),
                                vocab.id("p443"), vocab.id("fl_SA"),
                                vocab.id("pkt")};

  // A pool holding exactly one sequence, so the second decoder can only
  // run on the first decoder's freed (dirty) blocks.
  const auto pool = lm.make_kv_pool(lm.kv_blocks_per_sequence());
  std::vector<std::vector<float>> first;
  {
    core::LmDecoder d1(lm, pool);
    for (int id : ids) first.push_back(d1.advance(id));
    EXPECT_GT(d1.held_kv_blocks(), 0u);
  }
  EXPECT_EQ(pool->blocks_in_use(), 0u);

  core::LmDecoder d2(lm, pool);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = d2.advance(ids[t]);
    ASSERT_EQ(replay.size(), first[t].size());
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]) << "step " << t << " logit " << i;
  }

  // And a reset decoder replays cleanly on its own dirty blocks.
  d2.reset();
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = d2.advance(ids[t]);
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]) << "step " << t << " logit " << i;
  }
}

/// TrafficLM's encoder + tied head rebuilt from the same config and seeds,
/// run on the training route (no InferenceGuard, so no packed panels):
/// next_logits copies `lm`'s current parameter values in, then does the
/// full recording forward. The oracle for the packed-weight staleness
/// tests below.
class GradRouteReplica {
 public:
  explicit GradRouteReplica(const core::TrafficLM& lm,
                            model::TransformerConfig config)
      : lm_(&lm), encoder_(causal(config, lm.vocab().size())),
        head_rng_(config.seed + 3),
        head_(encoder_.config(), encoder_.token_embeddings(), head_rng_) {}

  std::vector<float> next_logits(std::span<const int> ids) {
    nn::ParameterList mine = encoder_.parameters();
    head_.collect(mine);
    const nn::ParameterList theirs = lm_->parameters();
    EXPECT_EQ(mine.size(), theirs.size());
    for (std::size_t i = 0; i < mine.size() && i < theirs.size(); ++i) {
      EXPECT_EQ(mine[i].name, theirs[i].name);
      std::copy(theirs[i].tensor.data().begin(), theirs[i].tensor.data().end(),
                mine[i].tensor.data().begin());
    }
    EXPECT_FALSE(nn::inference_mode());
    const Tensor hidden = encoder_.forward(model::Batch::single(ids));
    const Tensor logits = head_.forward(hidden);
    const std::size_t vocab = lm_->vocab().size();
    const auto last = logits.data().begin() +
                      static_cast<std::ptrdiff_t>((ids.size() - 1) * vocab);
    return {last, last + static_cast<std::ptrdiff_t>(vocab)};
  }

 private:
  static model::TransformerConfig causal(model::TransformerConfig config,
                                         std::size_t vocab) {
    config.vocab_size = vocab;
    config.causal = true;
    return config;
  }

  const core::TrafficLM* lm_;
  model::TransformerEncoder encoder_;
  Rng head_rng_;
  model::MlmHead head_;
};

std::vector<std::vector<std::string>> tiny_corpus() {
  return {{"tcp", "p80", "fl_S", "dir_up", "pkt"},
          {"udp", "p53", "dns_query", "dns_resp"},
          {"tcp", "p443", "fl_SA", "d_video", "dir_dn", "pkt"}};
}

TEST(PackedWeights, NextLogitsFreshAfterAdamStep) {
  const tok::Vocabulary vocab = tiny_vocab();
  const auto config = tiny_config(vocab.size());
  core::TrafficLM lm(vocab, config);
  GradRouteReplica replica(lm, config);
  const std::vector<int> ids = batch_token_ids(vocab)[0];

  // Warm every layer's panels, then move the weights under them.
  const std::vector<float> before = lm.next_logits(ids);
  EXPECT_EQ(before, replica.next_logits(ids));
  core::LmTrainOptions options;
  options.steps = 2;
  options.batch_size = 2;
  options.warmup_steps = 1;
  lm.train(tiny_corpus(), options);

  const std::vector<float> after = lm.next_logits(ids);
  EXPECT_NE(after, before);  // the Adam steps really moved the weights
  EXPECT_EQ(after, replica.next_logits(ids));
}

TEST(PackedWeights, NextLogitsFreshAfterCheckpointLoad) {
  const tok::Vocabulary vocab = tiny_vocab();
  const auto config = tiny_config(vocab.size());
  core::TrafficLM lm(vocab, config);
  GradRouteReplica replica(lm, config);
  const std::vector<int> ids = batch_token_ids(vocab)[1];

  // A checkpoint of a differently initialised model of the same shape.
  auto other_config = config;
  other_config.seed += 17;
  const core::TrafficLM other(vocab, other_config);
  const std::string path = testing::TempDir() + "netfm_packed_ckpt.bin";
  ASSERT_TRUE(nn::save_checkpoint_file(path, other.parameters(), 5));

  const std::vector<float> before = lm.next_logits(ids);  // warm the panels
  nn::ParameterList params = lm.parameters();
  ASSERT_EQ(nn::load_checkpoint_file(path, params), std::optional<std::uint64_t>(5));
  const std::vector<float> after = lm.next_logits(ids);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, replica.next_logits(ids));
  EXPECT_EQ(after, other.next_logits(ids));
  std::remove(path.c_str());
}

TEST(PackedWeights, SteadyStateAdvanceBatchPacksNothing) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::vector<int>> ids = batch_token_ids(vocab);
  const auto packs = [] {
    for (const auto& [name, value] : metrics::snapshot().counters)
      if (name == "nn.gemm.weight_packs") return value;
    return std::uint64_t{0};
  };
  metrics::set_enabled(true);
  metrics::reset();
  std::vector<core::LmDecoder> owned;
  for (std::size_t b = 0; b < ids.size(); ++b) owned.emplace_back(lm);
  std::vector<core::LmDecoder*> decoders;
  for (auto& d : owned) decoders.push_back(&d);
  std::vector<int> step(ids.size());
  const auto advance = [&](std::size_t t) {
    for (std::size_t b = 0; b < ids.size(); ++b) step[b] = ids[b][t];
    core::LmDecoder::advance_batch(decoders, step);
  };
  // The first step packs the fresh model's panels; no later step does.
  advance(0);
  const std::uint64_t warmed = packs();
  EXPECT_GT(warmed, 0u);
  for (std::size_t t = 1; t < ids[0].size(); ++t) advance(t);
  EXPECT_EQ(packs(), warmed);
  metrics::set_enabled(false);
}

TEST(PackedWeights, CacheRepacksAfterWeightMutation) {
  Rng rng(11);
  const Tensor x = Tensor::randn({3, 32}, rng, 1.0f, false);
  Tensor w = Tensor::randn({32, 16}, rng, 1.0f, false);
  const Tensor bias = Tensor::randn({16}, rng, 1.0f, false);
  nn::PackedWeights cache;
  nn::InferenceGuard inference;
  const Tensor before =
      nn::packed_linear(x, w.data().data(), 32, 16, 16, 1, bias, cache);
  const std::vector<float> before_vals(before.data().begin(),
                                       before.data().end());

  // Mutate the weights in place, then bump the epoch (the optimizer does
  // this itself; done by hand here to isolate the cache).
  for (float& v : w.data()) v *= 2.0f;
  nn::bump_weight_epoch();

  const Tensor after =
      nn::packed_linear(x, w.data().data(), 32, 16, 16, 1, bias, cache);
  nn::PackedWeights fresh;
  const Tensor want =
      nn::packed_linear(x, w.data().data(), 32, 16, 16, 1, bias, fresh);
  const std::vector<float> after_vals(after.data().begin(),
                                      after.data().end());
  EXPECT_EQ(after_vals,
            std::vector<float>(want.data().begin(), want.data().end()));
  EXPECT_NE(after_vals, before_vals);  // the doubled weights really moved it
}

TEST(PackedWeights, OptimizerStepAndCheckpointLoadBumpEpoch) {
  Rng rng(12);
  nn::Parameter p{"w", Tensor::randn({8, 8}, rng, 1.0f, true)};
  nn::ParameterList params = {p};
  Tensor loss = nn::mean(nn::matmul(p.tensor, p.tensor));
  loss.backward();  // populate the gradient the optimizer consumes

  const std::uint64_t e0 = nn::weight_epoch();
  nn::Sgd sgd(0.1f);
  sgd.step(params);
  const std::uint64_t e1 = nn::weight_epoch();
  EXPECT_GT(e1, e0);

  const auto blob = nn::save_parameters(params);
  ASSERT_TRUE(nn::load_parameters(blob, params));
  EXPECT_GT(nn::weight_epoch(), e1);
}

// ---- No-grad batches at their longest real length ------------------------
//
// Each oracle below runs a no-grad call on the window-padded route:
// encode_context at the full window, make_batch, then one encoder forward
// under InferenceGuard. The heads they need are rebuilt from the model's
// parameters by name.

/// Copies each parameter of `from` into the same-named one of `to`.
void copy_parameters(const nn::ParameterList& from, nn::ParameterList to) {
  for (nn::Parameter& dst : to) {
    const auto src = std::find_if(
        from.begin(), from.end(),
        [&](const nn::Parameter& p) { return p.name == dst.name; });
    ASSERT_NE(src, from.end()) << dst.name;
    ASSERT_EQ(src->tensor.size(), dst.tensor.size()) << dst.name;
    std::copy(src->tensor.data().begin(), src->tensor.data().end(),
              dst.tensor.data().begin());
  }
}

/// Every context encoded at the window (capped at max_seq_len).
std::vector<core::Encoded> padded_items(
    std::span<const std::vector<std::string>> contexts,
    const tok::Vocabulary& vocab, const model::TransformerConfig& config,
    std::size_t window) {
  std::vector<core::Encoded> items;
  for (const auto& context : contexts)
    items.push_back(core::encode_context(
        context, vocab, std::min(window, config.max_seq_len)));
  return items;
}

/// One batch of at most 8 contexts from `at`, as the loss loops cut them.
std::span<const std::vector<std::string>> batch_at(
    const std::vector<std::vector<std::string>>& corpus, std::size_t at) {
  return std::span(corpus).subspan(
      at, std::min<std::size_t>(8, corpus.size() - at));
}

std::vector<std::vector<float>> padded_embed_flows(
    const core::NetFM& fm, std::span<const std::vector<std::string>> contexts,
    std::size_t window) {
  const model::Batch batch =
      core::make_batch(padded_items(contexts, fm.vocab(), fm.config(), window));
  const nn::InferenceGuard guard;
  const Tensor hidden = fm.encoder().forward(batch, /*train=*/false);
  const std::size_t d_model = fm.config().d_model, t_len = batch.seq_len;
  std::vector<std::vector<float>> out(contexts.size());
  for (std::size_t b = 0; b < contexts.size(); ++b) {
    out[b].assign(d_model, 0.0f);
    float count = 0.0f;
    for (std::size_t t = 0; t < t_len; ++t) {
      if (batch.attention_mask[b * t_len + t] == 0.0f) continue;
      for (std::size_t d = 0; d < d_model; ++d)
        out[b][d] += hidden.data()[(b * t_len + t) * d_model + d];
      count += 1.0f;
    }
    for (float& v : out[b]) v /= count;
  }
  return out;
}

/// NetFM's MLM, pooler and classifier heads, copied from its parameters.
struct NetFMHeads {
  NetFMHeads(const core::NetFM& fm, std::size_t num_classes)
      : rng(1),
        mlm(fm.config(), fm.encoder().token_embeddings(), rng),
        pooler(fm.config().d_model, rng),
        classifier(fm.config().d_model, num_classes, rng) {
    nn::ParameterList mine;
    mlm.collect(mine);
    pooler.collect(mine);
    classifier.collect(mine);
    copy_parameters(fm.parameters(), mine);
  }
  Rng rng;
  model::MlmHead mlm;
  model::Pooler pooler;
  model::ClassificationHead classifier;
};

std::vector<float> padded_predict_logits(
    const core::NetFM& fm, const NetFMHeads& heads,
    const std::vector<std::string>& context, std::size_t window) {
  const model::Batch batch = core::make_batch(
      padded_items({&context, 1}, fm.vocab(), fm.config(), window));
  const nn::InferenceGuard guard;
  const Tensor hidden = fm.encoder().forward(batch, /*train=*/false);
  const Tensor logits = heads.classifier.forward(
      heads.pooler.forward(hidden, batch.batch_size, batch.seq_len));
  return {logits.data().begin(), logits.data().end()};
}

double padded_mlm_loss(const core::NetFM& fm, const NetFMHeads& heads,
                       const std::vector<std::vector<std::string>>& corpus,
                       std::size_t window, std::uint64_t seed) {
  Rng rng(seed);
  const nn::InferenceGuard guard;
  double total = 0.0;
  std::size_t batches = 0;
  for (std::size_t at = 0; at < corpus.size(); at += 8) {
    std::vector<core::Encoded> items =
        padded_items(batch_at(corpus, at), fm.vocab(), fm.config(), window);
    std::vector<int> targets;
    for (core::Encoded& item : items) {
      const auto t = core::apply_mlm_mask(item.ids, fm.vocab(), rng, 0.15);
      targets.insert(targets.end(), t.begin(), t.end());
    }
    const Tensor hidden =
        fm.encoder().forward(core::make_batch(items), /*train=*/false);
    total += heads.mlm.masked_loss(hidden, targets).item();
    ++batches;
  }
  return total / static_cast<double>(batches);
}

/// TrafficLM's encoder and tied head, copied from its parameters.
struct LmReplica {
  LmReplica(const core::TrafficLM& lm, model::TransformerConfig config)
      : encoder(causal(config, lm.vocab().size())),
        head_rng(config.seed + 3),
        head(encoder.config(), encoder.token_embeddings(), head_rng) {
    nn::ParameterList mine = encoder.parameters();
    head.collect(mine);
    copy_parameters(lm.parameters(), mine);
  }
  static model::TransformerConfig causal(model::TransformerConfig config,
                                         std::size_t vocab) {
    config.vocab_size = vocab;
    config.causal = true;
    return config;
  }
  model::TransformerEncoder encoder;
  Rng head_rng;
  model::MlmHead head;
};

double padded_lm_loss(const LmReplica& lm, const tok::Vocabulary& vocab,
                      const std::vector<std::vector<std::string>>& corpus,
                      std::size_t window) {
  const nn::InferenceGuard guard;
  double total = 0.0;
  std::size_t total_targets = 0;
  for (std::size_t at = 0; at < corpus.size(); at += 8) {
    const std::vector<core::Encoded> items =
        padded_items(batch_at(corpus, at), vocab, lm.encoder.config(), window);
    std::vector<int> targets;
    for (const core::Encoded& item : items)
      for (std::size_t t = 0; t < item.ids.size(); ++t)
        targets.push_back(t + 1 < item.ids.size() && item.mask[t] != 0.0f &&
                                  item.mask[t + 1] != 0.0f
                              ? item.ids[t + 1]
                              : -1);
    const auto active = static_cast<std::size_t>(std::count_if(
        targets.begin(), targets.end(), [](int t) { return t >= 0; }));
    if (active == 0) continue;
    const Tensor hidden =
        lm.encoder.forward(core::make_batch(items), /*train=*/false);
    total += nn::cross_entropy(lm.head.forward(hidden), targets).item() *
             static_cast<double>(active);
    total_targets += active;
  }
  return total / static_cast<double>(total_targets);
}

void expect_bitwise(std::span<const float> got, std::span<const float> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i;
}

TEST(NoGradBatches, LongestRealLengthBitwiseEqualsPaddedWindow) {
  const tok::Vocabulary vocab = tiny_vocab();
  const auto config = tiny_config(vocab.size());  // max_seq_len 24
  core::NetFM fm(vocab, config);

  const std::vector<std::string> flow = {"tcp", "p80", "d_www"};
  std::vector<std::string> neighbour;  // fills every window
  for (std::size_t i = 0; i < 2 * config.max_seq_len; ++i)
    neighbour.push_back(vocab.token(static_cast<int>(
        tok::Vocabulary::kNumSpecial + i % (vocab.size() -
                                            tok::Vocabulary::kNumSpecial))));
  const std::vector<std::vector<std::vector<std::string>>> batches = {
      {flow}, {flow, neighbour}, {neighbour, flow},
      {std::vector<std::string>{}}};
  // A corpus of ragged lengths: one short flow alone in its final batch of
  // 8, the empty context at encode_context's 3-position floor.
  std::vector<std::vector<std::string>> corpus;
  for (std::size_t i = 0; i < 9; ++i)
    corpus.emplace_back(neighbour.begin(),
                        neighbour.begin() +
                            static_cast<std::ptrdiff_t>((i * 7) % 30));
  corpus.push_back(flow);

  core::FineTuneOptions fine;
  fine.epochs = 1;
  fine.batch_size = 2;
  fine.max_seq_len = config.max_seq_len;
  const std::vector<int> labels = {0, 1};
  fm.fine_tune({flow, neighbour}, labels, 2, fine);
  const NetFMHeads heads(fm, 2);

  core::TrafficLM lm(vocab, config);
  core::LmTrainOptions lm_options;
  lm_options.steps = 2;
  lm_options.batch_size = 2;
  lm_options.max_seq_len = config.max_seq_len;
  lm.train(corpus, lm_options);
  const LmReplica lm_replica(lm, config);

  // Windows below, at and above the short flow's 5 positions and the
  // neighbour's 24; 64 clamps to max_seq_len.
  with_thread_counts([&] {
    for (const std::size_t window : {4, 5, 12, 24, 64}) {
      const std::string at = "window " + std::to_string(window);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto got = fm.embed_flows(batches[b], window);
        const auto want = padded_embed_flows(fm, batches[b], window);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t f = 0; f < want.size(); ++f) {
          const std::string what = at + " batch " + std::to_string(b) +
                                   " flow " + std::to_string(f);
          expect_bitwise(got[f], want[f], "embed_flows " + what);
          expect_bitwise(fm.embed(batches[b][f], window), want[f],
                         "embed " + what);
          expect_bitwise(
              fm.predict_logits(batches[b][f], window),
              padded_predict_logits(fm, heads, batches[b][f], window),
              "predict_logits " + what);
        }
      }
      const double mlm = fm.mlm_loss(corpus, window, 7);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mlm),
                std::bit_cast<std::uint64_t>(
                    padded_mlm_loss(fm, heads, corpus, window, 7)))
          << at << " mlm_loss " << mlm;
      const double lm_loss = lm.loss(corpus, window);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lm_loss),
                std::bit_cast<std::uint64_t>(
                    padded_lm_loss(lm_replica, vocab, corpus, window)))
          << at << " TrafficLM::loss " << lm_loss;
    }
  });
}

}  // namespace
}  // namespace netfm
