// Kernel backend equivalence suite (ctest label `kernels`).
//
// The dispatch contract (nn/kernels/kernels.h) is that every SIMD backend
// is *bitwise* equal to the scalar oracle on the fp32 route — GEMM,
// backward, the encoder forward, batched and incremental. Every test here
// compares across all backends available on the running CPU, under both a
// single-thread pool and the default pool; the CI kernels-smoke step
// re-runs the whole binary once per backend via NETFM_KERNELS, and the
// TSan lane runs it alongside concurrency/infer/serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/kv_pool.h"
#include "nn/gemm.h"
#include "nn/kernels/kernels.h"
#include "nn/tensor.h"

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

/// Runs `body` once on a single-thread pool and once on the default pool.
template <typename Fn>
void with_thread_counts(Fn&& body) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ThreadPool::reset_global(threads);
    body();
  }
  ThreadPool::reset_global(0);
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " element " << i;
}

model::TransformerConfig tiny_config(std::size_t vocab) {
  auto config = model::TransformerConfig::tiny(vocab);
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  return config;
}

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt"})
    v.add(t);
  return v;
}

TEST(KernelDispatch, ScalarAlwaysAvailableAndActiveIsSane) {
  EXPECT_TRUE(kernels::supported(kernels::Backend::kScalar));
  const auto backends = kernels::available();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), kernels::Backend::kScalar);
  // The dispatched default must itself be an available backend.
  bool found = false;
  for (kernels::Backend b : backends)
    if (b == kernels::active()) found = true;
  EXPECT_TRUE(found);
  EXPECT_STREQ(kernels::active_name(),
               kernels::backend_name(kernels::active()));
}

TEST(KernelDispatch, ParseRoundTripsAndRejectsUnknown) {
  for (kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512, kernels::Backend::kNeon})
    EXPECT_EQ(kernels::parse(kernels::backend_name(b)), b);
  EXPECT_THROW(kernels::parse("sse9"), std::invalid_argument);
  EXPECT_THROW(kernels::parse(""), std::invalid_argument);
}

TEST(KernelDispatch, SetBackendSwitchesAndRejectsUnsupported) {
  BackendGuard guard;
  for (kernels::Backend b : kernels::available()) {
    kernels::set_backend(b);
    EXPECT_EQ(kernels::active(), b);
  }
  for (kernels::Backend b :
       {kernels::Backend::kAvx2, kernels::Backend::kAvx512,
        kernels::Backend::kNeon}) {
    if (!kernels::supported(b)) {
      EXPECT_THROW(kernels::set_backend(b), std::invalid_argument);
    }
  }
}

TEST(KernelGemm, BitwiseAcrossBackendsAndShapes) {
  BackendGuard guard;
  Rng rng(101);
  // Edge-stressing shapes ({M, N, K}): M not a multiple of the 4-row
  // micro-tile, N not a multiple of the 16-wide panel, tiny K, rectangular
  // everything. M = 5, 6, 7 put 1, 2 and 3 remainder rows after a full
  // register tile.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {3, 5, 7},     {4, 16, 32}, {5, 17, 8},  {6, 33, 64},
      {7, 33, 64},  {64, 48, 5},   {33, 65, 19}, {16, 100, 64}};
  for (const auto& s : shapes) {
    const std::size_t M = s[0], N = s[1], K = s[2];
    const Tensor a = Tensor::randn({M, K}, rng, 1.0f, false);
    const Tensor b = Tensor::randn({K, N}, rng, 1.0f, false);
    const Tensor bias = Tensor::randn({N}, rng, 1.0f, false);
    kernels::set_backend(kernels::Backend::kScalar);
    const Tensor want = nn::matmul(a, b);
    // The scalar blocked kernel itself must match the naive oracle.
    expect_bitwise_equal(want, nn::matmul_reference(a, b), "scalar-vs-ref");
    Tensor want_biased = Tensor::empty({M, N});
    for (std::size_t i = 0; i < M * N; ++i)
      want_biased.data()[i] = want.data()[i] + bias.data()[i % N];
    // matmul's output comes from the workspace pool and may still hold an
    // earlier run's values, so also run each backend into a NaN-filled
    // buffer: a row the kernel never writes stays NaN and fails.
    std::vector<float> packed(nn::packed_b_size(K, N));
    nn::pack_b({b.data().data(), N, 1}, K, N, packed.data());
    const auto into_nan = [&](const float* bias_row) {
      Tensor c = Tensor::full({M, N}, std::numeric_limits<float>::quiet_NaN());
      nn::gemm_packed(M, N, K, {a.data().data(), K, 1}, packed.data(),
                      c.data().data(), /*accumulate=*/false,
                      /*allow_parallel=*/true, bias_row);
      return c;
    };
    for (kernels::Backend backend : kernels::available()) {
      kernels::set_backend(backend);
      const std::string name = kernels::backend_name(backend);
      with_thread_counts([&] {
        expect_bitwise_equal(nn::matmul(a, b), want, name.c_str());
        expect_bitwise_equal(into_nan(nullptr), want,
                             (name + " into NaN").c_str());
        expect_bitwise_equal(into_nan(bias.data().data()), want_biased,
                             (name + " into NaN + bias").c_str());
      });
    }
  }
}

TEST(KernelGemm, TransposedAndBatchedBitwiseAcrossBackends) {
  BackendGuard guard;
  Rng rng(202);
  const Tensor a = Tensor::randn({6, 20, 24}, rng, 1.0f, false);
  const Tensor b = Tensor::randn({6, 24, 20}, rng, 1.0f, false);
  const Tensor w = Tensor::randn({24, 40}, rng, 1.0f, false);
  const Tensor a2 = Tensor::randn({24, 20}, rng, 1.0f, false);
  kernels::set_backend(kernels::Backend::kScalar);
  const Tensor want_bmm = nn::matmul(a, b);
  const Tensor want_shared = nn::matmul(a, w);
  const Tensor want_t = nn::matmul(nn::transpose(a2), w);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      expect_bitwise_equal(nn::matmul(a, b), want_bmm, "batched");
      expect_bitwise_equal(nn::matmul(a, w), want_shared, "shared-rhs");
      expect_bitwise_equal(nn::matmul(nn::transpose(a2), w), want_t,
                           "transposed");
    });
  }
}

TEST(KernelGemm, BackwardBitwiseAcrossBackends) {
  BackendGuard guard;
  // {M, K, N} of the forward a[M, K] · b[K, N]. Both backward products
  // accumulate: dA = dC · bᵀ has M rows, and dB = aᵀ · dC reads a through
  // a transposed (strided) view and has K rows. M or K = 5, 6, 7 put 1, 2
  // and 3 remainder rows after a full register tile on each route.
  const std::size_t shapes[][3] = {
      {9, 14, 21}, {6, 64, 33}, {7, 64, 33}, {64, 5, 33}, {64, 6, 33},
      {64, 7, 33}};
  for (const auto& s : shapes) {
    const auto run = [&]() {
      Rng local(77);
      Tensor a = Tensor::randn({s[0], s[1]}, local, 1.0f, true);
      Tensor b = Tensor::randn({s[1], s[2]}, local, 1.0f, true);
      Tensor loss = nn::mean(nn::matmul(a, b));
      loss.backward();
      std::vector<float> grads(a.grad().begin(), a.grad().end());
      grads.insert(grads.end(), b.grad().begin(), b.grad().end());
      return grads;
    };
    kernels::set_backend(kernels::Backend::kScalar);
    const std::vector<float> want = run();
    for (kernels::Backend backend : kernels::available()) {
      kernels::set_backend(backend);
      with_thread_counts([&] {
        const std::vector<float> got = run();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], want[i])
              << kernels::backend_name(backend) << " M=" << s[0]
              << " K=" << s[1] << " grad " << i;
      });
    }
  }
}

TEST(KernelAttention, EncoderForwardBitwiseAcrossBackends) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  std::vector<core::Encoded> items = {
      core::encode_context({"tcp", "p80", "d_www"}, vocab, 12),
      core::encode_context({"udp", "p53", "dns_query", "dns_resp", "pkt"},
                           vocab, 12)};
  const model::Batch batch = core::make_batch(items);

  kernels::set_backend(kernels::Backend::kScalar);
  const Tensor grad_route = encoder.forward(batch, /*train=*/false);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // Grad route (composed attention) and inference route (fused
      // attention kernels) must both match the scalar grad-route oracle.
      expect_bitwise_equal(encoder.forward(batch, false), grad_route,
                           "grad-route");
      nn::InferenceGuard inference;
      expect_bitwise_equal(encoder.forward(batch, false), grad_route,
                           "inference-route");
    });
  }
}

TEST(KernelAttention, IncrementalDecodeBitwiseAcrossBackends) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  core::TrafficLM lm(vocab, config);
  const std::vector<int> ids = {0, 5, 9, 3, 7, 11, 2};

  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = lm.next_logits(ids);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // Full-forward route and the KV-cached incremental route.
      EXPECT_EQ(lm.next_logits(ids), want);
      core::LmDecoder decoder(lm);
      std::vector<float> logits;
      for (int id : ids) logits = decoder.advance(id);
      EXPECT_EQ(logits, want);
    });
  }
}

/// A 43-token id sequence over `vocab`: with 16-token KV blocks it
/// crosses two block boundaries and ends 11 tokens into a third block.
std::vector<int> long_ids(std::size_t vocab, int stride) {
  std::vector<int> ids(43);
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<int>((i * static_cast<std::size_t>(stride) + 3) %
                              vocab);
  return ids;
}

/// Scalar full-forward next_logits of every prefix of `ids`.
std::vector<std::vector<float>> prefix_logits(const core::TrafficLM& lm,
                                              const std::vector<int>& ids) {
  kernels::set_backend(kernels::Backend::kScalar);
  std::vector<std::vector<float>> want;
  for (std::size_t t = 1; t <= ids.size(); ++t)
    want.push_back(
        lm.next_logits(std::span<const int>(ids.data(), t)));
  return want;
}

void expect_decode_matches(core::LmDecoder& decoder,
                           const std::vector<int>& ids,
                           const std::vector<std::vector<float>>& want,
                           const char* what) {
  for (std::size_t t = 0; t < ids.size(); ++t)
    ASSERT_EQ(decoder.advance(ids[t]), want[t])
        << what << " on " << kernels::active_name() << " at step " << t;
}

TEST(KernelAttention, IncrementalDecodeAcrossKvBlocksBitwise) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 48;
  core::TrafficLM lm(vocab, config);
  const std::vector<int> ids = long_ids(vocab.size(), 5);
  ASSERT_GT(ids.size(), 2 * model::kKvBlockTokens);
  ASSERT_NE(ids.size() % model::kKvBlockTokens, 0u);

  const std::vector<std::vector<float>> want = prefix_logits(lm, ids);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      core::LmDecoder decoder(lm);
      expect_decode_matches(decoder, ids, want, "fresh pool");
    });
  }
}

TEST(KernelAttention, IncrementalDecodeOnDirtyKvBlocksBitwise) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 48;
  core::TrafficLM lm(vocab, config);
  const std::vector<int> ids = long_ids(vocab.size(), 5);
  const std::vector<int> other = long_ids(vocab.size(), 3);
  const std::vector<std::vector<float>> want = prefix_logits(lm, ids);

  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // A pool holding one sequence: the second decoder can only run on
      // the blocks the first one filled, so every key and value slot past
      // its current token holds another sequence's data.
      const auto pool = lm.make_kv_pool(lm.kv_blocks_per_sequence());
      {
        core::LmDecoder dirty(lm, pool);
        for (int id : other) dirty.advance(id);
      }
      core::LmDecoder decoder(lm, pool);
      expect_decode_matches(decoder, ids, want, "reused blocks");

      // Now poison every K and V slot the decoder holds with NaN and
      // replay: a slot past the current token that reached a score, a
      // softmax or the context would turn the logits into NaN.
      const std::size_t run = model::kKvBlockTokens * pool->head_dim();
      for (std::size_t l = 0; l < pool->layers(); ++l)
        for (std::uint32_t b = 0; b < pool->capacity_blocks(); ++b)
          for (std::size_t h = 0; h < pool->heads(); ++h) {
            std::fill_n(pool->key_head(l, b, h), run, std::nanf(""));
            std::fill_n(pool->value_head(l, b, h), run, std::nanf(""));
          }
      decoder.reset();
      expect_decode_matches(decoder, ids, want, "NaN-poisoned blocks");
    });
  }
}

TEST(KernelWeightedSum, AccAndPagedBitwiseAcrossBackends) {
  BackendGuard guard;
  Rng rng(211);
  // t spans multiple fixed-size runs with a ragged tail; dk hits both the
  // SIMD-width and the scalar-tail paths.
  const std::size_t t = 37, run_tokens = 16;
  for (const std::size_t dk : {std::size_t{16}, std::size_t{13}}) {
    const Tensor w = Tensor::randn({t}, rng, 1.0f, false);
    const Tensor rows = Tensor::randn({t, dk}, rng, 1.0f, false);
    const float* wp = w.data().data();
    const float* rp = rows.data().data();

    // Scalar dense weighted_sum / weighted_sum_acc are the oracles.
    kernels::set_backend(kernels::Backend::kScalar);
    std::vector<float> want(dk);
    kernels::table().weighted_sum(wp, rp, t, dk, want.data());
    std::vector<float> acc_want(dk, 0.25f);
    kernels::table().weighted_sum_acc(wp, rp, t, dk, acc_want.data());

    // Scatter the rows into separate per-run buffers, paged-pool style.
    const std::size_t n_runs = model::kv_blocks_for(t, run_tokens);
    std::vector<std::vector<float>> run_storage(n_runs);
    std::vector<const float*> runs;
    for (std::size_t r = 0; r < n_runs; ++r) {
      run_storage[r].assign(run_tokens * dk, -7.0f);  // poison past the tail
      const std::size_t lo = r * run_tokens;
      const std::size_t len = std::min(run_tokens, t - lo);
      std::copy_n(rp + lo * dk, len * dk, run_storage[r].data());
      runs.push_back(run_storage[r].data());
    }

    for (kernels::Backend b : kernels::available()) {
      kernels::set_backend(b);
      const kernels::KernelTable& kt = kernels::table();

      std::vector<float> dense(dk);
      kt.weighted_sum(wp, rp, t, dk, dense.data());
      std::vector<float> paged(dk, 99.0f);  // overwritten by the first run
      kernels::paged_weighted_sum(kt, wp, runs.data(), n_runs, run_tokens, t,
                                  dk, paged.data());

      // weighted_sum_acc alone: seed out with a bias, accumulate, compare
      // against the scalar oracle seeded identically.
      std::vector<float> acc(dk, 0.25f);
      kt.weighted_sum_acc(wp, rp, t, dk, acc.data());

      for (std::size_t c = 0; c < dk; ++c) {
        ASSERT_EQ(dense[c], want[c])
            << kernels::backend_name(b) << " dense dk=" << dk << " col " << c;
        ASSERT_EQ(paged[c], want[c])
            << kernels::backend_name(b) << " paged dk=" << dk << " col " << c;
        ASSERT_EQ(acc[c], acc_want[c])
            << kernels::backend_name(b) << " acc dk=" << dk << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace netfm
