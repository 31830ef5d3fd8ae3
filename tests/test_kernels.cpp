// Kernel backend equivalence suite (ctest label `kernels`).
//
// The dispatch contract (nn/kernels/kernels.h) is that every SIMD backend
// is *bitwise* equal to the scalar oracle on the fp32 route — GEMM,
// backward, the encoder forward, batched and incremental. Every test here
// compares across all backends available on the running CPU, under both a
// single-thread pool and the default pool. The transcendental kernels
// (tanh, exp, GELU) are held to the scalar libm port on a strided sweep of
// the bit patterns, every branch boundary and every tail length (the
// exhaustive 2^32 sweep is bench/sweep_transcendentals). The CI
// kernels-smoke step
// re-runs the whole binary once per backend via NETFM_KERNELS, and the
// TSan lane runs it alongside concurrency/infer/serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/kv_pool.h"
#include "nn/gemm.h"
#include "nn/kernels/kernels.h"
#include "nn/kernels/libm_port.h"
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

// ---- transcendentals ---------------------------------------------------

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

/// Every branch boundary of the ports (libm_port.h), with both float
/// neighbours and both signs: tanhf's 2^-55, 1 and 22; expm1f's 2^-25,
/// 0.5·ln2, 1.5·ln2 and 27·ln2, also halved (tanh passes expm1f ±2|x|) and
/// at the k = 23 and k = 57 switches; expf's 88, overflow and underflow
/// thresholds; ±0, ±inf and NaNs. Also the two inputs whose expf result
/// changes when its reduction r is not one fused multiply-add.
std::vector<float> boundary_inputs() {
  std::vector<std::uint32_t> centers = {
      0x24000000, 0x3f800000, 0x41b00000, 0x33000000, 0x3eb17218,
      0x3f851592, 0x4195b844, 0x42b17218, 0x42b00000,
      bits(nn::kernels::port::kExpOverflow),
      bits(-nn::kernels::port::kExpUnderflow),
      bits(-nn::kernels::port::kExpTiny),
      bits(22.5f * 0.6931472f), bits(56.5f * 0.6931472f),
      bits(0x1.04845ep+5f), bits(0x1.f8cbb2p+5f)};
  const std::size_t direct = centers.size();
  for (std::size_t i = 0; i < direct; ++i)
    centers.push_back(centers[i] - 0x00800000);  // the value halved
  std::vector<float> out;
  for (std::uint32_t c : centers)
    for (std::uint32_t u : {c - 1, c, c + 1})
      for (std::uint32_t sign : {0u, 0x80000000u})
        out.push_back(from_bits(u | sign));
  for (std::uint32_t u : {0x00000000u, 0x80000000u, 0x00000001u, 0x807fffffu,
                          0x7f800000u, 0xff800000u, 0x7fc00000u, 0xffc00000u,
                          0x7f800001u, 0xff912345u, 0x7f7fffffu, 0xff7fffffu})
    out.push_back(from_bits(u));
  return out;
}

/// Runs every transcendental kernel of `kt` over `in`: tanh, exp (shift 0
/// and a nonzero shift), GELU and its backward. Kernel k writes
/// [k·w, k·w + n) of the result, w = n + kGuard; the kGuard floats after
/// each output hold a sentinel, so a kernel that writes past n differs
/// from the scalar oracle there.
constexpr std::size_t kGuard = 4;
std::vector<float> run_transcendentals(const nn::kernels::KernelTable& kt,
                                       const std::vector<float>& in) {
  const std::size_t n = in.size(), w = n + kGuard;
  std::vector<float> out(5 * w, -12345.0f);
  kt.tanh(in.data(), n, out.data());
  kt.exp_shift(in.data(), 0.0f, n, out.data() + w);
  kt.exp_shift(in.data(), -1.75f, n, out.data() + 2 * w);
  kt.gelu(in.data(), n, out.data() + 3 * w);
  // g and the accumulated ga: finite, varied, sign-mixed.
  std::vector<float> g(n);
  for (std::size_t i = 0; i < n; ++i)
    g[i] = static_cast<float>(static_cast<int>(i % 13) - 6) * 0.375f;
  std::fill_n(out.begin() + 4 * static_cast<std::ptrdiff_t>(w), n, 0.125f);
  kt.gelu_backward(in.data(), g.data(), n, out.data() + 4 * w);
  return out;
}

/// The first bit difference between two run_transcendentals results over
/// `in`, described; empty when they are equal.
std::string first_difference(const std::vector<float>& got,
                             const std::vector<float>& want,
                             const std::vector<float>& in) {
  if (got.size() != want.size()) return "size differs";
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0)
    return "";
  const std::size_t w = in.size() + kGuard;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) == bits(want[i])) continue;
    const std::size_t j = i % w;
    char where[96];
    if (j < in.size())
      std::snprintf(where, sizeof(where), "kernel %zu at x=%a (0x%08x)", i / w,
                    static_cast<double>(in[j]), bits(in[j]));
    else
      std::snprintf(where, sizeof(where), "kernel %zu wrote past n", i / w);
    char values[80];
    std::snprintf(values, sizeof(values), ": got %a want %a",
                  static_cast<double>(got[i]), static_cast<double>(want[i]));
    return std::string(where) + values;
  }
  return "";
}

void expect_backends_match_port(const std::vector<float>& in,
                                const std::string& what) {
  BackendGuard guard;
  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = run_transcendentals(kernels::table(), in);
  for (kernels::Backend b : kernels::available()) {
    if (b == kernels::Backend::kScalar) continue;
    kernels::set_backend(b);
    EXPECT_EQ(first_difference(run_transcendentals(kernels::table(), in),
                               want, in),
              "")
        << kernels::backend_name(b) << " " << what;
  }
}

TEST(KernelTranscendental, ScalarBackendIsThePort) {
  BackendGuard guard;
  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> in = boundary_inputs();
  std::vector<float> t(in.size()), e(in.size());
  kernels::table().tanh(in.data(), in.size(), t.data());
  kernels::table().exp_shift(in.data(), 0.0f, in.size(), e.data());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits(t[i]), bits(nn::kernels::tanhf_port(in[i])));
    EXPECT_EQ(bits(e[i]), bits(nn::kernels::expf_port(in[i])));
  }
}

TEST(KernelTranscendental, PortSpecialValues) {
  using nn::kernels::expf_port;
  using nn::kernels::tanhf_port;
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits(tanhf_port(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(tanhf_port(-0.0f)), bits(-0.0f));
  EXPECT_EQ(tanhf_port(inf), 1.0f);
  EXPECT_EQ(tanhf_port(-inf), -1.0f);
  EXPECT_EQ(tanhf_port(22.0f), 1.0f);
  EXPECT_EQ(tanhf_port(0x1p-60f), 0x1p-60f);
  EXPECT_TRUE(std::isnan(tanhf_port(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(expf_port(0.0f), 1.0f);
  EXPECT_EQ(expf_port(1.0f), 0x1.5bf0a8p+1f);  // e, correctly rounded
  EXPECT_EQ(expf_port(-inf), 0.0f);
  EXPECT_EQ(expf_port(inf), inf);
  EXPECT_EQ(expf_port(89.0f), inf);
  EXPECT_EQ(expf_port(-104.0f), 0.0f);
  EXPECT_EQ(expf_port(-103.5f), 0x1p-149f);
  EXPECT_TRUE(std::isnan(expf_port(std::numeric_limits<float>::quiet_NaN())));
  // The FMA build's results at the two inputs where a reduction r rounded
  // twice (x·N/ln2 rounded, then − kd) changes the float: the split product
  // must round r once.
  EXPECT_EQ(bits(expf_port(0x1.04845ep+5f)), bits(0x1.f93e38p+46f));
  EXPECT_EQ(bits(expf_port(-0x1.f8cbb2p+5f)), bits(0x1.f45326p-92f));
  // Within 1 ulp of the double-precision functions on ordinary inputs.
  for (float x : {-20.5f, -3.25f, -0.75f, -0.01f, 0.3f, 1.5f, 9.0f, 40.0f}) {
    EXPECT_NEAR(expf_port(x), std::exp(static_cast<double>(x)),
                std::exp(static_cast<double>(x)) * 0x1p-23);
    EXPECT_NEAR(tanhf_port(x), std::tanh(static_cast<double>(x)), 0x1p-23);
  }
}

TEST(KernelTranscendental, BranchBoundariesBitwiseAcrossBackends) {
  expect_backends_match_port(boundary_inputs(), "boundaries");
}

TEST(KernelTranscendental, StridedSweepBitwiseAcrossBackends) {
  // Every 61st bit pattern (all signs, exponents and both NaN kinds), in
  // chunks spread over the thread pool. Each backend's table is taken once
  // up front, so no chunk switches the process-wide backend.
  BackendGuard guard;
  std::vector<const kernels::KernelTable*> tables;
  for (kernels::Backend b : kernels::available()) {
    kernels::set_backend(b);
    tables.push_back(&kernels::table());
  }
  kernels::set_backend(guard.saved);
  constexpr std::uint64_t kStride = 61, kAll = std::uint64_t{1} << 32;
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  const std::uint64_t per_chunk = kChunk * kStride;
  std::mutex mu;
  std::string first_failure;
  ThreadPool::global().parallel_for(
      0, (kAll + per_chunk - 1) / per_chunk, 1,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<float> in;
        for (std::size_t c = lo; c < hi; ++c) {
          in.clear();
          for (std::uint64_t u = c * per_chunk;
               u < std::min(kAll, (c + 1) * per_chunk); u += kStride)
            in.push_back(from_bits(static_cast<std::uint32_t>(u)));
          const std::vector<float> want =
              run_transcendentals(*tables.front(), in);
          for (std::size_t t = 1; t < tables.size(); ++t) {
            const std::string diff = first_difference(
                run_transcendentals(*tables[t], in), want, in);
            if (diff.empty()) continue;
            std::lock_guard<std::mutex> lock(mu);
            if (first_failure.empty())
              first_failure = std::string(tables[t]->name) + " " + diff;
          }
        }
      });
  EXPECT_EQ(first_failure, "");
}

TEST(KernelTranscendental, EveryTailLengthAndInPlace) {
  // Run lengths 0..33 cover an empty call, every AVX2 and AVX-512 tail and
  // two full vectors plus a tail.
  BackendGuard guard;
  Rng rng(307);
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<float> in(n);
    for (float& v : in) v = static_cast<float>(rng.uniform_real(-9.0, 9.0));
    expect_backends_match_port(in, "n=" + std::to_string(n));
    // In place (out == in).
    kernels::set_backend(kernels::Backend::kScalar);
    std::vector<float> want_t(n), want_e(n);
    kernels::table().tanh(in.data(), n, want_t.data());
    kernels::table().exp_shift(in.data(), -1.75f, n, want_e.data());
    for (kernels::Backend b : kernels::available()) {
      kernels::set_backend(b);
      std::vector<float> t = in, e = in;
      kernels::table().tanh(t.data(), n, t.data());
      kernels::table().exp_shift(e.data(), -1.75f, n, e.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(t[i]), bits(want_t[i]))
            << kernels::backend_name(b) << " tanh in place, n=" << n;
        ASSERT_EQ(bits(e[i]), bits(want_e[i]))
            << kernels::backend_name(b) << " exp in place, n=" << n;
      }
    }
  }
}

TEST(KernelTranscendental, TensorOpsBitwiseAcrossBackends) {
  // Every op routed through the transcendental kernels, forward and
  // backward, on a shape with a ragged row (37 columns).
  BackendGuard guard;
  Rng rng(409);
  const Tensor x0 = Tensor::randn({5, 37}, rng, 2.0f, false);
  const std::vector<int> targets = {3, -1, 36, 0, 17};
  const auto run = [&] {
    std::vector<float> out;
    const auto keep = [&](const Tensor& t) {
      out.insert(out.end(), t.data().begin(), t.data().end());
    };
    Tensor x(x0.shape(),
             std::vector<float>(x0.data().begin(), x0.data().end()),
             /*requires_grad=*/true);
    const Tensor g = nn::gelu(x), th = nn::tanh_op(x), sg = nn::sigmoid(x);
    const Tensor sm = nn::softmax(x), ls = nn::log_softmax(x);
    const Tensor ce = nn::cross_entropy(x, targets);
    for (const Tensor* t : {&g, &th, &sm, &sg, &ls, &ce}) keep(*t);
    Tensor loss = nn::add(nn::add(nn::mean(nn::mul(g, th)),
                                  nn::mean(nn::mul(sm, sg))),
                          nn::add(nn::mean(ls), ce));
    loss.backward();
    out.insert(out.end(), x.grad().begin(), x.grad().end());
    return out;
  };
  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = run();
  for (kernels::Backend b : kernels::available()) {
    kernels::set_backend(b);
    with_thread_counts([&] {
      const std::vector<float> got = run();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(bits(got[i]), bits(want[i]))
            << kernels::backend_name(b) << " element " << i;
    });
  }
}

}  // namespace
}  // namespace netfm
