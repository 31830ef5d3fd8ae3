// M4 — neural-engine microbenchmarks: matmul kernels (blocked/parallel vs
// the naive reference, and thread-count scaling), GELU and softmax per
// kernel backend, attention probabilities
// and dropout at the pretraining shape, transformer forward and
// forward+backward (tiny and NorBERT-ish configs), GRU step throughput.
#include <benchmark/benchmark.h>

#include "common/threadpool.h"
#include "harness/bench_util.h"
#include "model/gru.h"
#include "model/heads.h"
#include "model/transformer.h"
#include "nn/kernels/kernels.h"
#include "nn/tensor.h"

namespace netfm {
namespace {

double matmul_gflops(const benchmark::State& state, std::size_t n) {
  return static_cast<double>(state.iterations()) * 2.0 * n * n * n * 1e-9;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  nn::Tensor b = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  for (auto _ : state) {
    nn::Tensor c = nn::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(matmul_gflops(state, n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The kept naive triple-loop kernel: the baseline every blocked/parallel
// number in BENCH_*.json is measured against.
void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  nn::Tensor b = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  for (auto _ : state) {
    nn::Tensor c = nn::matmul_reference(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(matmul_gflops(state, n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Best SIMD backend this build/CPU carries; scalar when there is none.
nn::kernels::Backend best_simd_backend() {
  for (nn::kernels::Backend b :
       {nn::kernels::Backend::kAvx512, nn::kernels::Backend::kAvx2,
        nn::kernels::Backend::kNeon}) {
    if (nn::kernels::supported(b)) return b;
  }
  return nn::kernels::Backend::kScalar;
}

// Runs `body` with the kernel backend pinned to `b`. The `backend_id`
// counter lets the CI kernel gate detect when a *Simd entry silently ran on
// scalar (no SIMD available) and skip the speedup assertion instead of
// failing it.
template <typename Body>
void on_backend(benchmark::State& state, nn::kernels::Backend b, Body body) {
  const nn::kernels::Backend prev = nn::kernels::active();
  nn::kernels::set_backend(b);
  body();
  state.counters["backend_id"] =
      static_cast<double>(static_cast<int>(nn::kernels::active()));
  nn::kernels::set_backend(prev);
}

void matmul_on_backend(benchmark::State& state, nn::kernels::Backend b) {
  on_backend(state, b, [&] {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    nn::Tensor a = nn::Tensor::randn({n, n}, rng, 1.0f, false);
    nn::Tensor w = nn::Tensor::randn({n, n}, rng, 1.0f, false);
    for (auto _ : state) {
      nn::Tensor c = nn::matmul(a, w);
      benchmark::DoNotOptimize(c.data().data());
    }
    state.counters["GFLOPS"] = benchmark::Counter(matmul_gflops(state, n),
                                                  benchmark::Counter::kIsRate);
  });
}

// Per-backend GEMM entries: the same kernel shapes as BM_Matmul, but pinned
// to the scalar oracle vs the best SIMD backend so the speedup the CI
// kernel gate asserts is a same-binary, same-machine comparison instead of
// a cross-baseline diff.
void BM_MatmulScalar(benchmark::State& state) {
  matmul_on_backend(state, nn::kernels::Backend::kScalar);
}
BENCHMARK(BM_MatmulScalar)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulSimd(benchmark::State& state) {
  matmul_on_backend(state, best_simd_backend());
}
BENCHMARK(BM_MatmulSimd)->Arg(128)->Arg(256)->Arg(512);

// The transcendental ops on [rows, cols] = range(0) x range(1), pinned to
// the scalar libm port vs the best SIMD backend: GELU (the FFN activation,
// one tanh per element) and a softmax over rows (one exp per element).
// Shapes: one FFN of a B = 32 decode step, [32, 128], and one FFN of the
// pretraining step in perfbench's pretrain_stream, [16·64, 128].
template <typename Op>
void unary_on_backend(benchmark::State& state, nn::kernels::Backend b,
                      Op op) {
  on_backend(state, b, [&] {
    const auto rows = static_cast<std::size_t>(state.range(0));
    const auto cols = static_cast<std::size_t>(state.range(1));
    Rng rng(2);
    const nn::Tensor a = nn::Tensor::randn({rows, cols}, rng, 2.0f, false);
    for (auto _ : state) {
      nn::Tensor y = op(a);
      benchmark::DoNotOptimize(y.data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows * cols));
  });
}

void BM_GeluScalar(benchmark::State& state) {
  unary_on_backend(state, nn::kernels::Backend::kScalar, nn::gelu);
}
BENCHMARK(BM_GeluScalar)->Args({32, 128})->Args({1024, 128});

void BM_GeluSimd(benchmark::State& state) {
  unary_on_backend(state, best_simd_backend(), nn::gelu);
}
BENCHMARK(BM_GeluSimd)->Args({32, 128})->Args({1024, 128});

void BM_SoftmaxRowsScalar(benchmark::State& state) {
  unary_on_backend(state, nn::kernels::Backend::kScalar, nn::softmax);
}
BENCHMARK(BM_SoftmaxRowsScalar)->Args({32, 128})->Args({1024, 128});

void BM_SoftmaxRowsSimd(benchmark::State& state) {
  unary_on_backend(state, best_simd_backend(), nn::softmax);
}
BENCHMARK(BM_SoftmaxRowsSimd)->Args({32, 128})->Args({1024, 128});

// Thread-count scaling at a fixed size: Arg is the pool size (0 = the
// NETFM_THREADS / hardware default). Compare threads=1 vs threads=N rows.
void BM_MatmulThreads(benchmark::State& state) {
  const std::size_t n = 256;
  ThreadPool::reset_global(static_cast<std::size_t>(state.range(0)));
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().threads());
  Rng rng(1);
  nn::Tensor a = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  nn::Tensor b = nn::Tensor::randn({n, n}, rng, 1.0f, false);
  for (auto _ : state) {
    nn::Tensor c = nn::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(matmul_gflops(state, n), benchmark::Counter::kIsRate);
  ThreadPool::reset_global(0);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_MatmulBackward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    nn::Tensor a = nn::Tensor::randn({n, n}, rng, 1.0f, true);
    nn::Tensor b = nn::Tensor::randn({n, n}, rng, 1.0f, true);
    nn::Tensor loss = nn::mean(nn::matmul(a, b));
    loss.backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
}
BENCHMARK(BM_MatmulBackward)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// attention_probs forward + backward at the pretrain_stream shape: batch
// 16 x 4 heads = 64 lanes of 64 keys, dk = 16, bidirectional, each
// sequence with its own padded tail (0-23 padding keys).
void BM_AttentionProbs(benchmark::State& state) {
  const std::size_t batch = 16, heads = 4, t = 64, dk = 16, bh = batch * heads;
  Rng rng(8);
  nn::Tensor q = nn::Tensor::randn({bh, t, dk}, rng, 1.0f, true);
  nn::Tensor k = nn::Tensor::randn({bh, t, dk}, rng, 1.0f, true);
  const nn::Tensor w = nn::Tensor::randn({bh, t, t}, rng, 1.0f, false);
  auto key_valid = std::make_shared<std::vector<float>>(batch * t, 1.0f);
  for (std::size_t s = 0; s < batch; ++s)
    for (std::size_t j = t - (s * 7) % 24; j < t; ++j)
      (*key_valid)[s * t + j] = 0.0f;
  const nn::KeyMask mask{key_valid, heads, /*causal=*/false};
  for (auto _ : state) {
    nn::Tensor probs = nn::attention_probs(q, k, mask, 0.25f);
    nn::sum(nn::mul(probs, w)).backward();
    benchmark::DoNotOptimize(q.grad().data());
  }
}
BENCHMARK(BM_AttentionProbs);

// Training-mode dropout at p = 0.1 over 262144 elements: the serial mask
// draw plus the scaled copy.
void BM_Dropout(benchmark::State& state) {
  Rng rng(9);
  const nn::Tensor a = nn::Tensor::randn({262144}, rng, 1.0f, false);
  for (auto _ : state) {
    nn::Tensor out = nn::dropout(a, 0.1f, /*train=*/true, rng);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Dropout);

model::Batch random_batch(std::size_t batch, std::size_t seq,
                          std::size_t vocab, std::uint64_t seed) {
  model::Batch b;
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

void BM_TransformerForward(benchmark::State& state) {
  const auto config = model::TransformerConfig::tiny(256);
  model::TransformerEncoder encoder(config);
  const model::Batch batch = random_batch(8, 48, 256, 3);
  for (auto _ : state) {
    nn::Tensor h = encoder.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TransformerForward);

void BM_TransformerTrainStep(benchmark::State& state) {
  const auto config = model::TransformerConfig::tiny(256);
  model::TransformerEncoder encoder(config);
  Rng rng(4);
  model::MlmHead head(config, encoder.token_embeddings(), rng);
  nn::ParameterList params = encoder.parameters();
  head.collect(params);
  nn::Adam adam(1e-3f);
  const model::Batch batch = random_batch(8, 48, 256, 5);
  std::vector<int> targets(batch.token_ids.size(), -1);
  for (std::size_t i = 0; i < targets.size(); i += 7)
    targets[i] = batch.token_ids[i];
  for (auto _ : state) {
    nn::Tensor hidden = encoder.forward(batch, /*train=*/true);
    nn::Tensor loss = nn::cross_entropy(head.forward(hidden), targets);
    nn::zero_grad(params);
    loss.backward();
    adam.step(params);
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TransformerTrainStep);

// NorBERT-ish config (d_model=128, 4 heads, 4 layers, seq=64): the scale
// the flow-classification pretraining path actually runs at, so the GFLOPS
// trajectory in BENCH_*.json tracks the real hot path, not just the tiny
// preset.
void BM_TransformerNorbertFwdBwd(benchmark::State& state) {
  const auto config = model::TransformerConfig::base(256);
  model::TransformerEncoder encoder(config);
  nn::ParameterList params = encoder.parameters();
  const model::Batch batch = random_batch(8, 64, 256, 7);
  for (auto _ : state) {
    nn::Tensor hidden = encoder.forward(batch, /*train=*/true);
    nn::Tensor loss = nn::mean(hidden);
    nn::zero_grad(params);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TransformerNorbertFwdBwd);

void BM_GruForward(benchmark::State& state) {
  model::GruConfig config;
  config.vocab_size = 256;
  config.num_classes = 9;
  model::GruClassifier gru(config);
  std::vector<int> ids(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  for (int& id : ids) id = static_cast<int>(rng.uniform(256));
  for (auto _ : state) {
    nn::Tensor logits = gru.forward(ids, /*train=*/false);
    benchmark::DoNotOptimize(logits.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GruForward)->Arg(16)->Arg(48);

}  // namespace
}  // namespace netfm

int main(int argc, char** argv) {
  return netfm::bench::benchmark_main(argc, argv, "micro_nn");
}
