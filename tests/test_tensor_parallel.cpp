// Blocked/parallel matmul kernel vs the kept naive reference, and
// determinism across thread counts (the NETFM_THREADS=1 vs NETFM_THREADS=8
// guarantee, exercised via ThreadPool::reset_global). Part of the
// `concurrency` ctest label; run under TSan to prove the parallel forward
// and backward accumulation are race-free.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/threadpool.h"
#include "nn/tensor.h"

namespace netfm::nn {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed, bool requires_grad) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 1.0f, requires_grad);
}

void expect_close(std::span<const float> got, std::span<const float> want,
                  float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "element " << i;
}

/// Forward product of the blocked kernel vs the naive reference.
void check_matmul_matches_reference(const Shape& a_shape,
                                    const Shape& b_shape,
                                    std::uint64_t seed) {
  const Tensor a = random_tensor(a_shape, seed, false);
  const Tensor b = random_tensor(b_shape, seed + 1, false);
  const Tensor fast = matmul(a, b);
  const Tensor ref = matmul_reference(a, b);
  ASSERT_EQ(fast.shape(), ref.shape());
  expect_close(fast.data(), ref.data(), 1e-5f);
}

TEST(ParallelMatmul, Rank2MatchesReferenceAcrossSizes) {
  // Odd sizes hit every micro-kernel edge case (partial MR and NR tiles).
  const std::size_t sizes[] = {1, 7, 33, 129};
  std::uint64_t seed = 100;
  for (std::size_t m : sizes)
    for (std::size_t k : sizes)
      for (std::size_t n : sizes)
        check_matmul_matches_reference({m, k}, {k, n}, seed++);
}

TEST(ParallelMatmul, Rank2LargeMatchesReference) {
  check_matmul_matches_reference({129, 65}, {65, 200}, 7);
  check_matmul_matches_reference({256, 256}, {256, 256}, 8);
}

TEST(ParallelMatmul, Rank3BatchedMatchesReference) {
  check_matmul_matches_reference({4, 33, 17}, {4, 17, 29}, 9);
  check_matmul_matches_reference({1, 7, 129}, {1, 129, 33}, 10);
  check_matmul_matches_reference({16, 64, 16}, {16, 16, 64}, 11);
}

TEST(ParallelMatmul, SharedRhsMatchesReference) {
  check_matmul_matches_reference({4, 33, 65}, {65, 129}, 12);
  check_matmul_matches_reference({2, 1, 7}, {7, 1}, 13);
  check_matmul_matches_reference({8, 48, 128}, {128, 128}, 14);
}

TEST(ParallelMatmul, BackwardMatchesReferenceGemms) {
  // loss = sum(A·B) so dC is all-ones; then dA = dC·Bᵀ and dB = Aᵀ·dC,
  // both computable with the naive reference kernel via transposed copies.
  const std::size_t m = 33, k = 65, n = 17;
  Tensor a = random_tensor({m, k}, 20, true);
  Tensor b = random_tensor({k, n}, 21, true);
  Tensor loss = sum(matmul(a, b));
  loss.backward();

  std::vector<float> ones(m * n, 1.0f);
  const Tensor dc({m, n}, ones);
  // Bᵀ and Aᵀ as explicit tensors for the reference products.
  std::vector<float> bt(n * k), at(k * m);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < n; ++c) bt[c * k + r] = b.data()[r * n + c];
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < k; ++c) at[c * m + r] = a.data()[r * k + c];
  const Tensor da_ref = matmul_reference(dc, Tensor({n, k}, bt));
  const Tensor db_ref = matmul_reference(Tensor({k, m}, at), dc);
  expect_close(a.grad(), da_ref.data(), 1e-4f);
  expect_close(b.grad(), db_ref.data(), 1e-4f);
}

struct MatmulRun {
  std::vector<float> value, da, db;
};

/// Forward + backward at a given global pool size.
MatmulRun run_matmul(std::size_t threads, const Shape& a_shape,
                     const Shape& b_shape) {
  ThreadPool::reset_global(threads);
  Tensor a = random_tensor(a_shape, 40, true);
  Tensor b = random_tensor(b_shape, 41, true);
  Tensor out = matmul(a, b);
  Tensor loss = mean(out);
  loss.backward();
  MatmulRun run;
  run.value.assign(out.data().begin(), out.data().end());
  run.da.assign(a.grad().begin(), a.grad().end());
  run.db.assign(b.grad().begin(), b.grad().end());
  return run;
}

TEST(ParallelMatmul, BitIdenticalAcrossThreadCounts) {
  // The NETFM_THREADS=1 vs NETFM_THREADS=8 guarantee: chunk boundaries
  // derive from sizes only and every output element is reduced in a fixed
  // order by one chunk, so results must match bit-for-bit, not just
  // approximately.
  const std::vector<std::pair<Shape, Shape>> cases = {
      {{129, 129}, {129, 129}},        // rank-2, parallel row blocks
      {{8, 33, 65}, {8, 65, 33}},      // rank-3, parallel over batch
      {{8, 48, 128}, {128, 128}},      // shared RHS, collapsed batch
  };
  for (const auto& [a_shape, b_shape] : cases) {
    const MatmulRun one = run_matmul(1, a_shape, b_shape);
    const MatmulRun eight = run_matmul(8, a_shape, b_shape);
    EXPECT_EQ(one.value, eight.value);
    EXPECT_EQ(one.da, eight.da);
    EXPECT_EQ(one.db, eight.db);
  }
  ThreadPool::reset_global(0);
}

TEST(ParallelOps, ElementwiseAndRowOpsIdenticalAcrossThreadCounts) {
  // The parallel_for-routed O(n) ops (add/unary/softmax/layer_norm/
  // swap_axes) and linear must also be chunking-independent. 70k elements
  // clears the serial cutoff; the axis swap splits into 9 row chunks.
  const Shape shape{70, 1000};
  auto run = [&](std::size_t threads) {
    ThreadPool::reset_global(threads);
    Tensor x = random_tensor(shape, 50, true);
    Tensor y = random_tensor(shape, 51, true);
    Tensor gain = random_tensor({1000}, 52, true);
    Tensor bias = random_tensor({1000}, 53, true);
    Tensor w = random_tensor({1000, 170}, 54, true);
    Tensor b = random_tensor({170}, 55, true);
    Tensor out = layer_norm(gelu(add(x, y)), gain, bias);
    Tensor swapped = swap_axes(out, {70, 10, 25, 4}, {70, 1000});
    Tensor logits = linear(swapped, w, b);
    Tensor loss = add(mean(softmax(out)), mean(softmax(logits)));
    loss.backward();
    std::vector<float> got(out.data().begin(), out.data().end());
    for (const Tensor* t : {&swapped, &logits})
      got.insert(got.end(), t->data().begin(), t->data().end());
    for (const Tensor* t : {&x, &gain, &bias, &w, &b})
      got.insert(got.end(), t->grad().begin(), t->grad().end());
    return got;
  };
  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_EQ(one, eight);
  ThreadPool::reset_global(0);
}

}  // namespace
}  // namespace netfm::nn
