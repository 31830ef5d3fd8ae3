// Autograd correctness: every differentiable op is validated against
// central-difference numerical gradients.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace netfm::nn {
namespace {

/// Central-difference gradient check of `loss_fn` w.r.t. `input`.
/// `loss_fn` must rebuild the graph from the tensor each call.
void check_gradients(Tensor& input,
                     const std::function<Tensor()>& loss_fn,
                     float tol = 2e-2f, float eps = 1e-3f) {
  input.zero_grad();
  Tensor loss = loss_fn();
  loss.backward();
  std::vector<float> analytic(input.grad().begin(), input.grad().end());

  for (std::size_t i = 0; i < input.size(); ++i) {
    const float saved = input.data()[i];
    input.data()[i] = saved + eps;
    const float up = loss_fn().item();
    input.data()[i] = saved - eps;
    const float down = loss_fn().item();
    input.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tol * std::max(1.0f, std::fabs(numeric)))
        << "element " << i;
  }
}

Tensor make_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 0.5f, /*requires_grad=*/true);
}

TEST(TensorBasics, ShapeAndData) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorBasics, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::scalar(3.5f).item(), 3.5f);
}

TEST(TensorBasics, FullFills) {
  Tensor t = Tensor::full({4}, 2.5f);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(TensorBasics, DetachSharesNoGraph) {
  Tensor a = make_input({2, 2}, 1);
  Tensor d = a.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.data()[0], a.data()[0]);
  d.data()[0] += 1.0f;
  EXPECT_NE(d.data()[0], a.data()[0]);
}

TEST(TensorBasics, InvalidShapesThrow) {
  EXPECT_THROW(Tensor({2}, {1.0f, 2.0f, 3.0f}), std::invalid_argument);
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(reshape(a, {7}), std::invalid_argument);
  EXPECT_THROW(a.item(), std::invalid_argument);
}

TEST(MatmulKernel, MatchesNaiveReferenceOddSizes) {
  // The blocked/parallel kernel must agree with the kept naive reference
  // across odd shapes that exercise partial micro-tiles.
  Rng rng(90);
  for (auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                         std::array<std::size_t, 3>{7, 33, 129},
                         std::array<std::size_t, 3>{129, 7, 33},
                         std::array<std::size_t, 3>{33, 129, 7}}) {
    const Tensor a = Tensor::randn({m, k}, rng, 1.0f, false);
    const Tensor b = Tensor::randn({k, n}, rng, 1.0f, false);
    const Tensor fast = matmul(a, b);
    const Tensor ref = matmul_reference(a, b);
    ASSERT_EQ(fast.shape(), ref.shape());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(fast.data()[i], ref.data()[i], 1e-5f) << m << "x" << k
                                                        << "x" << n;
  }
}

TEST(MatmulKernel, MatchesNaiveReferenceBatchedAndSharedRhs) {
  Rng rng(91);
  {
    const Tensor a = Tensor::randn({3, 5, 17}, rng, 1.0f, false);
    const Tensor b = Tensor::randn({3, 17, 9}, rng, 1.0f, false);
    const Tensor fast = matmul(a, b);
    const Tensor ref = matmul_reference(a, b);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(fast.data()[i], ref.data()[i], 1e-5f);
  }
  {
    const Tensor a = Tensor::randn({4, 7, 33}, rng, 1.0f, false);
    const Tensor w = Tensor::randn({33, 13}, rng, 1.0f, false);
    const Tensor fast = matmul(a, w);
    const Tensor ref = matmul_reference(a, w);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(fast.data()[i], ref.data()[i], 1e-5f);
  }
}

TEST(Autograd, MatmulGradient2D) {
  Tensor a = make_input({3, 4}, 2);
  Tensor b = make_input({4, 2}, 3);
  check_gradients(a, [&] { return mean(matmul(a, b)); });
  check_gradients(b, [&] { return mean(matmul(a, b)); });
}

TEST(Autograd, MatmulGradientBatched) {
  Tensor a = make_input({2, 3, 4}, 4);
  Tensor b = make_input({2, 4, 3}, 5);
  check_gradients(a, [&] { return mean(matmul(a, b)); });
  check_gradients(b, [&] { return mean(matmul(a, b)); });
}

TEST(Autograd, MatmulGradientSharedRhs) {
  Tensor a = make_input({2, 3, 4}, 6);
  Tensor w = make_input({4, 5}, 7);
  check_gradients(a, [&] { return mean(matmul(a, w)); });
  check_gradients(w, [&] { return mean(matmul(a, w)); });
}

/// Bit patterns, so +0 and -0 (or two NaNs) never compare equal by value.
std::vector<std::uint32_t> bits(std::span<const float> values) {
  std::vector<std::uint32_t> out;
  for (float v : values) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

TEST(Autograd, LinearMatchesMatmulPlusAdd) {
  struct Run {
    std::vector<std::uint32_t> value, dx, dw, db;
  };
  // loss = sum(out * up) (+ sum(b * up_b) when b is used twice): the
  // upstream gradient of out is exactly `up`.
  const auto run = [](const Shape& x_shape, std::size_t n, bool x_grad,
                      bool reuse_b, bool fused) {
    Tensor x = make_input(x_shape, 60);
    x.set_requires_grad(x_grad);
    Tensor w = make_input({x_shape.back(), n}, 61);
    Tensor b = make_input({n}, 62);
    Shape out_shape = x_shape;
    out_shape.back() = n;
    const Tensor up = make_input(out_shape, 63).detach();
    const Tensor out = fused ? linear(x, w, b) : add(matmul(x, w), b);
    Tensor loss = sum(mul(out, up));
    if (reuse_b) loss = add(loss, sum(mul(b, make_input({n}, 64).detach())));
    loss.backward();
    return Run{bits(out.data()),
               x_grad ? bits(x.grad()) : std::vector<std::uint32_t>{},
               bits(w.grad()), bits(b.grad())};
  };
  const auto expect_same = [&](const Shape& x_shape, std::size_t n,
                               bool x_grad, bool reuse_b) {
    const Run fused = run(x_shape, n, x_grad, reuse_b, true);
    const Run composed = run(x_shape, n, x_grad, reuse_b, false);
    EXPECT_EQ(fused.value, composed.value) << shape_str(x_shape) << " N=" << n;
    EXPECT_EQ(fused.dx, composed.dx) << shape_str(x_shape) << " N=" << n;
    EXPECT_EQ(fused.dw, composed.dw) << shape_str(x_shape) << " N=" << n;
    EXPECT_EQ(fused.db, composed.db) << shape_str(x_shape) << " N=" << n;
    if (reuse_b) return;
    // db is the plain column sum of `up`, rows in ascending order.
    Shape out_shape = x_shape;
    out_shape.back() = n;
    const Tensor up = make_input(out_shape, 63);
    std::vector<float> db(n, 0.0f);
    for (std::size_t r = 0; r < up.size() / n; ++r)
      for (std::size_t c = 0; c < n; ++c) db[c] += up.data()[r * n + c];
    EXPECT_EQ(fused.db, bits(db)) << shape_str(x_shape) << " N=" << n;
  };
  for (std::size_t m : {1, 5, 7, 64})
    for (std::size_t n : {1, 15, 16, 17, 48, 170})
      expect_same({m, 13}, n, true, false);
  expect_same({64, 13}, 170, true, true);    // b also used elsewhere
  expect_same({3, 7, 13}, 48, true, false);  // rank-3 input, shared weight
  expect_same({64, 13}, 170, false, false);  // frozen input: dW and db only
  expect_same({0, 13}, 17, true, false);     // no rows

  Tensor x = make_input({3, 2, 4}, 65);
  Tensor w = make_input({4, 5}, 66);
  Tensor b = make_input({5}, 67);
  const auto loss = [&] { return mean(gelu(linear(x, w, b))); };
  check_gradients(x, loss);
  check_gradients(w, loss);
  check_gradients(b, loss);
  EXPECT_THROW(linear(x, make_input({5, 5}, 68), b), std::invalid_argument);
  EXPECT_THROW(linear(x, w, make_input({4}, 69)), std::invalid_argument);
}

TEST(Autograd, AddSubMulGradients) {
  Tensor a = make_input({2, 3}, 8);
  Tensor b = make_input({2, 3}, 9);
  check_gradients(a, [&] { return mean(add(a, b)); });
  check_gradients(b, [&] { return mean(sub(a, b)); });
  check_gradients(a, [&] { return mean(mul(a, b)); });
  check_gradients(b, [&] { return mean(mul(a, b)); });
}

TEST(Autograd, BroadcastAddGradient) {
  Tensor a = make_input({3, 4}, 10);
  Tensor bias = make_input({4}, 11);
  check_gradients(bias, [&] { return mean(add(a, bias)); });
  check_gradients(a, [&] { return mean(add(a, bias)); });
}

TEST(Autograd, UnaryGradients) {
  for (std::uint64_t seed : {12ull, 13ull}) {
    Tensor a = make_input({2, 5}, seed);
    check_gradients(a, [&] { return mean(relu(a)); });
    check_gradients(a, [&] { return mean(gelu(a)); });
    check_gradients(a, [&] { return mean(tanh_op(a)); });
    check_gradients(a, [&] { return mean(sigmoid(a)); });
    check_gradients(a, [&] { return mean(scale(a, 2.5f)); });
  }
}

TEST(Autograd, SoftmaxGradient) {
  Tensor a = make_input({3, 4}, 14);
  // Weighted sum so the gradient is not trivially uniform.
  Tensor w({3, 4},
           {0.1f, -0.3f, 0.5f, 0.7f, -0.2f, 0.4f, 0.9f, -0.5f, 0.3f, 0.2f,
            -0.8f, 0.6f});
  check_gradients(a, [&] { return sum(mul(softmax(a), w)); });
}

TEST(Autograd, LogSoftmaxGradient) {
  Tensor a = make_input({2, 5}, 15);
  Tensor w({2, 5},
           {0.1f, -0.3f, 0.5f, 0.7f, -0.2f, 0.4f, 0.9f, -0.5f, 0.3f, 0.2f});
  check_gradients(a, [&] { return sum(mul(log_softmax(a), w)); });
}

TEST(Autograd, SoftmaxRowsSumToOne) {
  Tensor a = make_input({4, 6}, 16);
  Tensor s = softmax(a);
  for (std::size_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < 6; ++c) total += s.data()[r * 6 + c];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Autograd, LayerNormGradient) {
  Tensor a = make_input({3, 6}, 17);
  Tensor gain = make_input({6}, 18);
  Tensor bias = make_input({6}, 19);
  Tensor w({3, 6}, std::vector<float>(18, 0.0f));
  Rng wr(20);
  for (float& v : w.data()) v = static_cast<float>(wr.normal());
  auto loss = [&] { return sum(mul(layer_norm(a, gain, bias), w)); };
  check_gradients(a, loss);
  check_gradients(gain, loss);
  check_gradients(bias, loss);
}

TEST(Autograd, LayerNormNormalizes) {
  Tensor a = make_input({2, 8}, 21);
  Tensor gain = Tensor::full({8}, 1.0f);
  Tensor bias = Tensor::zeros({8});
  Tensor out = layer_norm(a, gain, bias);
  for (std::size_t r = 0; r < 2; ++r) {
    float mean_v = 0.0f, var_v = 0.0f;
    for (std::size_t c = 0; c < 8; ++c) mean_v += out.data()[r * 8 + c];
    mean_v /= 8.0f;
    for (std::size_t c = 0; c < 8; ++c) {
      const float d = out.data()[r * 8 + c] - mean_v;
      var_v += d * d;
    }
    var_v /= 8.0f;
    EXPECT_NEAR(mean_v, 0.0f, 1e-4f);
    EXPECT_NEAR(var_v, 1.0f, 1e-2f);
  }
}

TEST(Autograd, EmbeddingGradientAccumulatesRepeats) {
  Tensor table = make_input({5, 3}, 22);
  const std::vector<int> ids = {1, 3, 1};  // id 1 used twice
  Tensor out = embedding(table, ids);
  Tensor loss = sum(out);
  loss.backward();
  // Row 1 gradient should be 2 (used twice), row 3 once, others zero.
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(table.grad()[1 * 3 + d], 2.0f);
    EXPECT_FLOAT_EQ(table.grad()[3 * 3 + d], 1.0f);
    EXPECT_FLOAT_EQ(table.grad()[0 * 3 + d], 0.0f);
  }
}

TEST(Autograd, EmbeddingRejectsOutOfRange) {
  Tensor table({4, 2});
  const std::vector<int> bad = {5};
  EXPECT_THROW(embedding(table, bad), std::invalid_argument);
}

TEST(Autograd, TransposeGradient) {
  Tensor a = make_input({3, 4}, 23);
  Tensor w({4, 3}, std::vector<float>(12, 0.0f));
  Rng wr(24);
  for (float& v : w.data()) v = static_cast<float>(wr.normal());
  check_gradients(a, [&] { return sum(mul(transpose(a), w)); });
}

TEST(Autograd, TransposeValuesCorrect) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(t.data()[1], 4.0f);
  EXPECT_FLOAT_EQ(t.data()[2], 2.0f);
}

TEST(Autograd, ReshapeSliceConcatGradients) {
  Tensor a = make_input({4, 3}, 25);
  check_gradients(a, [&] { return mean(reshape(a, {2, 6})); });
  check_gradients(a, [&] { return mean(slice_rows(a, 1, 3)); });
  Tensor b = make_input({2, 3}, 26);
  check_gradients(
      a, [&] { return mean(concat_rows({slice_rows(a, 0, 2), b})); });
  check_gradients(
      b, [&] { return mean(concat_rows({slice_rows(a, 0, 2), b})); });
}

TEST(Autograd, SwapAxesMatchesIndexLoopOracle) {
  // Views [outer, n1, n2, inner]: a head split with T != H, inner = 1, and
  // a single sequence (outer = 1).
  const std::array<Shape, 3> views = {
      Shape{2, 3, 4, 5}, Shape{2, 3, 4, 1}, Shape{1, 5, 2, 3}};
  std::uint64_t seed = 27;
  for (const Shape& view : views) {
    const std::size_t outer = view[0], n1 = view[1], n2 = view[2],
                      inner = view[3];
    const Shape out_shape{outer * n2, n1, inner};
    Tensor a = make_input({outer * n1 * n2 * inner}, seed++);
    // Upstream gradient w: d sum(out * w) / d out is w exactly. `a` is
    // also used directly (weight u), so the permuted gradient has to add
    // into an existing value rather than overwrite it.
    const Tensor w = make_input(out_shape, seed++);
    const Tensor u = make_input(a.shape(), seed++);
    const auto loss = [&] {
      return add(sum(mul(swap_axes(a, view, out_shape), w)),
                 sum(mul(a, u)));
    };
    a.zero_grad();
    const Tensor out = swap_axes(a, view, out_shape);
    EXPECT_EQ(out.shape(), out_shape);
    loss().backward();
    for (std::size_t o = 0; o < outer; ++o)
      for (std::size_t i = 0; i < n1; ++i)
        for (std::size_t j = 0; j < n2; ++j)
          for (std::size_t c = 0; c < inner; ++c) {
            const std::size_t src = ((o * n1 + i) * n2 + j) * inner + c;
            const std::size_t dst = ((o * n2 + j) * n1 + i) * inner + c;
            EXPECT_EQ(out.data()[dst], a.data()[src]) << "element " << dst;
            EXPECT_EQ(a.grad()[src], u.data()[src] + w.data()[dst])
                << "element " << src;
          }
    check_gradients(a, loss);
  }

  // A head split followed by its merge gives back the input, forward and
  // backward, bit for bit: B = 2, T = 3, H = 4, dk = 5.
  Tensor x = make_input({6, 20}, seed++);
  const Tensor w = make_input({6, 20}, seed++);
  x.zero_grad();
  const Tensor back = swap_axes(swap_axes(x, {2, 3, 4, 5}, {8, 3, 5}),
                                {2, 4, 3, 5}, {6, 20});
  ASSERT_EQ(back.shape(), x.shape());
  sum(mul(back, w)).backward();
  for (std::size_t e = 0; e < x.size(); ++e) {
    EXPECT_EQ(back.data()[e], x.data()[e]) << "element " << e;
    EXPECT_EQ(x.grad()[e], w.data()[e]) << "element " << e;
  }

  EXPECT_THROW(swap_axes(x, {2, 3, 4, 4}, {8, 3, 5}), std::invalid_argument);
  EXPECT_THROW(swap_axes(x, {2, 3, 4, 5}, {8, 3, 4}), std::invalid_argument);
}

TEST(Autograd, AttentionProbsBlocksHiddenKeyGradient) {
  // One sequence of 4 keys, key 2 padded; 2 heads, causal.
  Tensor q = make_input({2, 4, 3}, 28);
  Tensor k = make_input({2, 4, 3}, 31);
  const KeyMask mask{std::make_shared<const std::vector<float>>(
                         std::vector<float>{1.0f, 1.0f, 0.0f, 1.0f}),
                     2, true};
  const Tensor w = make_input({2, 4, 4}, 32);
  const auto loss = [&] {
    return sum(mul(attention_probs(q, k, mask, 0.7f), w));
  };
  check_gradients(q, loss);
  check_gradients(k, loss);
  for (std::size_t lane = 0; lane < 2; ++lane)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(k.grad()[(lane * 4 + 2) * 3 + c], 0.0f);
}

TEST(Autograd, MeanSumMeanRowsGradients) {
  Tensor a = make_input({3, 4}, 29);
  check_gradients(a, [&] { return mean(a); });
  check_gradients(a, [&] { return scale(sum(a), 0.1f); });
  check_gradients(a, [&] { return mean(mean_rows(a)); });
}

TEST(Autograd, CrossEntropyGradient) {
  Tensor logits = make_input({4, 3}, 30);
  const std::vector<int> targets = {0, 2, 1, -1};  // last ignored
  check_gradients(logits,
                  [&] { return cross_entropy(logits, targets); });
}

TEST(Autograd, CrossEntropyIgnoresNegativeTargets) {
  Tensor logits = make_input({2, 3}, 31);
  const std::vector<int> all_ignored = {-1, -1};
  Tensor loss = cross_entropy(logits, all_ignored);
  EXPECT_FLOAT_EQ(loss.item(), 0.0f);
  loss.backward();
  for (float g : logits.grad()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Autograd, CrossEntropyMatchesManual) {
  Tensor logits({1, 2}, {2.0f, 0.0f});
  const std::vector<int> target = {0};
  const float expected =
      -std::log(std::exp(2.0f) / (std::exp(2.0f) + 1.0f));
  EXPECT_NEAR(cross_entropy(logits, target).item(), expected, 1e-5f);
}

TEST(Autograd, MseGradient) {
  Tensor pred = make_input({5}, 32);
  const std::vector<float> targets = {0.5f, -1.0f, 2.0f, 0.0f, 1.5f};
  check_gradients(pred, [&] { return mse_loss(pred, targets); });
}

TEST(Autograd, DropoutEvalIsIdentity) {
  Rng rng(33);
  Tensor a = make_input({10}, 34);
  Tensor out = dropout(a, 0.5f, /*train=*/false, rng);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_FLOAT_EQ(out.data()[i], a.data()[i]);
}

TEST(Autograd, DropoutTrainScalesSurvivors) {
  Rng rng(35);
  Tensor a = Tensor::full({1000}, 1.0f);
  a.set_requires_grad(true);
  Tensor out = dropout(a, 0.25f, /*train=*/true, rng);
  int zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);
  }
  EXPECT_NEAR(zeros, 250, 60);
}

TEST(Autograd, DropoutMaskEqualsChanceDraws) {
  // The mask is Rng::chance(p) per element, in order: a twin generator
  // replaying chance must predict every output and end in the same state,
  // so a p = 1 run (chance draws nothing there) must not draw either.
  const Tensor a = make_input({1000}, 36);
  for (const float p : {0.1f, 0.25f, 0.5f, 0.9f, 1.0f}) {
    SCOPED_TRACE(p);
    Rng rng(37), ref(37);
    const Tensor out = dropout(a, p, /*train=*/true, rng);
    const float keep_scale = 1.0f / (1.0f - p);
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(out.data()[i],
                a.data()[i] * (ref.chance(p) ? 0.0f : keep_scale))
          << "element " << i;
    EXPECT_EQ(rng.next(), ref.next());
  }
}

TEST(Autograd, ChainedGraphReusesNodeGradOnce) {
  // y = x*x + x used twice in the graph: gradient must be 2x + 1.
  Tensor x({1}, {3.0f}, true);
  Tensor y = add(mul(x, x), x);
  y.backward();
  EXPECT_NEAR(x.grad()[0], 2.0f * 3.0f + 1.0f, 1e-5f);
}

TEST(Autograd, NoGradWhenRequiresGradFalse) {
  Tensor a({2, 2}, {1, 2, 3, 4}, false);
  Tensor b({2, 2}, {1, 1, 1, 1}, true);
  Tensor loss = mean(mul(a, b));
  loss.backward();
  EXPECT_EQ(a.grad().size(), 4u);  // allocated but untouched
  for (float g : a.grad()) EXPECT_FLOAT_EQ(g, 0.0f);
  for (float g : b.grad()) EXPECT_NE(g, 0.0f);
}

}  // namespace
}  // namespace netfm::nn
