#include "nn/tensor.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <unordered_set>

#include "common/metrics.h"
#include "common/threadpool.h"
#include "nn/gemm.h"
#include "nn/kernels/kernels.h"
#include "nn/workspace.h"

namespace netfm::nn {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("netfm::nn: " + what);
}

/// Takes a literal so a passing check builds no string; checks whose
/// message needs formatting call fail() on the failure branch instead.
void check(bool ok, const char* what) {
  if (!ok) fail(what);
}

/// Thread-local no-grad flag behind inference_mode()/InferenceGuard.
thread_local bool t_inference_mode = false;

/// Whether make_node zero-fills the output buffer. Ops that write every
/// element (matmul, unary, copies) skip the fill; ops that accumulate into
/// the output (mean_rows) keep it.
enum class Init { kZero, kUninit };

std::shared_ptr<TensorNode> make_node(
    Shape shape, std::vector<std::shared_ptr<TensorNode>> parents,
    Init init = Init::kZero) {
  auto node = std::make_shared<TensorNode>();
  node->shape = std::move(shape);
  const std::size_t n = numel(node->shape);
  if (t_inference_mode) {
    // Fast path: recycled buffer, no parent links, no grad propagation —
    // the graph is never built, and intermediates recycle as soon as the
    // last Tensor handle drops.
    node->value = Workspace::current().acquire(n);
    node->pooled = true;
    if (init == Init::kZero)
      std::fill(node->value.begin(), node->value.end(), 0.0f);
    return node;
  }
  if (init == Init::kZero)
    node->value.assign(n, 0.0f);
  else
    node->value.resize(n);  // default-init: no zero-fill (UninitAllocator)
  node->parents = std::move(parents);
  for (const auto& p : node->parents)
    if (p && p->requires_grad) node->requires_grad = true;
  return node;
}

/// Installs a backward closure only when the node actually participates in
/// a graph (some parent requires grad). Inference-mode and frozen-input
/// nodes skip the std::function allocation entirely; backward() never
/// visits them (it gates on requires_grad).
template <typename Fn>
void set_backward(const std::shared_ptr<TensorNode>& node, Fn&& fn) {
  if (node->requires_grad) node->backward = std::forward<Fn>(fn);
}

// ---- parallel loop helpers ----------------------------------------------
//
// Every helper partitions work by output ownership: a given output element
// (or row) is written by exactly one chunk, and each chunk reduces in a
// fixed serial order, so results are independent of chunking and therefore
// of the thread count.

/// Elementwise grain: below this many elements a loop stays serial; above,
/// chunks of this size go to the pool.
constexpr std::size_t kElemGrain = std::size_t{1} << 13;

template <typename Fn>
void parallel_elems(std::size_t n, Fn&& fn) {
  ThreadPool::global().parallel_for(0, n, kElemGrain, std::forward<Fn>(fn));
}

/// Row-wise grain targeting ~kElemGrain touched elements per chunk.
template <typename Fn>
void parallel_rows(std::size_t rows, std::size_t cols, Fn&& fn) {
  const std::size_t grain =
      std::max<std::size_t>(1, kElemGrain / std::max<std::size_t>(1, cols));
  ThreadPool::global().parallel_for(0, rows, grain, std::forward<Fn>(fn));
}

// ---- blocked GEMM -------------------------------------------------------
//
// See nn/gemm.h. nn::matmul packs op(B) once per call into thread-local
// scratch; the inference route reuses per-layer panels (nn/packed.h).
// The micro-kernel itself lives in nn/kernels/ behind a runtime-dispatched
// backend table (scalar oracle, AVX2, AVX-512, NEON); every backend keeps
// the same per-element reduction order, so dispatch never changes results.

using kernels::MatRef;
using kernels::kMR;

/// Multiply-adds below which a GEMM is not worth fanning out.
constexpr std::size_t kGemmParallelCutoff = std::size_t{1} << 15;

/// Per-thread packed-B scratch. Only the thread that packs reads/writes its
/// own buffer until it hands the pointer to pool workers for the duration
/// of one (blocking) parallel_for, so there is no aliasing across calls.
thread_local std::vector<float> t_pack_scratch;

/// Full GEMM: packs op(B) into per-thread scratch, then runs gemm_packed
/// (with its bias epilogue when `bias` is non-null).
template <bool Accumulate>
void gemm(std::size_t M, std::size_t N, std::size_t K, MatRef a, MatRef b,
          float* c, bool allow_parallel, const float* bias = nullptr) {
  if (M == 0 || N == 0 || K == 0) return;
  std::vector<float>& scratch = t_pack_scratch;
  const std::size_t packed_size = packed_b_size(K, N);
  if (scratch.size() < packed_size) scratch.resize(packed_size);
  pack_b(b, K, N, scratch.data());
  gemm_packed(M, N, K, a, scratch.data(), c, Accumulate, allow_parallel,
              bias);
}

/// row[j] = row[j] + bias[j]. Written four lanes at a time on
/// non-aliasing pointers so -O2's cheap vectorizer emits packed adds (a
/// plain loop of unknown length stays scalar there); one add per element
/// either way, so the bits are the same.
void add_bias_row(float* __restrict row, const float* __restrict bias,
                  std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    row[j] = row[j] + bias[j];
    row[j + 1] = row[j + 1] + bias[j + 1];
    row[j + 2] = row[j + 2] + bias[j + 2];
    row[j + 3] = row[j + 3] + bias[j + 3];
  }
  for (; j < n; ++j) row[j] = row[j] + bias[j];
}

/// Column block of the serial column reductions: kColBlock local
/// accumulators, a loop -O2 vectorizes.
constexpr std::size_t kColBlock = 16;

/// dst[c] += term(r, c) for c < cols, over rows r in ascending order. Each
/// block of kColBlock columns reduces in local accumulators seeded from
/// dst, so every column sees the same add sequence as the plain loop
/// `for r: for c: dst[c] += term(r, c)`. Serial on purpose: the rows of a
/// training step's bias/gain gradients are too few to pay for a pool
/// hand-off, and a fixed order keeps the sums independent of threading.
template <typename Term>
void add_column_sums(std::size_t rows, std::size_t cols, float* dst,
                     Term term) {
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t width = std::min(kColBlock, cols - c0);
    float acc[kColBlock];
    std::copy_n(dst + c0, width, acc);
    if (width == kColBlock) {
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < kColBlock; ++c) acc[c] += term(r, c0 + c);
    } else {
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < width; ++c) acc[c] += term(r, c0 + c);
    }
    std::copy_n(acc, width, dst + c0);
  }
}

/// Interprets a tensor as a batch of matrices: rank 2 = batch 1.
struct MatView {
  std::size_t batch, rows, cols;
};

MatView as_matrices(const Shape& s, const char* name) {
  if (s.size() == 2) return {1, s[0], s[1]};
  if (s.size() == 3) return {s[0], s[1], s[2]};
  fail(std::string(name) + ": expected rank 2 or 3, got " + shape_str(s));
}

}  // namespace

std::size_t numel(const Shape& shape) noexcept {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::string out = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(shape[i]);
  }
  return out + "]";
}

void pack_b(MatRef b, std::size_t K, std::size_t N, float* packed) {
  for (std::size_t jp = 0; jp < N; jp += kernels::kNR) {
    const std::size_t nr = std::min(kernels::kNR, N - jp);
    float* dst = packed + jp * K;
    for (std::size_t kk = 0; kk < K; ++kk) {
      const float* src = b.p + kk * b.rs + jp * b.cs;
      if (b.cs == 1)
        std::copy_n(src, nr, dst);  // contiguous panel row
      else
        for (std::size_t c = 0; c < nr; ++c) dst[c] = src[c * b.cs];
      std::fill(dst + nr, dst + kernels::kNR, 0.0f);
      dst += kernels::kNR;
    }
  }
}

void gemm_packed(std::size_t M, std::size_t N, std::size_t K, MatRef a,
                 const float* packed, float* c, bool accumulate,
                 bool allow_parallel, const float* bias) {
  if (M == 0 || N == 0 || K == 0) return;
  const auto gemm_rows = kernels::table().gemm_rows;
  const auto run = [=](std::size_t lo, std::size_t hi) {
    gemm_rows(a, packed, K, N, c, lo, hi, accumulate);
    if (bias == nullptr) return;
    for (std::size_t i = lo; i < hi; ++i) add_bias_row(c + i * N, bias, N);
  };
  if (!allow_parallel || M * N * K < kGemmParallelCutoff) {
    run(0, M);
    return;
  }
  // At least one micro-tile of rows and ~cutoff flops per chunk.
  const std::size_t min_rows =
      kGemmParallelCutoff / std::max<std::size_t>(1, N * K) + 1;
  const std::size_t grain = (std::max(min_rows, kMR) + kMR - 1) / kMR * kMR;
  ThreadPool::global().parallel_for(0, M, grain, run);
}

TensorNode::~TensorNode() {
  // Pooled buffers recycle through the workspace of the destroying thread
  // (the driver thread under the supported usage pattern; see workspace.h).
  if (pooled) Workspace::current().release(std::move(value));
}

void TensorNode::ensure_grad() {
  if (grad.size() != value.size()) grad.assign(value.size(), 0.0f);
}

bool inference_mode() noexcept { return t_inference_mode; }

void keep_freed_memory() {
#if defined(__GLIBC__)
  static const bool configured = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)configured;
#endif
}

InferenceGuard::InferenceGuard() noexcept : previous_(t_inference_mode) {
  t_inference_mode = true;
}

InferenceGuard::~InferenceGuard() { t_inference_mode = previous_; }

Tensor::Tensor(Shape shape, bool requires_grad) {
  node_ = std::make_shared<TensorNode>();
  node_->shape = std::move(shape);
  node_->value.assign(numel(node_->shape), 0.0f);
  node_->requires_grad = requires_grad;
}

Tensor::Tensor(Shape shape, std::vector<float> values, bool requires_grad) {
  check(numel(shape) == values.size(), "Tensor: values/shape mismatch");
  node_ = std::make_shared<TensorNode>();
  node_->shape = std::move(shape);
  node_->value.assign(values.begin(), values.end());
  node_->requires_grad = requires_grad;
}

Tensor Tensor::scalar(float v) {
  return Tensor(Shape{1}, std::vector<float>{v});
}

Tensor Tensor::empty(Shape shape) {
  return Tensor(make_node(std::move(shape), {}, Init::kUninit));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float v) {
  Tensor t(std::move(shape));
  std::fill(t.data().begin(), t.data().end(), v);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev, bool requires_grad) {
  Tensor t(std::move(shape), requires_grad);
  for (float& v : t.data())
    v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

const Shape& Tensor::shape() const {
  check(defined(), "shape() on undefined tensor");
  return node_->shape;
}
std::size_t Tensor::size() const { return numel(shape()); }
std::size_t Tensor::dim(std::size_t i) const { return shape().at(i); }
std::size_t Tensor::rank() const { return shape().size(); }
bool Tensor::requires_grad() const { return defined() && node_->requires_grad; }
void Tensor::set_requires_grad(bool v) {
  check(defined(), "set_requires_grad on undefined tensor");
  node_->requires_grad = v;
}

std::span<float> Tensor::data() {
  check(defined(), "data() on undefined tensor");
  return node_->value;
}
std::span<const float> Tensor::data() const {
  check(defined(), "data() on undefined tensor");
  return node_->value;
}
std::span<float> Tensor::grad() {
  check(defined(), "grad() on undefined tensor");
  node_->ensure_grad();
  return node_->grad;
}
std::span<const float> Tensor::grad() const {
  check(defined(), "grad() on undefined tensor");
  const_cast<TensorNode*>(node_.get())->ensure_grad();
  return node_->grad;
}

float Tensor::item() const {
  check(size() == 1, "item() requires a scalar tensor");
  return data()[0];
}

void Tensor::zero_grad() {
  if (!defined()) return;
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

void Tensor::backward() {
  check(defined() && size() == 1, "backward() requires a scalar loss");
  // Topological order via iterative post-order DFS.
  std::vector<TensorNode*> order;
  std::unordered_set<TensorNode*> seen;
  std::vector<std::pair<TensorNode*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  seen.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorNode* child = node->parents[next_child++].get();
      if (child && !seen.count(child)) {
        seen.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorNode* node = *it;
    if (node->backward && node->requires_grad) {
      for (const auto& p : node->parents)
        if (p && p->requires_grad) p->ensure_grad();
      node->ensure_grad();
      node->backward(*node);
    }
  }
}

Tensor Tensor::detach() const {
  check(defined(), "detach() on undefined tensor");
  auto node = std::make_shared<TensorNode>();
  node->shape = node_->shape;
  node->value = node_->value;
  node->requires_grad = false;
  return Tensor(std::move(node));
}

// ---- ops ----

namespace {

/// Shape validation shared by matmul and matmul_reference.
struct MatmulDims {
  std::size_t batch, m, k, n;
  bool shared_rhs;
  Shape out_shape;
};

MatmulDims matmul_dims(const Tensor& a, const Tensor& b) {
  const MatView av = as_matrices(a.shape(), "matmul lhs");
  const MatView bv = as_matrices(b.shape(), "matmul rhs");
  const bool shared_rhs = a.rank() == 3 && b.rank() == 2;
  if (av.cols != bv.rows)
    fail("matmul: inner dims differ: " + shape_str(a.shape()) + " x " +
         shape_str(b.shape()));
  check(shared_rhs || av.batch == bv.batch, "matmul: batch mismatch");
  Shape out_shape = a.rank() == 3 ? Shape{av.batch, av.rows, bv.cols}
                                  : Shape{av.rows, bv.cols};
  return {av.batch, av.rows, av.cols, bv.cols, shared_rhs,
          std::move(out_shape)};
}

// One counter bump + (when collecting) two clock reads per GEMM call —
// nothing per element. matmul and linear share the nn.matmul.* metrics.

/// Counts one forward product of `flops` and times it into nn.matmul.ns.
metrics::ScopedTimer time_forward_gemm(std::size_t flops) {
  static const auto c_calls = metrics::counter("nn.matmul.calls");
  static const auto c_flops = metrics::counter("nn.matmul.flops", "flop");
  static const auto h_time = metrics::histogram("nn.matmul.ns");
  c_calls.add();
  c_flops.add(flops);
  return metrics::ScopedTimer(h_time);
}

/// Counts one backward pass and times it into nn.matmul.backward.ns.
metrics::ScopedTimer time_backward_gemm() {
  static const auto c_bwd = metrics::counter("nn.matmul.backward.calls");
  static const auto h_bwd = metrics::histogram("nn.matmul.backward.ns");
  c_bwd.add();
  return metrics::ScopedTimer(h_bwd);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  MatmulDims d = matmul_dims(a, b);
  const metrics::ScopedTimer timer =
      time_forward_gemm(2 * d.batch * d.m * d.k * d.n);
  auto node =
      make_node(std::move(d.out_shape), {a.node(), b.node()}, Init::kUninit);

  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = node->value.data();
  const std::size_t batch = d.batch, m = d.m, k = d.k, n = d.n;
  const bool shared_rhs = d.shared_rhs;
  // Below-cutoff batched products run inline (grain = whole range).
  const std::size_t batch_grain =
      batch * m * n * k >= kGemmParallelCutoff ? 1 : batch;
  if (shared_rhs || batch == 1) {
    // One GEMM over the collapsed (batch*m) row space: with a shared (or
    // single) RHS, the batch dim is just more rows of A and C.
    gemm<false>(batch * m, n, k, {ap, k, 1}, {bp, n, 1}, op,
                /*allow_parallel=*/true);
  } else {
    // Distinct RHS per batch entry (attention): fan out across the batch;
    // each lane packs and multiplies its own pair serially.
    ThreadPool::global().parallel_for(
        0, batch, batch_grain, [=](std::size_t lo, std::size_t hi) {
          for (std::size_t bi = lo; bi < hi; ++bi)
            gemm<false>(m, n, k, {ap + bi * m * k, k, 1},
                        {bp + bi * k * n, n, 1}, op + bi * m * n,
                        /*allow_parallel=*/false);
        });
  }

  set_backward(node, [m, k, n, batch, batch_grain, shared_rhs](
                       TensorNode& self) {
    const metrics::ScopedTimer bwd_timer = time_backward_gemm();
    TensorNode& A = *self.parents[0];
    TensorNode& B = *self.parents[1];
    const float* gp = self.grad.data();
    const float* ap = A.value.data();
    const float* bp = B.value.data();
    if (A.requires_grad) {
      float* ga = A.grad.data();
      if (shared_rhs || batch == 1) {
        // dA (batch*m x k) += dC (batch*m x n) · Bᵀ (n x k)
        gemm<true>(batch * m, k, n, {gp, n, 1}, {bp, 1, n}, ga, true);
      } else {
        ThreadPool::global().parallel_for(
            0, batch, batch_grain, [=](std::size_t lo, std::size_t hi) {
              for (std::size_t bi = lo; bi < hi; ++bi)
                gemm<true>(m, k, n, {gp + bi * m * n, n, 1},
                           {bp + bi * k * n, 1, n}, ga + bi * m * k, false);
            });
      }
    }
    if (B.requires_grad) {
      float* gb = B.grad.data();
      if (shared_rhs || batch == 1) {
        // dB (k x n) += Aᵀ (k x batch*m) · dC (batch*m x n); for shared
        // RHS the batch reduction is exactly the collapsed K dimension.
        gemm<true>(k, n, batch * m, {ap, 1, k}, {gp, n, 1}, gb, true);
      } else {
        ThreadPool::global().parallel_for(
            0, batch, batch_grain, [=](std::size_t lo, std::size_t hi) {
              for (std::size_t bi = lo; bi < hi; ++bi)
                gemm<true>(k, n, m, {ap + bi * m * k, 1, k},
                           {gp + bi * m * n, n, 1}, gb + bi * k * n, false);
            });
      }
    }
  });
  return Tensor(node);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  const MatView xv = as_matrices(x.shape(), "linear input");
  if (w.rank() != 2 || w.dim(0) != xv.cols || xv.cols == 0 ||
      b.size() != w.dim(1))
    fail("linear: expected x [.., K], w [K, N], b [N] with K > 0, got " +
         shape_str(x.shape()) + ", " + shape_str(w.shape()) + ", " +
         shape_str(b.shape()));
  const std::size_t m = xv.batch * xv.rows, k = xv.cols, n = w.dim(1);
  const metrics::ScopedTimer timer = time_forward_gemm(2 * m * k * n);
  Shape out_shape = x.shape();
  out_shape.back() = n;
  auto node = make_node(std::move(out_shape), {x.node(), w.node(), b.node()},
                        Init::kUninit);
  // The bias epilogue is add()'s single rounding on each finished row.
  gemm<false>(m, n, k, {x.data().data(), k, 1}, {w.data().data(), n, 1},
              node->value.data(), /*allow_parallel=*/true, b.data().data());

  set_backward(node, [m, k, n](TensorNode& self) {
    const metrics::ScopedTimer bwd_timer = time_backward_gemm();
    TensorNode& X = *self.parents[0];
    TensorNode& W = *self.parents[1];
    TensorNode& B = *self.parents[2];
    const float* gp = self.grad.data();
    // The same two products as matmul's backward: dX (m x k) += dC · Wᵀ,
    // dW (k x n) += Xᵀ · dC.
    if (X.requires_grad)
      gemm<true>(m, k, n, {gp, n, 1}, {W.value.data(), 1, n}, X.grad.data(),
                 true);
    if (W.requires_grad)
      gemm<true>(k, n, m, {X.value.data(), 1, k}, {gp, n, 1}, W.grad.data(),
                 true);
    if (B.requires_grad)
      add_column_sums(m, n, B.grad.data(),
                      [gp, n](std::size_t r, std::size_t c) {
                        return gp[r * n + c];
                      });
  });
  return Tensor(node);
}

Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  MatmulDims d = matmul_dims(a, b);
  Tensor out(std::move(d.out_shape));
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = out.data().data();
  for (std::size_t batch_i = 0; batch_i < d.batch; ++batch_i) {
    const float* abase = ap + batch_i * d.m * d.k;
    const float* bbase = d.shared_rhs ? bp : bp + batch_i * d.k * d.n;
    float* obase = op + batch_i * d.m * d.n;
    for (std::size_t i = 0; i < d.m; ++i) {
      float* orow = obase + i * d.n;
      for (std::size_t kk = 0; kk < d.k; ++kk) {
        const float av_ik = abase[i * d.k + kk];
        const float* brow = bbase + kk * d.n;
        for (std::size_t j = 0; j < d.n; ++j) orow[j] += av_ik * brow[j];
      }
    }
  }
  return out;
}

namespace {

/// add/sub with optional last-dim broadcast of b.
Tensor add_like(const Tensor& a, const Tensor& b, float sign) {
  const std::size_t an = a.size();
  const std::size_t bn = b.size();
  const std::size_t last = a.shape().back();
  const bool broadcast = bn != an;
  if (broadcast && bn != last)
    fail("add: rhs must match shape or last dim, got " + shape_str(a.shape()) +
         " vs " + shape_str(b.shape()));

  auto node = make_node(a.shape(), {a.node(), b.node()}, Init::kUninit);
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = node->value.data();
  if (broadcast) {
    // Row loop: b repeats along every row of a, no per-element modulo.
    parallel_rows(an / last, last, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const float* arow = ap + r * last;
        float* orow = op + r * last;
        for (std::size_t j = 0; j < last; ++j)
          orow[j] = arow[j] + sign * bp[j];
      }
    });
  } else {
    parallel_elems(an, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) op[i] = ap[i] + sign * bp[i];
    });
  }

  set_backward(node, [an, last, broadcast, sign](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    TensorNode& B = *self.parents[1];
    const float* g = self.grad.data();
    if (A.requires_grad) {
      float* ga = A.grad.data();
      parallel_elems(an, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ga[i] += g[i];
      });
    }
    if (B.requires_grad) {
      if (broadcast) {
        add_column_sums(an / last, last, B.grad.data(),
                        [g, last, sign](std::size_t r, std::size_t j) {
                          return sign * g[r * last + j];
                        });
      } else {
        float* gb = B.grad.data();
        parallel_elems(an, [=](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) gb[i] += sign * g[i];
        });
      }
    }
  });
  return Tensor(node);
}

/// Shared unary-elementwise builder, a chunk at a time: `fwd(x, n, y)`
/// fills n outputs, `bwd(x, y, g, n, ga)` accumulates their gradient.
template <typename F, typename B>
Tensor unary_chunks(const Tensor& a, F fwd, B bwd) {
  auto node = make_node(a.shape(), {a.node()}, Init::kUninit);
  const float* ap = a.data().data();
  float* op = node->value.data();
  const std::size_t n = a.size();
  parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
    fwd(ap + lo, hi - lo, op + lo);
  });
  set_backward(node, [n, bwd](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    float* ga = A.grad.data();
    const float* av = A.value.data();
    const float* g = self.grad.data();
    const float* y = self.value.data();
    parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
      bwd(av + lo, y + lo, g + lo, hi - lo, ga + lo);
    });
  });
  return Tensor(node);
}

/// unary_chunks over per-element functions: y = f(x), dy/dx = df(x, y).
template <typename F, typename DF>
Tensor unary(const Tensor& a, F f, DF df) {
  return unary_chunks(
      a,
      [f](const float* x, std::size_t n, float* y) {
        for (std::size_t i = 0; i < n; ++i) y[i] = f(x[i]);
      },
      [df](const float* x, const float* y, const float* g, std::size_t n,
           float* ga) {
        for (std::size_t i = 0; i < n; ++i) ga[i] += g[i] * df(x[i], y[i]);
      });
}

/// ga[i] += g[i] * df(y[i]) for ops whose derivative reads the output only.
template <typename DF>
auto grad_from_output(DF df) {
  return [df](const float*, const float* y, const float* g, std::size_t n,
              float* ga) {
    for (std::size_t i = 0; i < n; ++i) ga[i] += g[i] * df(y[i]);
  };
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return add_like(a, b, 1.0f); }
Tensor sub(const Tensor& a, const Tensor& b) { return add_like(a, b, -1.0f); }

Tensor mul(const Tensor& a, const Tensor& b) {
  check(a.size() == b.size(), "mul: shape mismatch");
  auto node = make_node(a.shape(), {a.node(), b.node()}, Init::kUninit);
  const std::size_t n = a.size();
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = node->value.data();
  parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) op[i] = ap[i] * bp[i];
  });
  set_backward(node, [n](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    TensorNode& B = *self.parents[1];
    const bool need_a = A.requires_grad, need_b = B.requires_grad;
    const float* g = self.grad.data();
    const float* av = A.value.data();
    const float* bv = B.value.data();
    float* ga = need_a ? A.grad.data() : nullptr;
    float* gb = need_b ? B.grad.data() : nullptr;
    parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (need_a) ga[i] += g[i] * bv[i];
        if (need_b) gb[i] += g[i] * av[i];
      }
    });
  });
  return Tensor(node);
}

Tensor scale(const Tensor& a, float s) {
  return unary(
      a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor relu(const Tensor& a) {
  return unary(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

// The transcendental ops run on the dispatched kernels (nn/kernels), whose
// tanh and exp are bitwise the libm ports of libm_port.h on every backend.

Tensor gelu(const Tensor& a) {
  // tanh approximation of GELU (matches BERT), fused in the kernel layer.
  return unary_chunks(
      a,
      [](const float* x, std::size_t n, float* y) {
        kernels::table().gelu(x, n, y);
      },
      [](const float* x, const float*, const float* g, std::size_t n,
         float* ga) { kernels::table().gelu_backward(x, g, n, ga); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_chunks(
      a,
      [](const float* x, std::size_t n, float* y) {
        kernels::table().tanh(x, n, y);
      },
      grad_from_output([](float y) { return 1.0f - y * y; }));
}

Tensor sigmoid(const Tensor& a) {
  return unary_chunks(
      a,
      [](const float* x, std::size_t n, float* y) {
        // 1 / (1 + exp(-x)); exp(-x - 0) is exp(-x) for every x.
        for (std::size_t i = 0; i < n; ++i) y[i] = -x[i];
        kernels::table().exp_shift(y, 0.0f, n, y);
        for (std::size_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + y[i]);
      },
      grad_from_output([](float y) { return y * (1.0f - y); }));
}

namespace {

/// Rows-of-last-dim iteration helper.
struct LastDim {
  std::size_t rows, cols;
};
LastDim last_dim(const Shape& s) {
  const std::size_t cols = s.back();
  return {numel(s) / cols, cols};
}

}  // namespace

Tensor softmax(const Tensor& a) {
  const auto [rows, cols] = last_dim(a.shape());
  auto node = make_node(a.shape(), {a.node()}, Init::kUninit);
  const float* ap = a.data().data();
  float* op = node->value.data();
  parallel_rows(rows, cols, [=, cols = cols](std::size_t lo, std::size_t hi) {
    const kernels::KernelTable& kt = kernels::table();
    for (std::size_t r = lo; r < hi; ++r) {
      const float* in = ap + r * cols;
      float* out = op + r * cols;
      float maxv = in[0];
      for (std::size_t c = 1; c < cols; ++c) maxv = std::max(maxv, in[c]);
      kt.exp_shift(in, maxv, cols, out);
      float total = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) total += out[c];
      for (std::size_t c = 0; c < cols; ++c) out[c] /= total;
    }
  });
  set_backward(node, [rows = rows, cols = cols](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    const float* yp = self.value.data();
    const float* gp = self.grad.data();
    float* gap = A.grad.data();
    parallel_rows(rows, cols, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const float* y = yp + r * cols;
        const float* g = gp + r * cols;
        float dot = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) dot += y[c] * g[c];
        float* ga = gap + r * cols;
        for (std::size_t c = 0; c < cols; ++c) ga[c] += y[c] * (g[c] - dot);
      }
    });
  });
  return Tensor(node);
}

Tensor attention_probs(const Tensor& q, const Tensor& k, const KeyMask& mask,
                       float scale) {
  check(q.rank() == 3 && q.shape() == k.shape(),
        "attention_probs: q and k must share a [BH, T, dk] shape");
  const std::size_t bh = q.dim(0), t = q.dim(1), dk = q.dim(2);
  const std::size_t heads = mask.heads;
  check(mask.key_valid != nullptr && heads > 0 && bh % heads == 0 &&
            mask.key_valid->size() == bh / heads * t,
        "attention_probs: key_valid must hold one flag per (sequence, key)");
  auto node = make_node({bh, t, t}, {q.node(), k.node()}, Init::kUninit);
  const float* qp = q.data().data();
  const float* kp = k.data().data();
  const float* kv = mask.key_valid->data();
  const bool causal = mask.causal;
  float* op = node->value.data();
  // Key j is visible to query row r (lane r / t, position r % t) iff it
  // lies in the row's span [0, end) — every key, or when causal the keys
  // up to the query — and the row's sequence flags it real.
  const auto row_flags = [=](std::size_t r) { return kv + r / t / heads * t; };
  const auto span_end = [=](std::size_t r) { return causal ? r % t + 1 : t; };
  // Same lane fan-out and per-lane GEMM as the batched matmul.
  const std::size_t lane_grain =
      bh * t * t * dk >= kGemmParallelCutoff ? 1 : bh;
  ThreadPool::global().parallel_for(
      0, bh, lane_grain, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t lane = lo; lane < hi; ++lane)
          gemm<false>(t, t, dk, {qp + lane * t * dk, dk, 1},
                      {kp + lane * t * dk, 1, dk}, op + lane * t * t,
                      /*allow_parallel=*/false);
      });
  // Softmax over the visible keys only, in ascending key order: the max
  // and the sum see the same values, in the same order, as a full-row
  // softmax whose hidden entries contribute exp(-1e9 - max) == +0.
  parallel_rows(bh * t, t, [=](std::size_t lo, std::size_t hi) {
    const kernels::KernelTable& kt = kernels::table();
    for (std::size_t r = lo; r < hi; ++r) {
      float* out = op + r * t;
      const float* flags = row_flags(r);
      const std::size_t end = span_end(r);
      float maxv = -std::numeric_limits<float>::infinity();
      bool any_visible = false;
      for (std::size_t j = 0; j < end; ++j) {
        if (flags[j] == 0.0f) continue;
        out[j] *= scale;
        maxv = std::max(maxv, out[j]);
        any_visible = true;
      }
      if (!any_visible) {
        std::fill_n(out, t, 1.0f / static_cast<float>(t));
        continue;
      }
      // exp over the whole span, then hidden keys back to 0.
      kt.exp_shift(out, maxv, end, out);
      float total = 0.0f;
      for (std::size_t j = 0; j < end; ++j) {
        if (flags[j] == 0.0f) out[j] = 0.0f;
        total += out[j];
      }
      for (std::size_t j = 0; j < end; ++j) out[j] /= total;
      std::fill(out + end, out + t, 0.0f);
    }
  });

  // `owner` keeps the flags behind `row_flags`' raw pointer alive.
  set_backward(node, [=, owner = mask.key_valid](TensorNode& self) {
    TensorNode& Q = *self.parents[0];
    TensorNode& K = *self.parents[1];
    const float* yp = self.value.data();
    const float* gp = self.grad.data();
    // dS = softmax backward restricted to the visible keys, times scale.
    // The `0.0f +` is the composed route's accumulation into a zeroed
    // gradient buffer (it turns -0 into +0), kept so the bits match.
    FloatBuffer ds(bh * t * t);
    float* dsp = ds.data();
    parallel_rows(bh * t, t, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const float* y = yp + r * t;
        const float* g = gp + r * t;
        float* d = dsp + r * t;
        const float* flags = row_flags(r);
        const std::size_t end = span_end(r);
        float dot = 0.0f;
        for (std::size_t j = 0; j < end; ++j)
          if (flags[j] != 0.0f) dot += y[j] * g[j];
        for (std::size_t j = 0; j < end; ++j)
          d[j] = flags[j] != 0.0f ? (0.0f + y[j] * (g[j] - dot)) * scale
                                  : 0.0f;
        std::fill(d + end, d + t, 0.0f);
      }
    });
    const float* qv = Q.value.data();
    const float* kvals = K.value.data();
    float* gq = Q.requires_grad ? Q.grad.data() : nullptr;
    float* gk = K.requires_grad ? K.grad.data() : nullptr;
    ThreadPool::global().parallel_for(
        0, bh, lane_grain, [=](std::size_t lo, std::size_t hi) {
          for (std::size_t lane = lo; lane < hi; ++lane) {
            const float* dl = dsp + lane * t * t;
            const std::size_t off = lane * t * dk;
            // dq (t x dk) += dS (t x t) · k;  dk (t x dk) += dSᵀ · q.
            if (gq)
              gemm<true>(t, dk, t, {dl, t, 1}, {kvals + off, dk, 1}, gq + off,
                         false);
            if (gk)
              gemm<true>(t, dk, t, {dl, 1, t}, {qv + off, dk, 1}, gk + off,
                         false);
          }
        });
  });
  return Tensor(node);
}

Tensor log_softmax(const Tensor& a) {
  const auto [rows, cols] = last_dim(a.shape());
  auto node = make_node(a.shape(), {a.node()}, Init::kUninit);
  const float* ap = a.data().data();
  float* op = node->value.data();
  parallel_rows(rows, cols, [=, cols = cols](std::size_t lo, std::size_t hi) {
    const kernels::KernelTable& kt = kernels::table();
    for (std::size_t r = lo; r < hi; ++r) {
      const float* in = ap + r * cols;
      float* out = op + r * cols;
      float maxv = in[0];
      for (std::size_t c = 1; c < cols; ++c) maxv = std::max(maxv, in[c]);
      kt.exp_shift(in, maxv, cols, out);  // out is scratch until below
      float total = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) total += out[c];
      const float log_total = std::log(total) + maxv;
      for (std::size_t c = 0; c < cols; ++c) out[c] = in[c] - log_total;
    }
  });
  set_backward(node, [rows = rows, cols = cols](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    const float* yp = self.value.data();
    const float* gp = self.grad.data();
    float* gap = A.grad.data();
    parallel_rows(rows, cols, [=](std::size_t lo, std::size_t hi) {
      const kernels::KernelTable& kt = kernels::table();
      constexpr std::size_t kRun = 64;
      float ey[kRun];  // exp(y) over one run of a row
      for (std::size_t r = lo; r < hi; ++r) {
        const float* y = yp + r * cols;
        const float* g = gp + r * cols;
        float gsum = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) gsum += g[c];
        float* ga = gap + r * cols;
        for (std::size_t c0 = 0; c0 < cols; c0 += kRun) {
          const std::size_t len = std::min(kRun, cols - c0);
          kt.exp_shift(y + c0, 0.0f, len, ey);
          for (std::size_t c = 0; c < len; ++c)
            ga[c0 + c] += g[c0 + c] - ey[c] * gsum;
        }
      }
    });
  });
  return Tensor(node);
}

Tensor layer_norm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                  float eps) {
  const auto [rows, cols] = last_dim(a.shape());
  check(gain.size() == cols && bias.size() == cols,
        "layer_norm: gain/bias must have last-dim length");
  auto node =
      make_node(a.shape(), {a.node(), gain.node(), bias.node()},
                Init::kUninit);
  // Cache per-row mean and inverse stddev for the backward pass — skipped
  // entirely on the no-grad route (same arithmetic either way, so results
  // stay bit-identical).
  auto stats = node->requires_grad
                   ? std::make_shared<std::vector<float>>(rows * 2)
                   : nullptr;
  {
    const float* ap = a.data().data();
    const float* g = gain.data().data();
    const float* b = bias.data().data();
    float* op = node->value.data();
    float* st = stats ? stats->data() : nullptr;
    parallel_rows(rows, cols,
                  [=, cols = cols](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) {
        const float* in = ap + r * cols;
        float mean = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) mean += in[c];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) {
          const float d = in[c] - mean;
          var += d * d;
        }
        var /= static_cast<float>(cols);
        const float inv_std = 1.0f / std::sqrt(var + eps);
        if (st) {
          st[r * 2] = mean;
          st[r * 2 + 1] = inv_std;
        }
        float* out = op + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
          out[c] = (in[c] - mean) * inv_std * g[c] + b[c];
      }
    });
  }
  set_backward(node, [rows = rows, cols = cols, stats](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    TensorNode& G = *self.parents[1];
    TensorNode& B = *self.parents[2];
    const float* st = stats->data();
    const float* in0 = A.value.data();
    const float* gout0 = self.grad.data();
    const float* g = G.value.data();
    // Gain/bias gradients reduce over all rows into `cols` slots.
    if (G.requires_grad)
      add_column_sums(rows, cols, G.grad.data(),
                      [=](std::size_t r, std::size_t c) {
                        const float xhat =
                            (in0[r * cols + c] - st[r * 2]) * st[r * 2 + 1];
                        return gout0[r * cols + c] * xhat;
                      });
    if (B.requires_grad)
      add_column_sums(rows, cols, B.grad.data(),
                      [=](std::size_t r, std::size_t c) {
                        return gout0[r * cols + c];
                      });
    // Input gradient is row-owned: parallel.
    if (A.requires_grad) {
      float* ga0 = A.grad.data();
      parallel_rows(rows, cols, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float mean = st[r * 2];
          const float inv_std = st[r * 2 + 1];
          const float* in = in0 + r * cols;
          const float* gout = gout0 + r * cols;
          float sum_gy = 0.0f, sum_gy_xhat = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) {
            const float gy = gout[c] * g[c];
            const float xhat = (in[c] - mean) * inv_std;
            sum_gy += gy;
            sum_gy_xhat += gy * xhat;
          }
          const float inv_n = 1.0f / static_cast<float>(cols);
          float* ga = ga0 + r * cols;
          for (std::size_t c = 0; c < cols; ++c) {
            const float gy = gout[c] * g[c];
            const float xhat = (in[c] - mean) * inv_std;
            ga[c] += inv_std *
                     (gy - inv_n * sum_gy - xhat * inv_n * sum_gy_xhat);
          }
        }
      });
    }
  });
  return Tensor(node);
}

Tensor embedding(const Tensor& weight, std::span<const int> ids) {
  check(weight.rank() == 2, "embedding: weight must be [V, D]");
  const std::size_t vocab = weight.dim(0);
  const std::size_t dim = weight.dim(1);
  auto node = make_node(Shape{ids.size(), dim}, {weight.node()},
                        Init::kUninit);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    check(id >= 0 && static_cast<std::size_t>(id) < vocab,
          "embedding: id out of range");
    std::copy_n(weight.data().data() + static_cast<std::size_t>(id) * dim,
                dim, node->value.data() + i * dim);
  }
  // The id copy exists only for the backward closure; the no-grad route
  // (frozen weights or inference mode) skips the allocation.
  auto ids_copy = node->requires_grad
                      ? std::make_shared<std::vector<int>>(ids.begin(),
                                                           ids.end())
                      : nullptr;
  set_backward(node, [ids_copy, dim](TensorNode& self) {
    TensorNode& W = *self.parents[0];
    if (!W.requires_grad) return;
    for (std::size_t i = 0; i < ids_copy->size(); ++i) {
      const auto id = static_cast<std::size_t>((*ids_copy)[i]);
      const float* g = self.grad.data() + i * dim;
      float* gw = W.grad.data() + id * dim;
      for (std::size_t d = 0; d < dim; ++d) gw[d] += g[d];
    }
  });
  return Tensor(node);
}

Tensor dropout(const Tensor& a, float p, bool train, Rng& rng) {
  if (!train || p <= 0.0f) return a;
  const std::size_t n = a.size();
  auto mask = std::make_shared<std::vector<float>>(n);
  const float keep_scale = 1.0f / (1.0f - p);
  // Mask draw stays serial: the rng stream must not depend on threading.
  // It is Rng::chance(p) on the raw draw: uniform01() is (next() >> 11) ·
  // 2^-53 exactly, so uniform01() < p iff (next() >> 11) < ceil(p · 2^53).
  // The mask starts zeroed, so, like chance, p >= 1 drops everything
  // without drawing.
  if (p < 1.0f) {
    const auto threshold = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(p) * 0x1.0p53));
    const float vals[2] = {0.0f, keep_scale};  // indexed by the keep test
    float* m = mask->data();
    for (std::size_t i = 0; i < n; ++i)
      m[i] = vals[(rng.next() >> 11) >= threshold];
  }
  auto node = make_node(a.shape(), {a.node()}, Init::kUninit);
  const float* ap = a.data().data();
  const float* mp = mask->data();
  float* op = node->value.data();
  parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) op[i] = ap[i] * mp[i];
  });
  set_backward(node, [mask, n](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    const float* g = self.grad.data();
    const float* mp = mask->data();
    float* ga = A.grad.data();
    parallel_elems(n, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ga[i] += g[i] * mp[i];
    });
  });
  return Tensor(node);
}

Tensor transpose(const Tensor& a) {
  const MatView v = as_matrices(a.shape(), "transpose");
  Shape out_shape = a.shape();
  std::swap(out_shape[out_shape.size() - 1], out_shape[out_shape.size() - 2]);
  auto node = make_node(std::move(out_shape), {a.node()}, Init::kUninit);
  for (std::size_t batch_i = 0; batch_i < v.batch; ++batch_i) {
    const float* in = a.data().data() + batch_i * v.rows * v.cols;
    float* out = node->value.data() + batch_i * v.rows * v.cols;
    for (std::size_t i = 0; i < v.rows; ++i)
      for (std::size_t j = 0; j < v.cols; ++j)
        out[j * v.rows + i] = in[i * v.cols + j];
  }
  set_backward(node, [v](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t batch_i = 0; batch_i < v.batch; ++batch_i) {
      const float* g = self.grad.data() + batch_i * v.rows * v.cols;
      float* ga = A.grad.data() + batch_i * v.rows * v.cols;
      for (std::size_t i = 0; i < v.rows; ++i)
        for (std::size_t j = 0; j < v.cols; ++j)
          ga[i * v.cols + j] += g[j * v.rows + i];
    }
  });
  return Tensor(node);
}

Tensor reshape(const Tensor& a, Shape shape) {
  if (numel(shape) != a.size())
    fail("reshape: element count mismatch " + shape_str(a.shape()) + " -> " +
         shape_str(shape));
  auto node = make_node(std::move(shape), {a.node()}, Init::kUninit);
  node->value.assign(a.data().begin(), a.data().end());
  set_backward(node, [](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < self.grad.size(); ++i)
      A.grad[i] += self.grad[i];
  });
  return Tensor(node);
}

Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end) {
  check(a.rank() == 2, "slice_rows: rank-2 only");
  check(begin <= end && end <= a.dim(0), "slice_rows: bad range");
  const std::size_t cols = a.dim(1);
  auto node =
      make_node(Shape{end - begin, cols}, {a.node()}, Init::kUninit);
  std::copy_n(a.data().data() + begin * cols, (end - begin) * cols,
              node->value.data());
  set_backward(node, [begin, cols](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < self.grad.size(); ++i)
      A.grad[begin * cols + i] += self.grad[i];
  });
  return Tensor(node);
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat_rows: empty input");
  const std::size_t cols = parts[0].dim(1);
  std::size_t rows = 0;
  std::vector<std::shared_ptr<TensorNode>> parents;
  for (const Tensor& t : parts) {
    check(t.rank() == 2 && t.dim(1) == cols, "concat_rows: column mismatch");
    rows += t.dim(0);
    parents.push_back(t.node());
  }
  auto node = make_node(Shape{rows, cols}, std::move(parents), Init::kUninit);
  std::size_t at = 0;
  for (const Tensor& t : parts) {
    std::copy_n(t.data().data(), t.size(), node->value.data() + at);
    at += t.size();
  }
  set_backward(node, [](TensorNode& self) {
    std::size_t at = 0;
    for (const auto& p : self.parents) {
      if (p->requires_grad)
        for (std::size_t i = 0; i < p->value.size(); ++i)
          p->grad[i] += self.grad[at + i];
      at += p->value.size();
    }
  });
  return Tensor(node);
}

Tensor mean(const Tensor& a) {
  auto node = make_node(Shape{1}, {a.node()});
  const std::size_t n = a.size();
  float total = 0.0f;
  for (float v : a.data()) total += v;
  node->value[0] = total / static_cast<float>(n);
  set_backward(node, [n](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    const float g = self.grad[0] / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) A.grad[i] += g;
  });
  return Tensor(node);
}

Tensor sum(const Tensor& a) {
  auto node = make_node(Shape{1}, {a.node()});
  float total = 0.0f;
  for (float v : a.data()) total += v;
  node->value[0] = total;
  set_backward(node, [n = a.size()](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < n; ++i) A.grad[i] += self.grad[0];
  });
  return Tensor(node);
}

Tensor mean_rows(const Tensor& a) {
  check(a.rank() == 2, "mean_rows: rank-2 only");
  const std::size_t rows = a.dim(0);
  const std::size_t cols = a.dim(1);
  check(rows > 0, "mean_rows: empty tensor");
  auto node = make_node(Shape{cols}, {a.node()});
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      node->value[c] += a.data()[r * cols + c];
  for (std::size_t c = 0; c < cols; ++c)
    node->value[c] /= static_cast<float>(rows);
  set_backward(node, [rows, cols](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        A.grad[r * cols + c] += self.grad[c] / static_cast<float>(rows);
  });
  return Tensor(node);
}

Tensor swap_axes(const Tensor& a, const Shape& view, Shape out_shape) {
  check(view.size() == 4 && numel(view) == a.size() &&
            numel(out_shape) == a.size(),
        "swap_axes: view and out_shape must match the element count");
  const std::size_t outer = view[0], n1 = view[1], n2 = view[2],
                    inner = view[3];
  auto node = make_node(std::move(out_shape), {a.node()}, Init::kUninit);
  // Run (o, i, j) of the input is run (o, j, i) of the output. Each outer
  // index owns a disjoint block of both, so it parallelizes over `o`.
  const std::size_t block = n1 * n2 * inner;
  const float* in = a.data().data();
  float* out = node->value.data();
  parallel_rows(outer, block, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t o = lo; o < hi; ++o)
      for (std::size_t j = 0; j < n2; ++j)
        for (std::size_t i = 0; i < n1; ++i)
          std::copy_n(in + ((o * n1 + i) * n2 + j) * inner, inner,
                      out + ((o * n2 + j) * n1 + i) * inner);
  });
  set_backward(node, [outer, n1, n2, inner, block](TensorNode& self) {
    TensorNode& A = *self.parents[0];
    if (!A.requires_grad) return;
    const float* g0 = self.grad.data();
    float* ga0 = A.grad.data();
    parallel_rows(outer, block, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t o = lo; o < hi; ++o)
        for (std::size_t j = 0; j < n2; ++j)
          for (std::size_t i = 0; i < n1; ++i) {
            const float* g = g0 + ((o * n2 + j) * n1 + i) * inner;
            float* ga = ga0 + ((o * n1 + i) * n2 + j) * inner;
            for (std::size_t c = 0; c < inner; ++c) ga[c] += g[c];
          }
    });
  });
  return Tensor(node);
}

Tensor cross_entropy(const Tensor& logits, std::span<const int> targets) {
  check(logits.rank() == 2, "cross_entropy: logits must be [N, C]");
  const std::size_t n = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  check(targets.size() == n, "cross_entropy: target count mismatch");

  auto tgt = std::make_shared<std::vector<int>>(targets.begin(),
                                                targets.end());
  // Cache probabilities for the backward pass.
  auto probs = std::make_shared<std::vector<float>>(n * classes);
  auto node = make_node(Shape{1}, {logits.node()});
  double total = 0.0;
  std::size_t active = 0;
  const kernels::KernelTable& kt = kernels::table();
  for (std::size_t i = 0; i < n; ++i) {
    // An ignored position needs no softmax: the backward skips its row too.
    const int t = (*tgt)[i];
    if (t < 0) continue;
    check(static_cast<std::size_t>(t) < classes,
          "cross_entropy: target out of range");
    const float* in = logits.data().data() + i * classes;
    float* p = probs->data() + i * classes;
    float maxv = in[0];
    for (std::size_t c = 1; c < classes; ++c) maxv = std::max(maxv, in[c]);
    kt.exp_shift(in, maxv, classes, p);
    float denom = 0.0f;
    for (std::size_t c = 0; c < classes; ++c) denom += p[c];
    for (std::size_t c = 0; c < classes; ++c) p[c] /= denom;
    total += -std::log(std::max(p[t], 1e-12f));
    ++active;
  }
  const std::size_t denom_count = active == 0 ? 1 : active;
  node->value[0] = static_cast<float>(total / denom_count);
  set_backward(node, [tgt, probs, n, classes, denom_count](TensorNode& self) {
    TensorNode& L = *self.parents[0];
    if (!L.requires_grad) return;
    const float g = self.grad[0] / static_cast<float>(denom_count);
    for (std::size_t i = 0; i < n; ++i) {
      const int t = (*tgt)[i];
      if (t < 0) continue;
      const float* p = probs->data() + i * classes;
      float* gl = L.grad.data() + i * classes;
      for (std::size_t c = 0; c < classes; ++c)
        gl[c] += g * (p[c] - (static_cast<int>(c) == t ? 1.0f : 0.0f));
    }
  });
  return Tensor(node);
}

Tensor mse_loss(const Tensor& pred, std::span<const float> targets) {
  const std::size_t n = pred.size();
  check(targets.size() == n, "mse_loss: target count mismatch");
  auto tgt =
      std::make_shared<std::vector<float>>(targets.begin(), targets.end());
  auto node = make_node(Shape{1}, {pred.node()});
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred.data()[i] - (*tgt)[i];
    total += d * d;
  }
  node->value[0] = static_cast<float>(total / n);
  set_backward(node, [tgt, n](TensorNode& self) {
    TensorNode& P = *self.parents[0];
    if (!P.requires_grad) return;
    const float g = self.grad[0] * 2.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i)
      P.grad[i] += g * (P.value[i] - (*tgt)[i]);
  });
  return Tensor(node);
}

}  // namespace netfm::nn
