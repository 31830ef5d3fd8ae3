// Dense float tensor with reverse-mode automatic differentiation.
//
// Design: define-by-run tape. Tensor is a cheap handle onto a shared node;
// every op allocates a fresh node whose `backward` closure accumulates
// gradients into its parents. `backward()` on a scalar loss topologically
// sorts the graph and runs the closures in reverse.
//
// Performance: matmul runs as a blocked/packed GEMM whose row-blocks are
// dispatched onto the shared ThreadPool (see common/threadpool.h), and the
// O(n) op loops go through parallel_for above a size threshold. Kernels
// are written so results are bit-identical at every thread count (each
// output element is reduced in a fixed order by exactly one chunk).
//
// Shapes are row-major, rank 1..3. Rank-3 tensors are treated as batched
// matrices by matmul (leading dim is the batch).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace netfm::nn {

using Shape = std::vector<std::size_t>;

namespace detail {

/// Allocator whose resize() default-initializes floats (i.e. leaves them
/// uninitialized) instead of zero-filling. Ops that overwrite every output
/// element (matmul, unary, copies) use it to skip the memset; ops that
/// accumulate still zero explicitly via assign().
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0)
      ::new (static_cast<void*>(p)) U;
    else
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Contiguous float storage for tensor values/gradients.
using FloatBuffer = std::vector<float, detail::UninitAllocator<float>>;

/// Number of elements in a shape.
std::size_t numel(const Shape& shape) noexcept;

/// "\[2, 3, 4\]" for error messages.
std::string shape_str(const Shape& shape);

/// Shared tensor node: storage + gradient + autograd links.
struct TensorNode {
  FloatBuffer value;
  FloatBuffer grad;  // allocated lazily; same length as value
  Shape shape;
  bool requires_grad = false;
  /// Value buffer came from the thread Workspace (inference fast path);
  /// the destructor returns it for reuse instead of freeing it.
  bool pooled = false;
  std::vector<std::shared_ptr<TensorNode>> parents;
  std::function<void(TensorNode&)> backward;  // reads this->grad, fills parents

  ~TensorNode();
  void ensure_grad();
};

// ---- Inference (no-grad) execution mode ----
//
// While a guard is active on a thread, every op on that thread skips the
// autograd machinery entirely: no parent links, no backward closures, and
// `requires_grad` is forced false on results — a forward pass builds no
// graph and holds no history. Output buffers are drawn from the thread's
// Workspace (see workspace.h) instead of the heap. Forward arithmetic is
// unchanged, so results are bit-identical to the recording route.

/// True when the calling thread is inside an InferenceGuard.
bool inference_mode() noexcept;

/// RAII no-grad gate. Nestable; restores the previous state on exit.
class InferenceGuard {
 public:
  InferenceGuard() noexcept;
  ~InferenceGuard();
  InferenceGuard(const InferenceGuard&) = delete;
  InferenceGuard& operator=(const InferenceGuard&) = delete;

 private:
  bool previous_;
};

/// Makes the C library's allocator keep the memory a training step frees
/// for the next step. A step builds and frees its whole graph, tens of MB;
/// under glibc's default dynamic thresholds (128 KiB at start, raised only
/// to the largest block freed so far) that memory is trimmed off the heap
/// top when the step ends and page-faulted back in during the next one.
/// Fixes both thresholds once per process at the ceiling glibc's dynamic
/// rule reaches on 64-bit: blocks below 32 MiB come from the heap, and up
/// to 64 MiB of free heap top stays mapped. No-op outside glibc. The
/// transformer training loops call it on entry.
void keep_freed_memory();

/// Value-semantic handle to a tensor node.
class Tensor {
 public:
  Tensor() = default;

  /// Uninitialized (zero) tensor of the given shape.
  explicit Tensor(Shape shape, bool requires_grad = false);

  /// Tensor with uninitialized contents; the buffer comes from the thread
  /// Workspace while inference mode is active. For kernels that overwrite
  /// every element (the incremental-attention path).
  static Tensor empty(Shape shape);

  /// Tensor with explicit contents (row-major).
  Tensor(Shape shape, std::vector<float> values, bool requires_grad = false);

  /// Scalar convenience.
  static Tensor scalar(float v);

  /// All zeros / ones / constant.
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float v);

  /// Gaussian init with the given stddev (Xavier callers pass their own).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = true);

  bool defined() const noexcept { return node_ != nullptr; }
  const Shape& shape() const;
  std::size_t size() const;  // total elements
  std::size_t dim(std::size_t i) const;
  std::size_t rank() const;
  bool requires_grad() const;
  void set_requires_grad(bool v);

  std::span<float> data();
  std::span<const float> data() const;
  std::span<float> grad();
  std::span<const float> grad() const;

  float item() const;  // requires size() == 1

  /// Clears gradient to zero (keeps allocation).
  void zero_grad();

  /// Runs reverse-mode autodiff from this scalar (size()==1) tensor.
  void backward();

  /// Detached copy sharing no graph history (same storage copy).
  Tensor detach() const;

  std::shared_ptr<TensorNode> node() const { return node_; }
  explicit Tensor(std::shared_ptr<TensorNode> node) : node_(std::move(node)) {}

 private:
  std::shared_ptr<TensorNode> node_;
};

// ---- Operations (all differentiable unless noted) ----

/// Matrix product. 2D x 2D -> 2D; 3D x 3D -> 3D with shared batch dim;
/// 3D x 2D -> 3D (weight shared across the batch).
/// Runs as a blocked, B-packed, thread-parallel kernel; results match
/// matmul_reference bit-for-bit at every thread count.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Affine map x · w + b as one node: x [.., K] (rank 2 or 3), w [K, N],
/// b [N] -> [.., N]. The value and every gradient are bitwise equal to
/// add(matmul(x, w), b), with one output and one gradient buffer instead of
/// two; b's gradient is a serial column sum in ascending row order.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);

/// Naive triple-loop matmul with the same shape rules as matmul(). No
/// autograd. Kept as the correctness oracle for the blocked kernel (tests)
/// and the baseline for the kernel benchmarks.
Tensor matmul_reference(const Tensor& a, const Tensor& b);

/// Elementwise add; `b` may also be a vector broadcast over the last dim.
Tensor add(const Tensor& a, const Tensor& b);
/// a - b, same broadcasting as add.
Tensor sub(const Tensor& a, const Tensor& b);
/// Elementwise product (exact same shape).
Tensor mul(const Tensor& a, const Tensor& b);
/// Scale by a constant.
Tensor scale(const Tensor& a, float s);

Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor sigmoid(const Tensor& a);

/// Softmax over the last dimension.
Tensor softmax(const Tensor& a);

/// Which keys each attention query may see, stored per key rather than per
/// score: one flag per (sequence, position), shared by every head and every
/// query row. `heads` maps a [B*H, T, *] lane to its sequence (lane / heads);
/// `causal` also hides every key after the query position.
struct KeyMask {
  std::shared_ptr<const std::vector<float>> key_valid;  // [B*T]; 0 = hidden
  std::size_t heads = 1;
  bool causal = false;
};

/// Attention probabilities softmax(scale * q k^T) over the visible keys:
/// q, k [B*H, T, dk] -> [B*H, T, T]. Each lane's scores run through the
/// blocked GEMM against a strided (non-copied) view of k^T, reducing over
/// dk in the same serial order as matmul(q, transpose(k)). Hidden keys get
/// exactly 0 and no exp; a row with no visible key is uniform 1/T. That is
/// bit-identical to filling hidden scores with -1e9 before a full-row
/// softmax, whose exp underflows to exactly 0 there. Differentiable in q
/// and k; hidden keys pass no gradient.
Tensor attention_probs(const Tensor& q, const Tensor& k, const KeyMask& mask,
                       float scale);

/// Log-softmax over the last dimension (numerically stable).
Tensor log_softmax(const Tensor& a);

/// Layer norm over the last dimension with learned gain/bias (vectors of
/// length last-dim).
Tensor layer_norm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                  float eps = 1e-5f);

/// Embedding lookup: ids (len N) into rows of weight [V, D] -> [N, D].
Tensor embedding(const Tensor& weight, std::span<const int> ids);

/// Dropout with probability p (identity when p<=0 or !train).
Tensor dropout(const Tensor& a, float p, bool train, Rng& rng);

/// Swap the last two dims (2D or 3D).
Tensor transpose(const Tensor& a);

/// View with the same element count.
Tensor reshape(const Tensor& a, Shape shape);

/// Rows [begin, end) of a 2D tensor.
Tensor slice_rows(const Tensor& a, std::size_t begin, std::size_t end);

/// Concatenate 2D tensors along dim 0.
Tensor concat_rows(const std::vector<Tensor>& parts);

/// Mean over all elements -> scalar.
Tensor mean(const Tensor& a);

/// Sum over all elements -> scalar.
Tensor sum(const Tensor& a);

/// Mean of rows of a 2D tensor -> [D].
Tensor mean_rows(const Tensor& a);

/// Swaps the two middle axes of `a` viewed as `view` = [outer, n1, n2,
/// inner]: out[o, j, i, :] = a[o, i, j, :], copied as runs of `inner`
/// floats, with the result shaped `out_shape` (same element count).
/// Attention's head split is (B, T, H, dk) -> [B*H, T, dk] and its merge is
/// (B, H, T, dk) -> [B*T, D]. The backward applies the inverse
/// permutation, one add per element.
Tensor swap_axes(const Tensor& a, const Shape& view, Shape out_shape);

/// Cross-entropy between logits [N, C] and integer targets (len N).
/// Targets < 0 are ignored (masked LM convention). Returns scalar mean.
Tensor cross_entropy(const Tensor& logits, std::span<const int> targets);

/// Mean squared error between predictions [N] (or [N,1]) and targets.
Tensor mse_loss(const Tensor& pred, std::span<const float> targets);

}  // namespace netfm::nn
