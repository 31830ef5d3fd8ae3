// Per-layer inference weight panels, packed once per weight epoch.
//
// nn::matmul packs its right operand into the micro-kernel's NR-panel
// layout on every call. For an inference layer that operand is a weight
// that does not change between calls, so a decode step would repack (and,
// for the tied LM head, transpose) every weight every step. A layer holds a
// PackedWeights cache instead: the first inference call after a weight
// change packs the weight once, and every later call runs the GEMM straight
// on the cached panels.
//
// Staleness: the cache is keyed on the global weight epoch
// (weight_epoch()) plus the weight's address and geometry. Adam, SGD and
// load_parameters bump the epoch; code that writes parameter values any
// other way must call bump_weight_epoch() itself. The epoch is
// process-wide, so training any model repacks every model lazily.
//
// Concurrency: a pack is published as an immutable
// shared_ptr<const WeightPanels> snapshot. Readers hold their snapshot for
// the whole GEMM, so a concurrent repack (another thread saw a newer
// epoch) builds a fresh snapshot instead of mutating panels in use.
//
// Bits: the panels are exactly what nn::matmul's per-call pack_b would
// build and the kernel and K order are unchanged, so packed_linear is
// bitwise equal to nn::linear(x, W, bias), the training route.
//
// Alignment: a panel row is kNR = 16 floats, one 64-byte AVX-512 load. The
// fp32 panels are allocated 64-byte aligned so no such load straddles two
// cache lines; with the default 16-byte alignment, how many layers got
// split loads depended on the heap's history before the first pack.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "nn/tensor.h"

namespace netfm::nn {

namespace detail {

/// std::allocator with 64-byte (cache-line) alignment.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace detail

/// Global weight-mutation epoch. Optimizer steps and parameter loads bump
/// it; PackedWeights snapshots stamped with an older epoch repack on use.
std::uint64_t weight_epoch() noexcept;
void bump_weight_epoch() noexcept;

/// One weight matrix's inference panels at one weight epoch. W's element
/// (k, j) is read from source[k * rs + j * cs], so a row-major [K, N]
/// weight (rs = N, cs = 1) and a tied [N, K] embedding table (rs = 1,
/// cs = K) both pack without a transposed copy.
struct WeightPanels {
  const float* source = nullptr;
  std::size_t K = 0, N = 0, rs = 0, cs = 0;
  std::uint64_t epoch = 0;  // weight_epoch() read before packing
  // pack_b layout: ceil(N/kNR) panels of K x kNR, 64-byte aligned.
  std::vector<float, detail::CacheLineAllocator<float>> fp32;
};

/// A layer's packed-weight cache. Thread-safe: get() takes one lock to
/// validate (and, when stale, rebuild) the snapshot, never during the GEMM.
class PackedWeights {
 public:
  /// The panels of W at the current weight epoch, repacking when the epoch,
  /// address or geometry changed. Each pack bumps the nn.gemm.weight_packs
  /// counter.
  std::shared_ptr<const WeightPanels> get(const float* w, std::size_t K,
                                          std::size_t N, std::size_t rs,
                                          std::size_t cs);

 private:
  std::mutex mu_;
  std::shared_ptr<const WeightPanels> snapshot_;
};

/// Inference-mode affine map: x @ W + bias, with x's last dim K replaced by
/// N. Runs the fp32 micro-kernel on the cached panels; the bias add is the
/// same single rounding as nn::add. Builds no autograd graph — callers use
/// it only under InferenceGuard.
Tensor packed_linear(const Tensor& x, const float* w, std::size_t K,
                     std::size_t N, std::size_t rs, std::size_t cs,
                     const Tensor& bias, PackedWeights& cache);

/// Packs `cache` for the current weights, so the first inference call pays
/// no pack cost.
void prepack(const float* w, std::size_t K, std::size_t N, std::size_t rs,
             std::size_t cs, PackedWeights& cache);

}  // namespace netfm::nn
