// Blocked fp32 GEMM plumbing shared by nn::matmul (which packs op(B) per
// call) and the packed-weight inference route (nn/packed.h, which packs a
// weight once per weight epoch and reuses the panels).
//
// C (M x N, row-major) = (or +=) op(A) * op(B), where op(A)/op(B) are
// strided views so transposed operands cost nothing. op(B) is packed into
// NR-wide column panels (contiguous, zero-padded), then MR x NR
// register-blocked micro-tiles stream over them on the dispatched kernel
// backend. The reduction over K is never split, so each output element
// accumulates in the same order as the naive triple loop — whoever packed
// the panels, and whenever.
#pragma once

#include <cstddef>

#include "nn/kernels/kernels.h"

namespace netfm::nn {

/// Floats pack_b writes for a K x N op(B): ceil(N/kNR) panels of K x kNR.
constexpr std::size_t packed_b_size(std::size_t K, std::size_t N) noexcept {
  return (N + kernels::kNR - 1) / kernels::kNR * kernels::kNR * K;
}

/// Packs op(B) (K x N) into ceil(N/NR) panels of K x NR, zero-padded on the
/// right edge, laid out panel-major so the micro-kernel streams linearly.
void pack_b(kernels::MatRef b, std::size_t K, std::size_t N, float* packed);

/// C = (or += when `accumulate`) op(A) * packed op(B), then, when `bias` is
/// non-null, c[i][j] = c[i][j] + bias[j] on each finished row. Row blocks
/// run serially or on the pool (when `allow_parallel` and the product is
/// large enough); the chunk grain depends only on the matrix sizes and
/// every chunk owns whole output rows, so results are identical for every
/// pool size.
void gemm_packed(std::size_t M, std::size_t N, std::size_t K,
                 kernels::MatRef a, const float* packed, float* c,
                 bool accumulate, bool allow_parallel,
                 const float* bias = nullptr);

}  // namespace netfm::nn
