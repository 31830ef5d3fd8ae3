// AVX-512F kernels. One 16-float zmm covers a full kNR panel row.
// Same bitwise contract as the AVX2 backend: independent-output
// vectorization only, separate mul + add (no FMA), serial K per element.
// Compiled with -mavx512f (see src/CMakeLists.txt); entered only after the
// dispatcher verified avx512f at runtime.
#include <immintrin.h>

#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

// Rows [i, i + MR) of C across every kNR panel. MR is a compile-time
// constant so the MR accumulators stay in zmm registers for the whole K
// loop; with a runtime row count GCC keeps them in a stack array and
// every k step pays a store-to-load round-trip per accumulator.
template <std::size_t MR>
void gemm_tile_rows_avx512(MatRef a, const float* packed_b, std::size_t K,
                           std::size_t N, float* c, std::size_t i,
                           bool accumulate) {
  for (std::size_t jp = 0; jp < N; jp += kNR) {
    const std::size_t nr = std::min(kNR, N - jp);
    const float* bp = packed_b + jp * K;
    __m512 acc[MR];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
    for (std::size_t kk = 0; kk < K; ++kk) {
      const __m512 b0 = _mm512_loadu_ps(bp + kk * kNR);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < MR; ++r) {
        const __m512 av = _mm512_set1_ps(a.p[(i + r) * a.rs + kk * a.cs]);
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      float* crow = c + (i + r) * N + jp;
      if (nr == kNR) {
        if (accumulate)
          _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[r]));
        else
          _mm512_storeu_ps(crow, acc[r]);
      } else {
        const __mmask16 edge = static_cast<__mmask16>((1u << nr) - 1u);
        if (accumulate)
          _mm512_mask_storeu_ps(
              crow, edge,
              _mm512_add_ps(_mm512_maskz_loadu_ps(edge, crow), acc[r]));
        else
          _mm512_mask_storeu_ps(crow, edge, acc[r]);
      }
    }
  }
}

void gemm_rows_avx512(MatRef a, const float* packed_b, std::size_t K,
                      std::size_t N, float* c, std::size_t row_lo,
                      std::size_t row_hi, bool accumulate) {
  static_assert(kMR == 4, "the remainder switch covers 1..kMR-1 rows");
  std::size_t i = row_lo;
  for (; i + kMR <= row_hi; i += kMR)
    gemm_tile_rows_avx512<kMR>(a, packed_b, K, N, c, i, accumulate);
  switch (row_hi - i) {
    case 3:
      gemm_tile_rows_avx512<3>(a, packed_b, K, N, c, i, accumulate);
      break;
    case 2:
      gemm_tile_rows_avx512<2>(a, packed_b, K, N, c, i, accumulate);
      break;
    case 1:
      gemm_tile_rows_avx512<1>(a, packed_b, K, N, c, i, accumulate);
      break;
    default: break;
  }
}

void weighted_sum_avx512(const float* w, const float* rows, std::size_t t,
                         std::size_t dk, float* out) {
  std::size_t c = 0;
  for (; c + 16 <= dk; c += 16) {
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_loadu_ps(rows + j * dk + c)));
    _mm512_storeu_ps(out + c, acc);
  }
  if (c < dk) {
    const __mmask16 edge =
        static_cast<__mmask16>((1u << (dk - c)) - 1u);
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_maskz_loadu_ps(edge, rows + j * dk + c)));
    _mm512_mask_storeu_ps(out + c, edge, acc);
  }
}

void weighted_sum_acc_avx512(const float* w, const float* rows, std::size_t t,
                             std::size_t dk, float* out) {
  // weighted_sum_avx512 with the accumulator seeded from out: loading the
  // previous run's fp32 partials is a value-preserving round-trip, so the
  // add sequence per element matches one contiguous weighted_sum.
  std::size_t c = 0;
  for (; c + 16 <= dk; c += 16) {
    __m512 acc = _mm512_loadu_ps(out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_loadu_ps(rows + j * dk + c)));
    _mm512_storeu_ps(out + c, acc);
  }
  if (c < dk) {
    const __mmask16 edge =
        static_cast<__mmask16>((1u << (dk - c)) - 1u);
    __m512 acc = _mm512_maskz_loadu_ps(edge, out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_maskz_loadu_ps(edge, rows + j * dk + c)));
    _mm512_mask_storeu_ps(out + c, edge, acc);
  }
}

}  // namespace

extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    "avx512",
    gemm_rows_avx512,
    weighted_sum_avx512,
    weighted_sum_acc_avx512,
};

}  // namespace netfm::nn::kernels
