// AVX2 kernels. Bitwise-identical to the scalar oracle: vectorization runs
// only across independent output columns (the kNR dimension — two 8-float
// ymm lanes), K still reduces serially per element, and every step is a
// separate _mm256_mul_ps + _mm256_add_ps — never FMA, whose fused rounding
// would diverge from the scalar sequence. This translation unit is
// compiled with -mavx2 (see src/CMakeLists.txt); it is only ever entered
// after the dispatcher has verified AVX2 via __builtin_cpu_supports.
#include <immintrin.h>

#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

// Rows [i, i + MR) of C across every kNR panel. MR is a compile-time
// constant so the 2·MR accumulators stay in ymm registers for the whole
// K loop; with a runtime row count GCC keeps them in stack arrays and
// every k step pays a store-to-load round-trip per accumulator.
template <std::size_t MR>
void gemm_tile_rows_avx2(MatRef a, const float* packed_b, std::size_t K,
                         std::size_t N, float* c, std::size_t i,
                         bool accumulate) {
  for (std::size_t jp = 0; jp < N; jp += kNR) {
    const std::size_t nr = std::min(kNR, N - jp);
    const float* bp = packed_b + jp * K;
    __m256 acc0[MR], acc1[MR];
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < K; ++kk) {
      const float* brow = bp + kk * kNR;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      #pragma GCC unroll 4
      for (std::size_t r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(a.p[(i + r) * a.rs + kk * a.cs]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
      }
    }
    #pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      float* crow = c + (i + r) * N + jp;
      if (nr == kNR) {
        if (accumulate) {
          _mm256_storeu_ps(crow,
                           _mm256_add_ps(_mm256_loadu_ps(crow), acc0[r]));
          _mm256_storeu_ps(
              crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc1[r]));
        } else {
          _mm256_storeu_ps(crow, acc0[r]);
          _mm256_storeu_ps(crow + 8, acc1[r]);
        }
      } else {
        alignas(32) float tmp[kNR];
        _mm256_store_ps(tmp, acc0[r]);
        _mm256_store_ps(tmp + 8, acc1[r]);
        if (accumulate) {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] += tmp[cc];
        } else {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] = tmp[cc];
        }
      }
    }
  }
}

void gemm_rows_avx2(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi, bool accumulate) {
  static_assert(kMR == 4, "the remainder switch covers 1..kMR-1 rows");
  std::size_t i = row_lo;
  for (; i + kMR <= row_hi; i += kMR)
    gemm_tile_rows_avx2<kMR>(a, packed_b, K, N, c, i, accumulate);
  switch (row_hi - i) {
    case 3:
      gemm_tile_rows_avx2<3>(a, packed_b, K, N, c, i, accumulate);
      break;
    case 2:
      gemm_tile_rows_avx2<2>(a, packed_b, K, N, c, i, accumulate);
      break;
    case 1:
      gemm_tile_rows_avx2<1>(a, packed_b, K, N, c, i, accumulate);
      break;
    default: break;
  }
}

void weighted_sum_avx2(const float* w, const float* rows, std::size_t t,
                       std::size_t dk, float* out) {
  std::size_t c = 0;
  for (; c + 8 <= dk; c += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(w[j]),
                             _mm256_loadu_ps(rows + j * dk + c)));
    _mm256_storeu_ps(out + c, acc);
  }
  for (; c < dk; ++c) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < t; ++j) acc += w[j] * rows[j * dk + c];
    out[c] = acc;
  }
}

void weighted_sum_acc_avx2(const float* w, const float* rows, std::size_t t,
                           std::size_t dk, float* out) {
  // weighted_sum_avx2 with the accumulator seeded from out: loading the
  // previous run's fp32 partials is a value-preserving round-trip, so the
  // add sequence per element matches one contiguous weighted_sum.
  std::size_t c = 0;
  for (; c + 8 <= dk; c += 8) {
    __m256 acc = _mm256_loadu_ps(out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(w[j]),
                             _mm256_loadu_ps(rows + j * dk + c)));
    _mm256_storeu_ps(out + c, acc);
  }
  for (; c < dk; ++c) {
    float acc = out[c];
    for (std::size_t j = 0; j < t; ++j) acc += w[j] * rows[j * dk + c];
    out[c] = acc;
  }
}

}  // namespace

extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    "avx2",
    gemm_rows_avx2,
    weighted_sum_avx2,
    weighted_sum_acc_avx2,
};

}  // namespace netfm::nn::kernels
