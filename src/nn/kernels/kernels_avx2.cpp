// AVX2 kernels. Bitwise-identical to the scalar oracle: vectorization runs
// only across independent output columns (the kNR dimension — two 8-float
// ymm lanes), K still reduces serially per element, and every step is a
// separate _mm256_mul_ps + _mm256_add_ps — never FMA, whose fused rounding
// would diverge from the scalar sequence. The transcendentals run the
// scalar ports' operation sequence per lane (simd_transcendentals.h). This
// translation unit is compiled with -mavx2 (see src/CMakeLists.txt); it is
// only ever entered after the dispatcher has verified AVX2 via
// __builtin_cpu_supports.
#include <immintrin.h>

#include <cstdint>

#include "nn/kernels/kernels.h"
#include "nn/kernels/libm_port.h"
#include "nn/kernels/simd_transcendentals.h"

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

// ---- transcendentals -----------------------------------------------------
//
// simd_transcendentals.h over 8 lanes. Masks are all-ones int32 lanes, and
// the exp table is a gather.

struct Avx2 {
  static constexpr std::size_t kLanes = 8;
  using F = __m256;
  typedef std::uint32_t I __attribute__((vector_size(32)));
  using M = I;
  using H = __m128;
  using D = __m256d;
  typedef std::uint64_t L __attribute__((vector_size(32)));
  using Tail = __m256i;

  static __m256i raw(I v) { return __m256i(v); }
  static __m256i raw(L v) { return __m256i(v); }
  static F splat(float v) { return _mm256_set1_ps(v); }
  static I splat_i(std::int32_t v) { return I(_mm256_set1_epi32(v)); }
  static F as_f(I v) { return F(v); }
  static I as_i(F v) { return I(v); }
  static D as_d(L v) { return _mm256_castsi256_pd(raw(v)); }
  static L as_l(D v) { return L(_mm256_castpd_si256(v)); }
  static M lt(I a, I b) { return I(_mm256_cmpgt_epi32(raw(b), raw(a))); }
  static M gt(I a, I b) { return I(_mm256_cmpgt_epi32(raw(a), raw(b))); }
  static M eq(I a, I b) { return I(_mm256_cmpeq_epi32(raw(a), raw(b))); }
  static M flt(F a, F b) { return I(_mm256_cmp_ps(a, b, _CMP_LT_OQ)); }
  static M fgt(F a, F b) { return I(_mm256_cmp_ps(a, b, _CMP_GT_OQ)); }
  static M unord(F a) { return I(_mm256_cmp_ps(a, a, _CMP_UNORD_Q)); }
  static F select(M m, F a, F b) { return _mm256_blendv_ps(a, b, F(m)); }
  static I select_i(M m, I a, I b) {
    return I(_mm256_blendv_epi8(raw(a), raw(b), raw(m)));
  }
  static I cvtt(F v) { return I(_mm256_cvttps_epi32(v)); }
  static F cvt(I v) { return _mm256_cvtepi32_ps(raw(v)); }
  static I srlv(I a, I n) {
    return I(_mm256_srlv_epi32(raw(a), raw(n)));
  }
  static H lo(F v) { return _mm256_castps256_ps128(v); }
  static H hi(F v) { return _mm256_extractf128_ps(v, 1); }
  static F join(H lo, H hi) { return _mm256_set_m128(hi, lo); }
  static D widen(H v) { return _mm256_cvtps_pd(v); }
  static H narrow(D v) { return _mm256_cvtpd_ps(v); }
  static L exp_table(L ki) {
    return L(_mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(port::kExpTable), raw(ki & 31),
        8));
  }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  /// Lane mask of the first n (< 8) lanes.
  static Tail tail(std::size_t n) {
    static constexpr std::int32_t kFirst[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kFirst + 8 - n));
  }
  static F load_tail(Tail m, const float* p) {
    return _mm256_maskload_ps(p, m);
  }
  static void store_tail(Tail m, float* p, F v) {
    _mm256_maskstore_ps(p, m, v);
  }
};

}  // namespace

extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    "avx2",
    gemm_rows_avx2,
    weighted_sum_avx2,
    weighted_sum_acc_avx2,
    tanh_rows<Avx2>,
    exp_shift_rows<Avx2>,
    gelu_rows<Avx2>,
    gelu_backward_rows<Avx2>,
};

}  // namespace netfm::nn::kernels
