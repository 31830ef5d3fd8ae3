// AVX-512F kernels. One 16-float zmm covers a full kNR panel row.
// Same bitwise contract as the AVX2 backend: independent-output
// vectorization only, separate mul + add (no FMA), serial K per element;
// the transcendentals run the scalar ports' operation sequence per lane
// (simd_transcendentals.h). Compiled with -mavx512f (see
// src/CMakeLists.txt); entered only after the dispatcher verified avx512f
// at runtime.
// GCC 12's avx512fintrin.h seeds "undefined" vectors from themselves, which
// -Wuninitialized and -Wmaybe-uninitialized report at every inlined use
// (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstdint>

#include "nn/kernels/kernels.h"
#include "nn/kernels/libm_port.h"
#include "nn/kernels/simd_transcendentals.h"

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

// ---- transcendentals -----------------------------------------------------
//
// simd_transcendentals.h over 16 lanes. AVX-512F only (no DQ/BW): masks are
// __mmask16, and the 32-entry exp table is two 16-entry permutes.

struct Avx512 {
  static constexpr std::size_t kLanes = 16;
  using F = __m512;
  typedef std::uint32_t I __attribute__((vector_size(64)));
  using M = __mmask16;
  using H = __m256;
  using D = __m512d;
  typedef std::uint64_t L __attribute__((vector_size(64)));
  using Tail = __mmask16;

  static __m512i raw(I v) { return __m512i(v); }
  static __m512i raw(L v) { return __m512i(v); }
  static F splat(float v) { return _mm512_set1_ps(v); }
  static I splat_i(std::int32_t v) { return I(_mm512_set1_epi32(v)); }
  static F as_f(I v) { return F(v); }
  static I as_i(F v) { return I(v); }
  static D as_d(L v) { return _mm512_castsi512_pd(raw(v)); }
  static L as_l(D v) { return L(_mm512_castpd_si512(v)); }
  static M lt(I a, I b) { return _mm512_cmplt_epi32_mask(raw(a), raw(b)); }
  static M gt(I a, I b) { return _mm512_cmpgt_epi32_mask(raw(a), raw(b)); }
  static M eq(I a, I b) { return _mm512_cmpeq_epi32_mask(raw(a), raw(b)); }
  static M flt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static M fgt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static M unord(F a) { return _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q); }
  static F select(M m, F a, F b) { return _mm512_mask_blend_ps(m, a, b); }
  static I select_i(M m, I a, I b) {
    return I(_mm512_mask_blend_epi32(m, raw(a), raw(b)));
  }
  static I cvtt(F v) { return I(_mm512_cvttps_epi32(v)); }
  static F cvt(I v) { return _mm512_cvtepi32_ps(raw(v)); }
  static I srlv(I a, I n) {
    return I(_mm512_srlv_epi32(raw(a), raw(n)));
  }
  static H lo(F v) { return _mm512_castps512_ps256(v); }
  static H hi(F v) {
    return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  }
  static F join(H lo, H hi) {
    return _mm512_castpd_ps(
        _mm512_insertf64x4(_mm512_castps_pd(_mm512_castps256_ps512(lo)),
                           _mm256_castps_pd(hi), 1));
  }
  static D widen(H v) { return _mm512_cvtps_pd(v); }
  static H narrow(D v) { return _mm512_cvtpd_ps(v); }
  static L exp_table(L ki) {
    // kExpTable[ki % 32]: two 16-entry permutes, picked by bit 4 of ki.
    const __m512i idx = raw(ki);
    const __m512i t0 = _mm512_load_si512(port::kExpTable);
    const __m512i t1 = _mm512_load_si512(port::kExpTable + 8);
    const __m512i t2 = _mm512_load_si512(port::kExpTable + 16);
    const __m512i t3 = _mm512_load_si512(port::kExpTable + 24);
    return L(_mm512_mask_blend_epi64(
        _mm512_test_epi64_mask(idx, _mm512_set1_epi64(16)),
        _mm512_permutex2var_epi64(t0, idx, t1),
        _mm512_permutex2var_epi64(t2, idx, t3)));
  }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static Tail tail(std::size_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static F load_tail(Tail m, const float* p) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store_tail(Tail m, float* p, F v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
};

}  // namespace

extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    "avx512",
    gemm_rows_avx512,
    weighted_sum_avx512,
    weighted_sum_acc_avx512,
    tanh_rows<Avx512>,
    exp_shift_rows<Avx512>,
    gelu_rows<Avx512>,
    gelu_backward_rows<Avx512>,
};

}  // namespace netfm::nn::kernels
