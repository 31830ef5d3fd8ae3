// Scalar-fp32 reference kernels — the bitwise oracle every SIMD backend is
// tested against. These are the PR-1 packed/register-blocked loops moved
// out of tensor.cpp verbatim: each output element reduces K serially in
// ascending order with one multiply and one add per step, so any backend
// that preserves that per-element operation sequence agrees bit-for-bit.
// The transcendental kernels are the libm ports of libm_port.h applied
// element by element.
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/kernels/kernels.h"
#include "nn/kernels/libm_port.h"

namespace netfm::nn::kernels {

// ---- libm ports (see libm_port.h) ---------------------------------------
//
// Line-for-line ports of the C sources, kept in their shape so a reader can
// hold them against fdlibm / glibc. Every float operation is a separate
// IEEE operation (the build sets -ffp-contract=off), fused nowhere.

namespace {

float as_float(std::uint32_t u) noexcept { return std::bit_cast<float>(u); }
std::uint32_t as_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

float expm1f_port(float x) noexcept {
  using namespace port;
  constexpr float kOne = 1.0f, kHuge = 1.0e+30f, kTiny = 1.0e-30f;
  constexpr float kOverflow = 8.8721679688e+01f;  // 0x42b17180
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  std::int32_t k;
  std::uint32_t hx = as_bits(x);
  const std::uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                           // |x|

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27·ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;
      if (x > kOverflow) return kHuge * kHuge;
    }
    if (xsb != 0) return kTiny - kOne;  // x < -27·ln2: -1 (inexact)
  }

  // Argument reduction.
  if (hx > 0x3eb17218u) {    // |x| > 0.5·ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5·ln2
      if (xsb == 0) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t·ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x (inexact when x != 0)
    t = kHuge + x;
    return x - (t - (kHuge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    y = kOne - (e - x);
    if (k == 128)
      y = y * 2.0f * 0x1p127f;
    else
      y = as_float(as_bits(y) + (static_cast<std::uint32_t>(k) << 23));
    return y - kOne;
  }
  if (k < 23) {
    t = as_float(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = as_float(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return as_float(as_bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

}  // namespace

float tanhf_port(float x) noexcept {
  constexpr float kOne = 1.0f, kTwo = 2.0f, kTiny = 1.0e-30f;
  const std::uint32_t jx = as_bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u)  // tanh(±inf) = ±1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;

  float z;
  if (ix < 0x41b00000u) {              // |x| < 22
    if (ix == 0) return x;             // ±0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {           // |x| >= 1
      const float t = expm1f_port(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1f_port(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {                             // |x| >= 22: ±1 (inexact)
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

float expf_port(float x) noexcept {
  using namespace port;
  const double xd = static_cast<double>(x);
  const std::uint32_t abstop = (as_bits(x) >> 20) & 0x7ffu;
  if (abstop >= 0x42bu) {  // |x| >= 88 or x is NaN
    if (as_bits(x) == 0xff800000u) return 0.0f;  // -inf
    if (abstop >= 0x7f8u) return x + x;          // +inf, NaN
    if (x > kExpOverflow) return HUGE_VALF;
    if (x < kExpUnderflow) return 0.0f;
    if (x < kExpTiny) return 0x1p-149f;
  }
  // x·N/ln2 = k + r with r in [-1/2, 1/2] and integer k.
  const double kd_shifted = kInvLn2N * xd + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kShift;
  // glibc's fma(N/ln2, x, −kd), rounded once: x·hi and x·lo are exact, and
  // so is x·hi − kd (|x·hi − kd| < 1 and x·hi has at most 49 bits).
  const double r = (kInvLn2NHi * xd - kd) + kInvLn2NLo * xd;
  // exp(x) = 2^(k/N) · 2^(r/N) ~= s · (C0·r³ + C1·r² + C2·r + 1)
  const std::uint64_t t =
      kExpTable[ki % 32] + (ki << (52 - kExpTableBits));
  const double s = std::bit_cast<double>(t);
  const double z = kC0 * r + kC1;
  const double r2 = r * r;
  double y = kC2 * r + 1.0;
  y = z * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

// The scalar backend's transcendental kernels (NEON uses them too).

void tanh_scalar(const float* in, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tanhf_port(in[i]);
}

void exp_shift_scalar(const float* in, float shift, std::size_t n,
                      float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = expf_port(in[i] - shift);
}

void gelu_scalar(const float* in, std::size_t n, float* out) {
  using port::kGeluA, port::kGeluC;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float inner = kGeluC * (x + kGeluA * x * x * x);
    out[i] = 0.5f * x * (1.0f + tanhf_port(inner));
  }
}

void gelu_backward_scalar(const float* x, const float* g, std::size_t n,
                          float* ga) {
  using port::kGeluA, port::kGeluC;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float x3 = v * v * v;
    const float inner = kGeluC * (v + kGeluA * x3);
    const float t = tanhf_port(inner);
    const float dinner = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
    ga[i] += g[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner);
  }
}

namespace {

template <bool Accumulate>
void gemm_rows_impl(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi) {
  for (std::size_t i = row_lo; i < row_hi; i += kMR) {
    const std::size_t mr = std::min(kMR, row_hi - i);
    for (std::size_t jp = 0; jp < N; jp += kNR) {
      const std::size_t nr = std::min(kNR, N - jp);
      const float* bp = packed_b + jp * K;
      float acc[kMR][kNR] = {};
      if (mr == kMR) {
        for (std::size_t kk = 0; kk < K; ++kk) {
          const float* brow = bp + kk * kNR;
          for (std::size_t r = 0; r < kMR; ++r) {
            const float av = a.p[(i + r) * a.rs + kk * a.cs];
            for (std::size_t cc = 0; cc < kNR; ++cc)
              acc[r][cc] += av * brow[cc];
          }
        }
      } else {
        for (std::size_t kk = 0; kk < K; ++kk) {
          const float* brow = bp + kk * kNR;
          for (std::size_t r = 0; r < mr; ++r) {
            const float av = a.p[(i + r) * a.rs + kk * a.cs];
            for (std::size_t cc = 0; cc < kNR; ++cc)
              acc[r][cc] += av * brow[cc];
          }
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * N + jp;
        if constexpr (Accumulate) {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] += acc[r][cc];
        } else {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] = acc[r][cc];
        }
      }
    }
  }
}

void gemm_rows_scalar(MatRef a, const float* packed_b, std::size_t K,
                      std::size_t N, float* c, std::size_t row_lo,
                      std::size_t row_hi, bool accumulate) {
  if (accumulate)
    gemm_rows_impl<true>(a, packed_b, K, N, c, row_lo, row_hi);
  else
    gemm_rows_impl<false>(a, packed_b, K, N, c, row_lo, row_hi);
}

void weighted_sum_scalar(const float* w, const float* rows, std::size_t t,
                         std::size_t dk, float* out) {
  for (std::size_t c = 0; c < dk; ++c) out[c] = 0.0f;
  for (std::size_t j = 0; j < t; ++j) {
    const float wj = w[j];
    const float* row = rows + j * dk;
    for (std::size_t c = 0; c < dk; ++c) out[c] += wj * row[c];
  }
}

void weighted_sum_acc_scalar(const float* w, const float* rows, std::size_t t,
                             std::size_t dk, float* out) {
  // Same reduction as weighted_sum_scalar, seeded from the existing out
  // values instead of zero.
  for (std::size_t j = 0; j < t; ++j) {
    const float wj = w[j];
    const float* row = rows + j * dk;
    for (std::size_t c = 0; c < dk; ++c) out[c] += wj * row[c];
  }
}

}  // namespace

extern const KernelTable kScalarTable;
const KernelTable kScalarTable = {
    "scalar",
    gemm_rows_scalar,
    weighted_sum_scalar,
    weighted_sum_acc_scalar,
    tanh_scalar,
    exp_shift_scalar,
    gelu_scalar,
    gelu_backward_scalar,
};

}  // namespace netfm::nn::kernels
