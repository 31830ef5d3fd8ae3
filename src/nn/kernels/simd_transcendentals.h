// tanhf_port and expf_port (libm_port.h) in SIMD lanes, written once for
// every x86 backend. Each lane runs the scalar port's operations in its
// order, and every branch of the port is computed for all lanes and
// selected by a lane mask.
//
// A backend includes this header in its own translation unit, after the
// intrinsics it needs, and instantiates the row kernels at the bottom with
// a traits struct V that names its vector types and the few operations the
// ISAs spell differently:
//
//   F, I, M        kLanes floats, kLanes uint32s, a lane mask
//   H, D, L        half of F as floats, as doubles, as uint64s
//   splat, splat_i                          broadcasts
//   as_f, as_i, as_d, as_l                  bit casts
//   lt, gt, eq (signed int32), flt, fgt, unord (float) -> M; M combines
//                  with & |
//   select(m, a, b), select_i(m, a, b)      b where m is set, else a
//   cvtt (float -> int32, truncating), cvt (int32 -> float)
//   srlv (logical right shift by a per-lane count)
//   lo, hi, join (halves of F), widen (H -> D), narrow (D -> H)
//   exp_table (kExpTable[ki % 32] per 64-bit lane)
//   load, store, Tail, tail(n), load_tail, store_tail (first n lanes)
//
// Arithmetic uses the vector types' own operators (GCC vector extensions).
// The build sets -ffp-contract=off, so each is one IEEE operation, as in
// the scalar port; nothing here fuses. Integer lanes are unsigned so that
// the bit arithmetic wraps, as the intrinsics do, in lanes a blend later
// discards.
//
// Everything is in an unnamed namespace: each backend compiles its own copy
// under its own -m flags, and no symbol is shared between them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/kernels/libm_port.h"

namespace netfm::nn::kernels {
namespace {

template <class V>
struct TranscendentalLanes {
  using F = typename V::F;
  using I = typename V::I;
  using M = typename V::M;
  using H = typename V::H;
  using D = typename V::D;
  using L = typename V::L;

  /// expm1f_port restricted to the arguments tanhf_port passes it:
  /// a in [2, 44) (from |x| >= 1) or a in (-2, -2^-54] (from |x| < 1).
  /// There expm1f's huge-argument filter never fires and k == 1
  /// (0.5·ln2 < a < 1.5·ln2) never occurs; every other branch is taken by
  /// some lane.
  static F expm1_tanh_arg(F a) {
    using namespace port;
    const I ha = V::as_i(a) & 0x7fffffffu;
    const M neg = V::lt(V::as_i(a), V::splat_i(0));
    // k: ±1 in 0.5·ln2 < |a| < 1.5·ln2, trunc(a/ln2 ± 0.5) above, 0 below.
    const M reduce = V::gt(ha, V::splat_i(0x3eb17218));
    const M near = V::lt(ha, V::splat_i(0x3f851592));
    const F half = V::select(neg, V::splat(0.5f), V::splat(-0.5f));
    I k = V::cvtt(kInvLn2 * a + half);
    k = V::select_i(reduce & near, k,
                    V::select_i(neg, V::splat_i(1), V::splat_i(-1)));
    k = V::select_i(reduce, V::splat_i(0), k);
    // With k = ±1 or 0 the general reduction computes the same hi and lo
    // as the port's special cases: a − (±1·ln2_hi) is a ∓ ln2_hi, a − 0 is
    // a.
    const F kf = V::cvt(k);
    const F hi = a - kf * kLn2Hi;
    const F lo = kf * kLn2Lo;
    const F x = hi - lo;
    const F c = (hi - x) - lo;

    const F hfx = 0.5f * x;
    const F hxs = x * hfx;
    const F r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 +
                                                                 hxs * kQ5))));
    const F t = 3.0f - r1 * hfx;
    F e = hxs * ((r1 - t) / (6.0f - x * t));
    // k == 0
    const F res0 = x - (x * e - hxs);
    e = x * (e - c) - c;
    e = e - hxs;
    // k == -1
    const F res_m1 = 0.5f * (x - e) - 0.5f;
    const I k23 = k << 23;  // k added to the exponent
    const F e_x = e - x;
    // k <= -2 or k > 56
    const F res_far = V::as_f(V::as_i(1.0f - e_x) + k23) - 1.0f;
    // 2 <= k < 23: t = 1 − 2^-k
    const F t_lo = V::as_f(0x3f800000u - V::srlv(V::splat_i(0x1000000), k));
    const F res_lo = V::as_f(V::as_i(t_lo - e_x) + k23);
    // 23 <= k <= 56: t = 2^-k
    const F t_hi = V::as_f((0x7fu - k) << 23);
    const F res_hi = V::as_f(V::as_i((x - (e + t_hi)) + 1.0f) + k23);

    F res = V::select(V::lt(k, V::splat_i(23)), res_hi, res_lo);
    res = V::select(V::lt(k, V::splat_i(-1)) | V::gt(k, V::splat_i(56)), res,
                    res_far);
    res = V::select(V::eq(k, V::splat_i(-1)), res, res_m1);
    res = V::select(V::eq(k, V::splat_i(0)), res, res0);
    // |a| < 2^-25: a itself.
    return V::select(V::lt(ha, V::splat_i(0x33000000)), res, a);
  }

  static F tanh(F v) {
    const I ix = V::as_i(v) & 0x7fffffffu;
    const I sign = V::as_i(v) & 0x80000000u;
    const F ax = V::as_f(ix);
    const M big = V::gt(ix, V::splat_i(0x3f7fffff));
    // |x| >= 1: expm1(2|x|), 1 − 2/(t + 2); else expm1(−2|x|), −t/(t + 2).
    const F t = expm1_tanh_arg(V::select(big, -2.0f * ax, 2.0f * ax));
    // One division per lane: q = 2/(t + 2) or −t/(t + 2).
    const F q = V::select(big, V::as_f(V::as_i(t) ^ 0x80000000u),
                          V::splat(2.0f)) /
                (t + 2.0f);
    F z = V::select(big, q, 1.0f - q);
    // |x| >= 22 (and ±inf): ±1.
    z = V::select(V::gt(ix, V::splat_i(0x41afffff)), z, V::splat(1.0f));
    // z >= +0 here, so the sign of x goes on with an or.
    F res = V::as_f(V::as_i(z) | sign);
    // |x| < 2^-55 (and ±0): x·(1 + x).
    res = V::select(V::lt(ix, V::splat_i(0x24000000)), res, v * (1.0f + v));
    // NaN: the quieted input, as 1/x ± 1 returns it.
    return V::select(V::gt(ix, V::splat_i(0x7f800000)), res, v + v);
  }

  /// expf_port's main path in kLanes/2 double lanes.
  static H exp_main(H xf) {
    using namespace port;
    const D xd = V::widen(xf);
    const D kd_shifted = kInvLn2N * xd + kShift;
    const L ki = V::as_l(kd_shifted);
    const D kd = kd_shifted - kShift;
    const D r = (kInvLn2NHi * xd - kd) + kInvLn2NLo * xd;
    const D s = V::as_d(V::exp_table(ki) + (ki << (52 - kExpTableBits)));
    const D z = kC0 * r + kC1;
    const D r2 = r * r;
    D y = kC2 * r + 1.0;
    y = z * r2 + y;
    y = y * s;
    return V::narrow(y);
  }

  static F exp(F x) {
    using namespace port;
    F res = V::join(exp_main(V::lo(x)), exp_main(V::hi(x)));
    // |x| >= 88 and NaN, in the port's order of tests.
    res = V::select(V::fgt(x, V::splat(kExpOverflow)), res,
                    V::splat(__builtin_huge_valf()));
    res = V::select(V::flt(x, V::splat(kExpTiny)), res, V::splat(0x1p-149f));
    res = V::select(V::flt(x, V::splat(kExpUnderflow)), res, V::splat(0.0f));
    return V::select(V::unord(x), res, x + x);
  }

  static F gelu(F x) {
    using port::kGeluA, port::kGeluC;
    // kC·(x + ((A·x)·x)·x), then (0.5·x)·(1 + tanh).
    const F inner = kGeluC * (x + kGeluA * x * x * x);
    return 0.5f * x * (1.0f + tanh(inner));
  }

  /// ga + g·gelu'(x), the scalar kernel's expression in its order.
  static F gelu_grad(F x, F g, F ga) {
    using port::kGeluA, port::kGeluC;
    const F x3 = x * x * x;
    const F inner = kGeluC * (x + kGeluA * x3);
    const F t = tanh(inner);
    const F dinner = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
    return ga + g * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner);
  }
};

// The KernelTable entries: full vectors, then the first n % kLanes lanes
// through a tail mask (masked-off lanes read as 0 and are not stored).

template <class V>
void tanh_rows(const float* in, std::size_t n, float* out) {
  using Lanes = TranscendentalLanes<V>;
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store(out + i, Lanes::tanh(V::load(in + i)));
  if (i < n) {
    const auto m = V::tail(n - i);
    V::store_tail(m, out + i, Lanes::tanh(V::load_tail(m, in + i)));
  }
}

template <class V>
void exp_shift_rows(const float* in, float shift, std::size_t n,
                    float* out) {
  using Lanes = TranscendentalLanes<V>;
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store(out + i, Lanes::exp(V::load(in + i) - shift));
  if (i < n) {
    const auto m = V::tail(n - i);
    V::store_tail(m, out + i, Lanes::exp(V::load_tail(m, in + i) - shift));
  }
}

template <class V>
void gelu_rows(const float* in, std::size_t n, float* out) {
  using Lanes = TranscendentalLanes<V>;
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store(out + i, Lanes::gelu(V::load(in + i)));
  if (i < n) {
    const auto m = V::tail(n - i);
    V::store_tail(m, out + i, Lanes::gelu(V::load_tail(m, in + i)));
  }
}

template <class V>
void gelu_backward_rows(const float* x, const float* g, std::size_t n,
                        float* ga) {
  using Lanes = TranscendentalLanes<V>;
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes)
    V::store(ga + i, Lanes::gelu_grad(V::load(x + i), V::load(g + i),
                                      V::load(ga + i)));
  if (i < n) {
    const auto m = V::tail(n - i);
    V::store_tail(m, ga + i,
                  Lanes::gelu_grad(V::load_tail(m, x + i),
                                   V::load_tail(m, g + i),
                                   V::load_tail(m, ga + i)));
  }
}

}  // namespace
}  // namespace netfm::nn::kernels
