// The scalar oracle of the transcendental kernels: a port of the host C
// library's single-precision tanh and exp, so every backend's tanh/exp is
// defined by in-repo code instead of whatever libm the process links.
//
//   tanhf_port — fdlibm tanhf over fdlibm expm1f (the 5-term rational
//                expm1), as glibc 2.36 builds them for x86-64.
//   expf_port  — glibc 2.36's table-driven expf (32-entry 2^(i/32) table,
//                cubic polynomial in double) as it runs on FMA hardware.
//                That build rounds r = x·N/ln2 − kd once, with a fused
//                multiply-add, and unfused r misses it at 2 of the 2^32
//                inputs. The port gets the same r without FMA: N/ln2 is
//                split into a head and a tail whose products with any float
//                are exact, so r = (x·hi − kd) + x·lo rounds once. kd and
//                the cubic run unfused; the float result still equals the
//                FMA build's on every input.
//
// Each port equals std::tanh / std::exp on all 2^32 float inputs on a
// glibc 2.36 x86-64 host with FMA (bench/sweep_transcendentals checks it),
// NaN payloads included. Neither port fuses anything, so every backend
// runs it with separate IEEE operations. The SIMD backends run the same
// operation sequence lane by lane (simd_transcendentals.h); the constants
// below are shared with them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netfm::nn::kernels {

float tanhf_port(float x) noexcept;
float expf_port(float x) noexcept;

/// The scalar backend's KernelTable::tanh / exp_shift / gelu /
/// gelu_backward: the ports element by element. The NEON backend uses them
/// as they are.
void tanh_scalar(const float* in, std::size_t n, float* out);
void exp_shift_scalar(const float* in, float shift, std::size_t n,
                      float* out);
void gelu_scalar(const float* in, std::size_t n, float* out);
void gelu_backward_scalar(const float* x, const float* g, std::size_t n,
                          float* ga);

namespace port {

// expm1f (fdlibm).
inline constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
inline constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
inline constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
inline constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
inline constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
inline constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

// expf: N = 32 table entries.
inline constexpr int kExpTableBits = 5;
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
/// kInvLn2N = kInvLn2NHi + kInvLn2NLo, with 25 and 26 significant bits: the
/// product of either with a float (24 bits) is exact in double.
inline constexpr double kInvLn2NHi = 0x1.715476p+5;
inline constexpr double kInvLn2NLo = 0x1.4ae0bf8p-21;
static_assert(kInvLn2NHi + kInvLn2NLo == kInvLn2N);
inline constexpr double kShift = 0x1.8p+52;
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;
inline constexpr float kExpOverflow = 0x1.62e42ep6f;    // above: +inf
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;  // below: +0
inline constexpr float kExpTiny = -0x1.9d1d9ep6f;       // below: 0x1p-149
/// bits(2^(i/32)) − (i << 47): adding ki << 47 restores the i/32 part and
/// puts k/32's integer part into the exponent.
alignas(64) inline constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// GELU's tanh approximation (BERT): 0.5·x·(1 + tanh(kGeluC·(x + kGeluA·x³))).
inline constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

}  // namespace port
}  // namespace netfm::nn::kernels
