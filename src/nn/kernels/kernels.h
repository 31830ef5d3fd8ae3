// Runtime-dispatched CPU kernel backends for the nn tensor engine.
//
// The scalar kernels are the *reference oracle*: every other backend must
// produce bit-identical fp32 results. Two families of kernels keep that
// promise in two ways:
//
//  - The GEMM and weighted sums (the packed/register-blocked kernels
//    extracted from src/nn/tensor.cpp) reduce K in a fixed serial order per
//    output element, and the SIMD backends vectorize only across
//    *independent output columns* (the NR dimension) using separate
//    multiply and add instructions — never FMA, whose single rounding would
//    diverge from the scalar two-rounding sequence.
//  - The elementwise transcendentals (tanh, exp and the GELU built on tanh)
//    are defined by libm_port.h: ports of glibc 2.36's tanhf/expm1f and
//    expf. A SIMD backend runs the port's exact operation sequence in every
//    lane, each branch as a lane mask (simd_transcendentals.h). No kernel
//    fuses a multiply-add: the port reproduces the single rounding of the
//    FMA build's expf reduction with an exact split product instead.
//
// A backend is selected once, at first use, via cpuid-style runtime
// detection (best available wins: avx512 > avx2 > neon > scalar), with an
// NETFM_KERNELS=scalar|avx2|avx512|neon override for A/B testing and CI
// determinism. An unknown or unsupported override warns on stderr and
// falls back to detection — it never aborts the process. The active
// backend is exported as the `nn.kernel.backend` gauge and stamped into
// every BENCH_*.json emission (see bench/harness).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace netfm::nn::kernels {

/// Strided matrix view: element(r, c) = p[r * rs + c * cs]. Shared by the
/// GEMM plumbing in tensor.cpp and every backend kernel.
struct MatRef {
  const float* p;
  std::size_t rs, cs;
};

inline constexpr std::size_t kMR = 4;   // micro-tile rows (register-blocked)
inline constexpr std::size_t kNR = 16;  // micro-tile cols (one zmm / two ymm)

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// One backend's kernel set. Every kernel is bit-compatible with the scalar
/// reference (see file comment).
struct KernelTable {
  const char* name;

  /// Rows [row_lo, row_hi) of C (M x N) = (or +=) op(A) * packed op(B),
  /// where packed_b holds ceil(N/kNR) panels of K x kNR (zero-padded,
  /// panel-major — see pack_b in tensor.cpp). K is reduced serially in
  /// ascending order per output element.
  void (*gemm_rows)(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi, bool accumulate);

  /// out[c] = sum over j in [0, t) of w[j] * rows[j * dk + c], with j
  /// reduced serially in ascending order per output element (the batched
  /// matmul's K order). Both halves of incremental-decode attention: the
  /// scores q · k (w = q, rows = a transposed K block, one output per key)
  /// and the context attn · V (w = probabilities, rows = a V block).
  void (*weighted_sum)(const float* w, const float* rows, std::size_t t,
                       std::size_t dk, float* out);

  /// weighted_sum that *accumulates into* out instead of overwriting it:
  /// out[c] += sum over j in [0, t) of w[j] * rows[j * dk + c], same serial
  /// ascending-j reduction. Used to chain weighted_sum across the
  /// fixed-size runs of a paged KV block table: fp32 stores between runs
  /// round-trip exactly, so run-by-run accumulation is bit-identical to one
  /// contiguous weighted_sum over the same rows.
  void (*weighted_sum_acc)(const float* w, const float* rows, std::size_t t,
                           std::size_t dk, float* out);

  /// out[i] = tanh(in[i]) for i in [0, n): bitwise tanhf_port. `out` may
  /// be `in`.
  void (*tanh)(const float* in, std::size_t n, float* out);

  /// out[i] = exp(in[i] - shift), the difference rounded to float first:
  /// bitwise expf_port(in[i] - shift). The softmax rows pass their max as
  /// `shift`; shift 0 gives a plain exp. `out` may be `in`.
  void (*exp_shift)(const float* in, float shift, std::size_t n, float* out);

  /// GELU, tanh approximation: out[i] = 0.5·x·(1 + tanh(C·(x + A·x·x·x)))
  /// for x = in[i], the float expression nn::gelu has always evaluated.
  void (*gelu)(const float* in, std::size_t n, float* out);

  /// GELU backward, accumulated: ga[i] += g[i] · gelu'(x[i]).
  void (*gelu_backward)(const float* x, const float* g, std::size_t n,
                        float* ga);
};

/// The active backend's kernels. Selects a backend on first call (cpuid +
/// NETFM_KERNELS override); cheap atomic load afterwards.
const KernelTable& table() noexcept;

/// The active backend id / display name ("scalar", "avx2", ...).
Backend active() noexcept;
const char* active_name() noexcept;

/// Display name of any backend id.
const char* backend_name(Backend b) noexcept;

/// True when this build carries the backend *and* the running CPU supports
/// it. kScalar is always supported.
bool supported(Backend b) noexcept;

/// Every supported backend, scalar first, best last.
std::vector<Backend> available();

/// Switches the active backend. Throws std::invalid_argument when the
/// backend is not supported on this build/CPU. Not thread-safe against
/// in-flight kernels — switch between forwards, not during one.
void set_backend(Backend b);

/// Parses an NETFM_KERNELS-style name. Throws std::invalid_argument on an
/// unknown name.
Backend parse(std::string_view name);

/// Block-table-aware weighted_sum over a paged KV head: the t attended
/// rows live in n_runs fixed-size contiguous runs (`runs[r]` is run r's
/// first row; every run holds `run_tokens` rows of dk floats except the
/// last, which holds the remainder). Runs are reduced in ascending token
/// order through the dispatched weighted_sum / weighted_sum_acc kernels;
/// the per-element add sequence is identical to one contiguous
/// weighted_sum over the same t rows, so the result is bit-identical to
/// the contiguous kernel on every backend.
inline void paged_weighted_sum(const KernelTable& kt, const float* w,
                               const float* const* runs, std::size_t n_runs,
                               std::size_t run_tokens, std::size_t t,
                               std::size_t dk, float* out) {
  for (std::size_t r = 0; r < n_runs; ++r) {
    const std::size_t lo = r * run_tokens;
    const std::size_t len = t - lo < run_tokens ? t - lo : run_tokens;
    if (r == 0)
      kt.weighted_sum(w + lo, runs[r], len, dk, out);
    else
      kt.weighted_sum_acc(w + lo, runs[r], len, dk, out);
  }
}

}  // namespace netfm::nn::kernels
