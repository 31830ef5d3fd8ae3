#include "nn/quant.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "nn/kernels/kernels.h"
#include "nn/workspace.h"

namespace netfm::nn::quant {
namespace {

std::atomic<int> g_enabled{-1};  // -1 = read NETFM_QUANT on first query
std::atomic<std::uint64_t> g_epoch{1};

/// Work below this many scalar ops stays serial (same spirit as the GEMM
/// parallel cutoff in tensor.cpp).
constexpr std::size_t kParallelCutoff = std::size_t{1} << 15;

std::int8_t quantize_value(float v, float scale) {
  const long q = std::lrintf(v / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127L, 127L));
}

}  // namespace

bool enabled() noexcept {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("NETFM_QUANT");
    v = (env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0'))
            ? 1
            : 0;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t weight_epoch() noexcept {
  return g_epoch.load(std::memory_order_acquire);
}

void bump_weight_epoch() noexcept {
  g_epoch.fetch_add(1, std::memory_order_release);
}

void pack_panels(WeightPanels& c) {
  const float* w = c.source;
  const std::size_t K = c.K, N = c.N, rs = c.rs, cs = c.cs;
  c.kp = (K + kernels::kQuantKAlign - 1) / kernels::kQuantKAlign *
         kernels::kQuantKAlign;
  c.i8.assign(N * c.kp, 0);
  c.scales.assign(N, 0.0f);
  const auto pack_cols = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      float maxabs = 0.0f;
      for (std::size_t k = 0; k < K; ++k)
        maxabs = std::max(maxabs, std::fabs(w[k * rs + j * cs]));
      if (maxabs == 0.0f) continue;  // scale 0, panel stays zero
      const float scale = maxabs / 127.0f;
      c.scales[j] = scale;
      std::int8_t* dst = c.i8.data() + j * c.kp;
      for (std::size_t k = 0; k < K; ++k)
        dst[k] = quantize_value(w[k * rs + j * cs], scale);
    }
  };
  if (N * K >= kParallelCutoff) {
    const std::size_t grain =
        std::max<std::size_t>(1, kParallelCutoff / std::max<std::size_t>(1, K));
    ThreadPool::global().parallel_for(0, N, grain, pack_cols);
  } else {
    pack_cols(0, N);
  }
}

Tensor linear(const Tensor& x, const float* w, std::size_t K, std::size_t N,
              std::size_t rs, std::size_t cs, PackedWeights& cache) {
  if (!enabled() || !inference_mode()) return {};
  return linear(x, *cache.get(w, K, N, rs, cs, /*want_i8=*/true));
}

Tensor linear(const Tensor& x, const WeightPanels& panels, const float* bias) {
  static const auto fallback_fault = fault::point("nn.quant.fallback");
  if (panels.kp == 0 || fallback_fault.fire()) {
    static const auto fallbacks = metrics::counter("nn.quant.fallback");
    fallbacks.add(1);
    return {};
  }
  const std::size_t K = panels.K, N = panels.N, kp = panels.kp;
  if (x.rank() == 0 || x.dim(x.rank() - 1) != K)
    throw std::invalid_argument("quant::linear: x last dim must equal K");
  const std::size_t M = x.size() / K;
  if (M == 0 || N == 0) return {};

  // Carve the int8 activation rows, per-row scales, and int32 accumulators
  // out of float workspace scratch (sizes rounded up to whole floats).
  // Scratch lives until the enclosing forward's reset_scratch, well past
  // this call.
  Workspace& ws = Workspace::current();
  auto* aq = reinterpret_cast<std::int8_t*>(ws.scratch((M * kp + 3) / 4).data());
  float* sa = ws.scratch(M).data();
  auto* acc = reinterpret_cast<std::int32_t*>(ws.scratch(M * N).data());
  const float* xp = x.data().data();

  // Per-row symmetric activation quantization: scale = max|row| / 127.
  // Rows are independent, so chunking cannot change results.
  const auto quant_rows = [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* row = xp + i * K;
      float maxabs = 0.0f;
      for (std::size_t k = 0; k < K; ++k)
        maxabs = std::max(maxabs, std::fabs(row[k]));
      std::int8_t* dst = aq + i * kp;
      if (maxabs == 0.0f) {
        sa[i] = 0.0f;
        std::fill(dst, dst + kp, std::int8_t{0});
        continue;
      }
      const float scale = maxabs / 127.0f;
      sa[i] = scale;
      for (std::size_t k = 0; k < K; ++k) dst[k] = quantize_value(row[k], scale);
      std::fill(dst + K, dst + kp, std::int8_t{0});
    }
  };
  const bool parallel_rows = M * K >= kParallelCutoff;
  if (parallel_rows) {
    const std::size_t grain =
        std::max<std::size_t>(1, kParallelCutoff / std::max<std::size_t>(1, K));
    ThreadPool::global().parallel_for(0, M, grain, quant_rows);
  } else {
    quant_rows(0, M);
  }

  // Exact int32 GEMM on the dispatched backend. Integer adds commute
  // exactly, so splitting rows across the pool cannot change results.
  const auto gemm_i8 = kernels::table().gemm_i8;
  const std::int8_t* bt = panels.i8.data();
  const auto gemm_run = [=](std::size_t lo, std::size_t hi) {
    gemm_i8(aq + lo * kp, bt, hi - lo, N, kp, acc + lo * N);
  };
  if (M * N * kp >= kParallelCutoff && M > 1) {
    const std::size_t grain = std::max<std::size_t>(
        1, kParallelCutoff / std::max<std::size_t>(1, N * kp) + 1);
    ThreadPool::global().parallel_for(0, M, grain, gemm_run);
  } else {
    gemm_run(0, M);
  }

  // Dequantize: out = acc * scale_row * scale_col (+ bias, the same single
  // rounding as nn::add on the stored product).
  Shape out_shape = x.shape();
  out_shape.back() = N;
  Tensor out = Tensor::empty(std::move(out_shape));
  float* op = out.data().data();
  const float* sb = panels.scales.data();
  const auto dequant_rows = [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float si = sa[i];
      const std::int32_t* arow = acc + i * N;
      float* orow = op + i * N;
      for (std::size_t j = 0; j < N; ++j) {
        const float y = static_cast<float>(arow[j]) * si * sb[j];
        orow[j] = bias ? y + bias[j] : y;
      }
    }
  };
  if (M * N >= kParallelCutoff) {
    const std::size_t grain =
        std::max<std::size_t>(1, kParallelCutoff / std::max<std::size_t>(1, N));
    ThreadPool::global().parallel_for(0, M, grain, dequant_rows);
  } else {
    dequant_rows(0, M);
  }

  static const auto gemms = metrics::counter("nn.quant.gemm");
  gemms.add(1);
  return out;
}

}  // namespace netfm::nn::quant
