// Int8 weight-quantized inference GEMM (opt-in via NETFM_QUANT=1).
//
// Inference-route only: the autograd/training path stays fp32. A layer's
// weight matrix is quantized symmetrically per *output channel* into int8
// panels (column j scaled by max|w[:, j]| / 127, zero-padded to a
// kQuantKAlign multiple of K so the int8 kernels never need a remainder
// loop) and cached per layer. At call time activations are quantized
// symmetrically per *row*, the dispatched backend's gemm_i8 accumulates in
// exact int32, and the result dequantizes as acc * scale_row * scale_col.
// Integer accumulation is exact, so quantized logits are deterministic
// across backends, thread counts, and batch-vs-incremental routes; the
// only error vs fp32 is the two rounding steps, bounded in DESIGN.md.
//
// Layers that cannot quantize (K < kMinK, or the nn.quant.fallback fault
// point fires) return an undefined Tensor and bump the nn.quant.fallback
// counter — the caller runs its fp32 path, visibly, never silently wrong.
//
// The int8 panels live in the layer's nn::PackedWeights cache next to its
// fp32 panels (nn/packed.h): one cache, one epoch check, one pack pass.
#pragma once

#include <cstdint>

#include "nn/packed.h"
#include "nn/tensor.h"

namespace netfm::nn::quant {

/// Below this reduction depth the int8 route cannot win (quantize +
/// dequantize overhead dominates) and the rounding error budget is not
/// worth it — such layers fall back to fp32.
inline constexpr std::size_t kMinK = 16;

/// True when the int8 inference route is on: NETFM_QUANT env var (read
/// once, "0"/empty = off) unless overridden by set_enabled.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Global weight-mutation epoch. Optimizer steps and parameter loads bump
/// it; PackedWeights snapshots stamped with an older epoch repack on use.
std::uint64_t weight_epoch() noexcept;
void bump_weight_epoch() noexcept;

/// Fills `panels`' int8 half (i8, scales, kp) from the weight its fp32 half
/// was packed from. Called by PackedWeights::get while it builds a snapshot.
void pack_panels(WeightPanels& panels);

/// Quantized inference linear on packed panels: x @ W, plus bias (length
/// N) when non-null. x's last dim must equal K; the result replaces it
/// with N. Returns an undefined Tensor, counting nn.quant.fallback, when
/// the panels carry no int8 data (K < kMinK) or the nn.quant.fallback fault
/// fires; the caller must then take its fp32 path.
Tensor linear(const Tensor& x, const WeightPanels& panels,
              const float* bias = nullptr);

/// The int8 route through a layer cache, without bias: returns undefined
/// when quant is disabled, outside inference mode, or when the layer
/// declines as above.
Tensor linear(const Tensor& x, const float* w, std::size_t K, std::size_t N,
              std::size_t rs, std::size_t cs, PackedWeights& cache);

}  // namespace netfm::nn::quant
