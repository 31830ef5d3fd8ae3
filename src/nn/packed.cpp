#include "nn/packed.h"

#include <atomic>
#include <stdexcept>

#include "common/metrics.h"
#include "nn/gemm.h"

namespace netfm::nn {
namespace {

std::atomic<std::uint64_t> g_epoch{1};

}  // namespace

std::uint64_t weight_epoch() noexcept {
  return g_epoch.load(std::memory_order_acquire);
}

void bump_weight_epoch() noexcept {
  g_epoch.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const WeightPanels> PackedWeights::get(
    const float* w, std::size_t K, std::size_t N, std::size_t rs,
    std::size_t cs) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t epoch = weight_epoch();  // read before the weights
  const WeightPanels* p = snapshot_.get();
  if (p != nullptr && p->epoch == epoch && p->source == w && p->K == K &&
      p->N == N && p->rs == rs && p->cs == cs)
    return snapshot_;

  auto fresh = std::make_shared<WeightPanels>();
  fresh->source = w;
  fresh->K = K;
  fresh->N = N;
  fresh->rs = rs;
  fresh->cs = cs;
  fresh->epoch = epoch;
  fresh->fp32.resize(packed_b_size(K, N));
  pack_b({w, rs, cs}, K, N, fresh->fp32.data());
  static const auto packs = metrics::counter("nn.gemm.weight_packs");
  packs.add(1);
  snapshot_ = std::move(fresh);
  return snapshot_;
}

Tensor packed_linear(const Tensor& x, const float* w, std::size_t K,
                     std::size_t N, std::size_t rs, std::size_t cs,
                     const Tensor& bias, PackedWeights& cache) {
  if (K == 0 || x.rank() == 0 || x.dim(x.rank() - 1) != K ||
      bias.size() != N)
    throw std::invalid_argument(
        "packed_linear: x last dim must equal K > 0 and bias length N");
  const std::shared_ptr<const WeightPanels> panels =
      cache.get(w, K, N, rs, cs);
  Shape out_shape = x.shape();
  out_shape.back() = N;
  Tensor out = Tensor::empty(std::move(out_shape));
  gemm_packed(x.size() / K, N, K, {x.data().data(), K, 1},
              panels->fp32.data(), out.data().data(), /*accumulate=*/false,
              /*allow_parallel=*/true, bias.data().data());
  return out;
}

void prepack(const float* w, std::size_t K, std::size_t N, std::size_t rs,
             std::size_t cs, PackedWeights& cache) {
  cache.get(w, K, N, rs, cs);
}

}  // namespace netfm::nn
