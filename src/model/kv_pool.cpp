#include "model/kv_pool.h"

#include <atomic>
#include <mutex>

#include "common/fault.h"
#include "common/metrics.h"

namespace netfm::model {

namespace {

// Reserved KV bytes across every live pool in the process, mirrored into
// the infer.kv_bytes gauge so memory is a tracked trajectory.
std::atomic<std::size_t> g_reserved_bytes{0};

void publish_reserved_bytes(std::size_t delta, bool add) noexcept {
  static const auto g_kv_bytes = metrics::gauge("infer.kv_bytes", "byte");
  const std::size_t now =
      add ? g_reserved_bytes.fetch_add(delta) + delta
          : g_reserved_bytes.fetch_sub(delta) - delta;
  g_kv_bytes.set(static_cast<double>(now));
}

}  // namespace

struct KvBlockPool::State {
  mutable std::mutex mutex;
  std::vector<std::uint32_t> free_list;
  std::size_t in_use = 0;
  std::size_t peak_in_use = 0;
};

KvBlockPool::KvBlockPool(std::size_t layers, std::size_t heads,
                         std::size_t head_dim, std::size_t num_blocks)
    : layers_(layers),
      heads_(heads),
      head_dim_(head_dim),
      num_blocks_(num_blocks),
      state_(std::make_unique<State>()) {
  if (layers == 0 || heads == 0 || head_dim == 0 || num_blocks == 0)
    throw std::invalid_argument("KvBlockPool: all dimensions must be > 0");
  const std::size_t per_layer =
      num_blocks_ * heads_ * kKvBlockTokens * head_dim_;
  keys_.resize(layers_);
  values_.resize(layers_);
  for (std::size_t l = 0; l < layers_; ++l) {
    keys_[l].resize(per_layer);
    values_[l].resize(per_layer);
  }
  // Free list popped from the back: blocks are handed out in ascending
  // order from a fresh pool, which keeps early allocations cache-adjacent.
  state_->free_list.reserve(num_blocks_);
  for (std::size_t b = num_blocks_; b > 0; --b)
    state_->free_list.push_back(static_cast<std::uint32_t>(b - 1));
  publish_reserved_bytes(num_blocks_ * bytes_per_block(), /*add=*/true);
}

KvBlockPool::~KvBlockPool() {
  publish_reserved_bytes(num_blocks_ * bytes_per_block(), /*add=*/false);
}

bool KvBlockPool::try_alloc(std::uint32_t* block) {
  static const auto f_alloc = fault::point("model.kv.alloc");
  if (f_alloc.fire()) return false;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->free_list.empty()) return false;
  *block = state_->free_list.back();
  state_->free_list.pop_back();
  ++state_->in_use;
  if (state_->in_use > state_->peak_in_use) state_->peak_in_use = state_->in_use;
  return true;
}

void KvBlockPool::free_block(std::uint32_t block) noexcept {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->free_list.push_back(block);
  --state_->in_use;
}

std::size_t KvBlockPool::blocks_in_use() const noexcept {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->in_use;
}

std::size_t KvBlockPool::free_blocks() const noexcept {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->free_list.size();
}

std::size_t KvBlockPool::peak_blocks_in_use() const noexcept {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->peak_in_use;
}

}  // namespace netfm::model
