// Backend dispatch: runtime CPU detection, NETFM_KERNELS override, and the
// atomic table pointer every kernel call loads. Selection happens exactly
// once (std::call_once) on the first table()/active() call; set_backend()
// republishes for tests and A/B benches.
#include "nn/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/metrics.h"

namespace netfm::nn::kernels {

extern const KernelTable kScalarTable;
#ifdef NETFM_HAVE_AVX2
extern const KernelTable kAvx2Table;
#endif
#ifdef NETFM_HAVE_AVX512
extern const KernelTable kAvx512Table;
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
extern const KernelTable kNeonTable;
#endif

namespace {

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{static_cast<int>(Backend::kScalar)};
std::once_flag g_init_once;

const KernelTable* table_for(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return &kScalarTable;
#ifdef NETFM_HAVE_AVX2
    case Backend::kAvx2:
      return &kAvx2Table;
#endif
#ifdef NETFM_HAVE_AVX512
    case Backend::kAvx512:
      return &kAvx512Table;
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
    case Backend::kNeon:
      return &kNeonTable;
#endif
    default:
      return nullptr;
  }
}

bool cpu_supports(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return true;
#if defined(NETFM_HAVE_AVX2) || defined(NETFM_HAVE_AVX512)
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Backend::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
    case Backend::kNeon:
      return true;  // NEON is baseline on aarch64
#endif
    default:
      return false;
  }
}

Backend detect() noexcept {
  for (Backend b : {Backend::kAvx512, Backend::kAvx2, Backend::kNeon})
    if (table_for(b) != nullptr && cpu_supports(b)) return b;
  return Backend::kScalar;
}

/// Publishes `b` as the active backend and exports the gauge.
void publish(Backend b) {
  g_table.store(table_for(b), std::memory_order_release);
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  static const auto g = metrics::gauge("nn.kernel.backend", "id");
  g.set(static_cast<double>(static_cast<int>(b)));
}

void init() noexcept {
  Backend chosen = detect();
  if (const char* env = std::getenv("NETFM_KERNELS");
      env != nullptr && env[0] != '\0') {
    try {
      const Backend requested = parse(env);
      if (supported(requested)) {
        chosen = requested;
      } else {
        std::fprintf(stderr,
                     "netfm: NETFM_KERNELS=%s not supported on this "
                     "build/CPU; using %s\n",
                     env, backend_name(chosen));
      }
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr,
                   "netfm: unknown NETFM_KERNELS=%s; using %s\n", env,
                   backend_name(chosen));
    }
  }
  publish(chosen);
}

}  // namespace

const KernelTable& table() noexcept {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  std::call_once(g_init_once, init);
  return *g_table.load(std::memory_order_acquire);
}

Backend active() noexcept {
  (void)table();  // force one-time selection
  return static_cast<Backend>(g_backend.load(std::memory_order_acquire));
}

const char* active_name() noexcept { return backend_name(active()); }

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool supported(Backend b) noexcept {
  return table_for(b) != nullptr && cpu_supports(b);
}

std::vector<Backend> available() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kNeon,
                    Backend::kAvx512})
    if (supported(b)) out.push_back(b);
  return out;
}

void set_backend(Backend b) {
  if (!supported(b))
    throw std::invalid_argument(
        std::string("kernel backend not supported on this build/CPU: ") +
        backend_name(b));
  std::call_once(g_init_once, init);  // keep one-time init semantics intact
  publish(b);
}

Backend parse(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;
  if (name == "neon") return Backend::kNeon;
  throw std::invalid_argument("unknown kernel backend: " +
                              std::string(name));
}

}  // namespace netfm::nn::kernels
