// Exhaustive check of the transcendental kernels over all 2^32 float bit
// patterns, NaNs included, compared bit for bit:
//   - the scalar port (nn/kernels/libm_port.h) against the host libm:
//     tanhf_port vs std::tanh, expf_port vs std::exp;
//   - every other backend this build and CPU support against the port:
//     KernelTable::tanh, and KernelTable::exp_shift with shift 0.
// Prints one line per comparison and exits 1 when a backend differs from
// the port. The libm comparison is a report, not a gate: it reads 0 on a
// glibc 2.36 x86-64 host with FMA, whose expf and tanhf the ports
// reproduce, and elsewhere says how far the host libm differs.
//
//   ./sweep_transcendentals      (about 25 s per function on 4 threads)
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/kernels/kernels.h"
#include "nn/kernels/libm_port.h"

namespace {

namespace kn = netfm::nn::kernels;

constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
constexpr std::size_t kChunk = std::size_t{1} << 16;
constexpr int kShownMismatches = 4;

struct Target {
  std::string name;  // "port vs std::tanh", "avx512 vs port", ...
  std::atomic<std::uint64_t> mismatches{0};
  std::mutex shown_mu;
  int shown = 0;

  void report(std::uint32_t input, float got, float want) {
    mismatches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shown_mu);
    if (shown++ < kShownMismatches)
      std::printf("  %s: x=%a (0x%08x) got %a want %a\n", name.c_str(),
                  static_cast<double>(std::bit_cast<float>(input)), input,
                  static_cast<double>(got), static_cast<double>(want));
  }
};

/// Runs one function over every bit pattern: `libm(x)` is the host
/// reference, `kernel(table, in, n, out)` the kernel under test.
template <typename Libm, typename Kernel>
bool sweep(const char* fn, const std::vector<const kn::KernelTable*>& simd,
           Libm libm, Kernel kernel) {
  std::vector<Target> targets(1 + simd.size());
  targets[0].name = std::string("port vs std::") + fn;
  for (std::size_t b = 0; b < simd.size(); ++b)
    targets[1 + b].name = std::string(simd[b]->name) + " vs port";

  std::atomic<std::uint64_t> next{0};
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w)
    pool.emplace_back([&] {
      std::vector<float> in(kChunk), port(kChunk), out(kChunk);
      for (;;) {
        const std::uint64_t lo = next.fetch_add(kChunk);
        if (lo >= kAll) return;
        for (std::size_t i = 0; i < kChunk; ++i)
          in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(lo + i));
        kernel(nullptr, in.data(), kChunk, port.data());
        for (std::size_t i = 0; i < kChunk; ++i) {
          const float want = libm(in[i]);
          if (std::bit_cast<std::uint32_t>(port[i]) !=
              std::bit_cast<std::uint32_t>(want))
            targets[0].report(static_cast<std::uint32_t>(lo + i), port[i],
                              want);
        }
        for (std::size_t b = 0; b < simd.size(); ++b) {
          kernel(simd[b], in.data(), kChunk, out.data());
          for (std::size_t i = 0; i < kChunk; ++i)
            if (std::bit_cast<std::uint32_t>(out[i]) !=
                std::bit_cast<std::uint32_t>(port[i]))
              targets[1 + b].report(static_cast<std::uint32_t>(lo + i),
                                    out[i], port[i]);
        }
      }
    });
  for (std::thread& t : pool) t.join();

  bool ok = true;  // every backend equals the port; targets[0] is libm
  for (const Target& t : targets) {
    const std::uint64_t m = t.mismatches.load();
    std::printf("%-5s %-22s %llu mismatches in %llu inputs\n", fn,
                t.name.c_str(), static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(kAll));
    ok = ok && (&t == &targets[0] || m == 0);
  }
  std::fflush(stdout);
  return ok;
}

}  // namespace

int main() {
  // Every supported SIMD backend's table; the scalar backend is the port.
  std::vector<const kn::KernelTable*> simd;
  const kn::Backend active = kn::active();
  for (kn::Backend b : kn::available()) {
    if (b == kn::Backend::kScalar) continue;
    kn::set_backend(b);
    simd.push_back(&kn::table());
  }
  kn::set_backend(active);

  const bool tanh_ok = sweep(
      "tanh", simd, [](float x) { return std::tanh(x); },
      [](const kn::KernelTable* t, const float* in, std::size_t n,
         float* out) {
        if (t == nullptr)
          kn::tanh_scalar(in, n, out);
        else
          t->tanh(in, n, out);
      });
  const bool exp_ok = sweep(
      "exp", simd, [](float x) { return std::exp(x); },
      [](const kn::KernelTable* t, const float* in, std::size_t n,
         float* out) {
        if (t == nullptr)
          kn::exp_shift_scalar(in, 0.0f, n, out);
        else
          t->exp_shift(in, 0.0f, n, out);
      });
  return tanh_ok && exp_ok ? 0 : 1;
}
