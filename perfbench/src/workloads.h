// The three workloads. Each builds its World (set-up repeated, median
// reported), derives its inputs from the seed, measures for the requested
// seconds, checks every output against direct library calls, and fills the
// report: end-to-end metrics untraced, or per-layer metrics when traced.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench.h"

namespace perfbench {

/// Set-ups per run; setup_s is their median. Four of them are pinned, one
/// to each of the 4 vCPUs the bounds were measured on.
inline constexpr std::size_t kSetupRepeats = 5;

void run_http_mixed(const Args& args, Report& report);
void run_decode_window(const Args& args, Report& report);
void run_pretrain_stream(const Args& args, Report& report);

/// Seed-derived stream for one purpose: the same (seed, salt) always gives
/// the same draws.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
