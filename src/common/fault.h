// Process-wide, seed-deterministic fault injection. The hostile-input twin
// of common/metrics: the registry every hardened path consults before it
// trusts a byte stream, a file descriptor, or a floating-point value.
//
// Design mirrors the metrics registry: injection points are registered by
// name and cached in function-local statics, a relaxed-atomic enabled()
// gate keeps disarmed call sites at one load, and configuration comes from
// the NETFM_FAULTS environment variable or programmatic RAII Scopes.
// Decisions are pure functions of (seed, point, evaluation index), so a
// run with a given spec replays identically — a fuzz failure is a
// (seed, index) pair, not a core dump you can't reproduce.
//
// Spec grammar (items separated by ',' or ';'):
//   seed=<N>         reseed the decision stream (default 0)
//   <point>=<p>      fire with probability p in [0,1] per evaluation
//   <point>=@<n>     fire exactly on the n-th evaluation (1-based), once
//   <point>=@<n>!    same, but the process hard-exits with kKillExitCode
//                    (simulated kill for crash/resume testing)
// A point name ending in '*' matches any registered point with that
// prefix. Later Scopes override earlier layers and the environment.
//
// Injection-point inventory (see DESIGN.md "Robustness & fault injection"):
//   io.open.read / io.open.write   fopen fails
//   io.short_write                 fwrite stops halfway
//   io.crash_rename                temp written, rename never happens
//   core.pretrain.loss             non-finite value injected into the loss
//   core.pretrain.crash            crash (throw/exit) inside the step loop
//   core.finetune.loss / .crash    same for fine-tuning
//   core.lm.loss / .crash          same for TrafficLM training
//   core.decode.crash              crash inside LmDecoder::advance_batch
//   nn.workspace.oom               Workspace::acquire throws bad_alloc
//   model.kv.alloc                 KvBlockPool::try_alloc reports a dry pool
//   data.shard.corrupt             a corpus shard fails validation at open
//   data.mmap.fail                 MappedFile::open reports failure
//   serve.conn.drop                server severs a connection pre-reply
//   serve.tick.stall               scheduler tick stalls (wedged-worker sim)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace netfm::fault {

/// Exit code used by '!' (hard-kill) rules — distinguishable from crashes.
inline constexpr int kKillExitCode = 113;

/// True when any injection point may fire. Relaxed atomic load.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// One named injection point. Cache the handle in a function-local static:
///   static const auto f = fault::point("io.short_write");
///   if (f.fire()) return false;
class Point {
 public:
  /// Counts one evaluation and returns true when the active rule says this
  /// occurrence faults. Hard-exits the process when a '!' rule fires.
  /// Always false (one relaxed load) while injection is disabled.
  bool fire() const noexcept;

 private:
  friend Point point(std::string_view);
  explicit Point(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Registers (or finds) an injection point by name.
Point point(std::string_view name);

/// Thrown by crash-style injection sites when their point fires (the
/// non-'!' form). Carries the point name for test assertions.
struct CrashInjected {
  std::string point;
};

/// Applies `spec` on top of the current configuration for this object's
/// lifetime (LIFO) and force-enables injection; the destructor restores
/// both. Scopes are process-global — don't overlap them across threads.
class Scope {
 public:
  explicit Scope(std::string_view spec);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool was_enabled_;
};

/// Per-point counters since the last reset().
struct PointStats {
  std::string name;
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
};
std::vector<PointStats> stats();

/// Zeroes evaluation/fire counters. Registrations and active Scopes
/// survive; @n rules see a fresh evaluation stream.
void reset();

/// When `p` fires, a deterministic non-finite float (NaN, +Inf, or -Inf)
/// to substitute for a computed value; nullopt otherwise.
std::optional<float> corrupt_float(const Point& p) noexcept;

// ---------------------------------------------------------------------------
// Deterministic byte-stream mutation engine. Drives the decoder hardening
// sweep: tests/test_fault.cpp and bench/fuzz_decoders replay
// mutate(seed, index) streams against every src/net codec.

enum class MutationKind : std::uint8_t {
  kBitFlip,    // flip one bit
  kByteSet,    // overwrite a byte with a boundary value (0x00/0xff/0x80/...)
  kTruncate,   // drop a suffix
  kExtend,     // append random bytes
  kLengthLie,  // overwrite a 2- or 4-byte window with an extreme length
  kDuplicate,  // re-insert a copy of an interior chunk
  kReorder,    // swap two interior chunks
  kZeroRun,    // zero an interior run
};

/// What mutate() did — for failure reports and replay logs.
struct Mutation {
  MutationKind kind = MutationKind::kBitFlip;
  std::size_t offset = 0;
  std::size_t length = 0;
};

std::string_view mutation_kind_name(MutationKind kind) noexcept;

/// Applies the index-th mutation of the seed's stream to `data` in place.
/// Pure: same (seed, index, input bytes) gives the same output on every
/// platform. Output size is bounded by input size + 64 bytes.
Mutation mutate(Bytes& data, std::uint64_t seed, std::uint64_t index);

}  // namespace netfm::fault
