// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each netfm module's public functions
// (the program itself is not instrumented). Each span holds a name, start,
// end, parent span and request id; spans stay in memory and are written as
// JSON lines when the run ends. A layer's self time is its span's duration
// minus the durations of its child spans.
//
// The recorder is single-threaded by design: every span is opened and
// closed on the benchmark's driving thread. When tracing is off, opening a
// span costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  std::uint32_t name = 0;    // index into names()
  std::uint32_t parent = 0;  // span id + 1 of the parent; 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

bool enabled();
void set_enabled(bool on);

/// Opens a span; returns its id (0 when tracing is off). `parent` 0 means
/// "the innermost open scoped span", so explicit async spans pass their
/// parent id (or kRoot).
inline constexpr std::uint32_t kRoot = 0xffffffffu;
std::uint32_t begin(const char* name, std::uint64_t request = 0,
                    std::uint32_t parent = 0);
void end(std::uint32_t id);

/// RAII span nested under the innermost open scoped span.
class Scoped {
 public:
  explicit Scoped(const char* name, std::uint64_t request = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::uint32_t id_;
};

/// Per-name aggregate of closed spans.
struct Aggregate {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // total minus time covered by child spans
  double mean_us() const { return count ? total_us / count : 0.0; }
  double mean_self_us() const { return count ? self_us / count : 0.0; }
};
std::map<std::string, Aggregate> aggregate();

/// Durations (us) of every closed span with this name.
std::vector<double> durations_us(const std::string& name);

std::size_t span_count();

/// Writes every span as one JSON object per line. Returns false on I/O
/// failure.
bool write_jsonl(const std::string& path);

}  // namespace perfbench::trace
