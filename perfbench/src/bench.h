// Shared pieces of the netfm benchmark binary: command-line arguments, the
// per-op sample record and the end-to-end statistics computed from it, and
// the metric report printed as the run's last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  // working space for corpus shards
};

/// One completed (or failed) unit of load as the load generator saw it:
/// one request, or one pretrain call of `ops` optimizer steps.
struct OpSample {
  double done_s = 0.0;      // completion time, seconds since measuring began
  double latency_ms = 0.0;  // submit/send -> reply, or wall time per step
  std::uint32_t tokens = 0; // tokens the model processed for this sample
  std::uint32_t ops = 1;    // ops this sample completed
  bool ok = true;
};

/// End-to-end figures for one measured interval. Throughput is the rate
/// between the first and the last completion (ops completed after the
/// first, over the time between them), so it does not jump by a whole tick
/// or a whole call when one more happens to finish inside the interval.
struct EndToEnd {
  double ops_per_s = 0.0;
  double tokens_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;  // printed, not gated
  std::size_t samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Linear-interpolated quantile; failed ops enter as +inf so they count as
/// missing every latency limit.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// `samples` in completion order.
EndToEnd summarize(const std::vector<OpSample>& samples);

/// Prints an EndToEnd block under `label` (non-final output lines).
void print_end_to_end(const std::string& label, const EndToEnd& e);

/// Metrics in the order they were added, each with its unit.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  bool correct = true;
  bool invalid = false;  // degradation ladder moved: not a measured result
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why);
  /// The run's last output line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string to_json() const;
};

/// Adds the six end-to-end metrics (setup_s given separately).
void add_end_to_end(Report& report, const EndToEnd& e, double setup_s,
                    double peak_rss_mb);

/// Counters a serving load loop keeps over all of its drives.
struct ServeCounters {
  std::uint64_t replies = 0;  // every reply received, drained ones too
  std::uint64_t mismatches = 0;
  std::uint64_t rejected = 0;
  int degrade_max = 0;
  double queue_depth_sum = 0.0;
  std::uint64_t queue_depth_samples = 0;

  double queue_depth_mean() const {
    return queue_depth_samples
               ? queue_depth_sum / static_cast<double>(queue_depth_samples)
               : 0.0;
  }
};

/// Runs a workload's load for `seconds`, with or without spans, appending
/// what completes to `samples` (nullptr: warm-up, nothing recorded).
using Drive = std::function<void(double seconds, bool traced,
                                 std::vector<OpSample>* samples)>;

struct Measurement {
  EndToEnd e2e;        // the untraced measurement (--trace 0 only)
  double rss_mb = 0.0; // peak RSS right after the measured load
  /// Traced over untraced per-op latency p50, minus 1 (--trace 1 only).
  double trace_overhead_share = 0.0;
};

/// Unmeasured load before the measured interval, so lazy set-up inside the
/// program (allocator growth, first-touch pages, caches) is paid first.
inline constexpr double kWarmupSeconds = 1.0;
/// Traced runs alternate this many untraced and traced slices.
inline constexpr std::size_t kTraceSlicePairs = 3;

/// The measured part of every workload: warm-up, then `args.seconds` of
/// load. Untraced, that is one measured interval. Traced, it is
/// kTraceSlicePairs pairs of untraced and traced slices, so host drift
/// falls on both kinds alike; the overhead compares their pooled latency
/// medians. Adds attempted and failed ops to `report`.
Measurement measure(const Args& args, Report& report, const Drive& drive);

/// The serving workloads' verdict: fails the report on reply mismatches or
/// failed ops, and marks the run invalid when the degradation ladder moved.
void check_serving(const ServeCounters& counters, Report& report);

/// getrusage(RUSAGE_SELF) max resident set, in MB.
double peak_rss_mb();

/// FNV-1a over bytes: the fingerprint replies are compared by.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

}  // namespace perfbench
