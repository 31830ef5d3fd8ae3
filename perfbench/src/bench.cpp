#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(values[hi])) return values[lo];
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

EndToEnd summarize(const std::vector<OpSample>& samples) {
  EndToEnd e;
  e.samples = samples.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  const OpSample* first = nullptr;
  const OpSample* last = nullptr;
  double ops = 0.0, tokens = 0.0;
  for (const OpSample& s : samples) {
    e.attempted += s.ops;
    latencies.push_back(s.ok ? s.latency_ms : inf);
    if (!s.ok) {
      e.failed += s.ops;
      continue;
    }
    if (first == nullptr) {
      first = &s;
    } else {
      ops += s.ops;
      tokens += s.tokens;
    }
    last = &s;
  }
  const double span = first ? last->done_s - first->done_s : 0.0;
  if (span > 0.0) {
    e.ops_per_s = ops / span;
    e.tokens_per_s = tokens / span;
  }
  e.latency_p50_ms = quantile(latencies, 0.50);
  e.latency_p90_ms = quantile(latencies, 0.90);
  e.latency_p99_ms = quantile(latencies, 0.99);
  return e;
}

void print_end_to_end(const std::string& label, const EndToEnd& e) {
  std::printf(
      "%s: ops/s %.3f tokens/s %.1f latency p50 %.4f ms p90 %.4f ms "
      "p99 %.4f ms over %zu samples (%zu beyond p90, %zu beyond p99) | "
      "ops attempted %llu succeeded %llu failed %llu\n",
      label.c_str(), e.ops_per_s, e.tokens_per_s, e.latency_p50_ms,
      e.latency_p90_ms, e.latency_p99_ms, e.samples, e.samples / 10,
      e.samples / 100, static_cast<unsigned long long>(e.attempted),
      static_cast<unsigned long long>(e.attempted - e.failed),
      static_cast<unsigned long long>(e.failed));
}

void Report::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct && !invalid ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  // An invalid run measured a different program (the int8 route of the
  // degradation ladder): it reports no figures at all.
  for (std::size_t i = 0; !invalid && i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void add_end_to_end(Report& report, const EndToEnd& e, double setup_s,
                    double rss_mb) {
  report.add("setup_s", setup_s, "s");
  report.add("ops_per_s", e.ops_per_s, "1/s");
  report.add("tokens_per_s", e.tokens_per_s, "1/s");
  report.add("latency_p50_ms", e.latency_p50_ms, "ms");
  report.add("latency_p90_ms", e.latency_p90_ms, "ms");
  report.add("peak_rss_mb", rss_mb, "MB");
}

Measurement measure(const Args& args, Report& report, const Drive& drive) {
  Measurement m;
  drive(kWarmupSeconds, false, nullptr);
  if (!args.trace) {
    std::vector<OpSample> samples;
    drive(args.seconds, false, &samples);
    m.e2e = summarize(samples);
    m.rss_mb = peak_rss_mb();  // before checks and replays
    print_end_to_end("measured", m.e2e);
    report.attempted += m.e2e.attempted;
    report.failed += m.e2e.failed;
    return m;
  }
  const double slice_s = args.seconds / (2.0 * kTraceSlicePairs);
  std::vector<double> latencies[2];  // [untraced, traced]
  for (std::size_t i = 0; i < 2 * kTraceSlicePairs; ++i) {
    const bool traced = i % 2 == 1;
    std::vector<OpSample> samples;
    drive(slice_s, traced, &samples);
    const EndToEnd e = summarize(samples);
    print_end_to_end(traced ? "traced slice" : "untraced slice", e);
    report.attempted += e.attempted;
    report.failed += e.failed;
    for (const OpSample& s : samples)
      if (s.ok) latencies[traced].push_back(s.latency_ms);
  }
  m.rss_mb = peak_rss_mb();
  const double untraced = median(latencies[0]), traced = median(latencies[1]);
  m.trace_overhead_share = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  std::printf("trace overhead: latency p50 %.4f ms traced vs %.4f ms "
              "untraced over %zu alternating slices (%+.1f%%, indicative: "
              "host drift within a run is of the same order)\n",
              traced, untraced, 2 * kTraceSlicePairs,
              100.0 * m.trace_overhead_share);
  return m;
}

void check_serving(const ServeCounters& counters, Report& report) {
  std::printf("checks: %llu reply mismatches, %llu typed rejects, degrade "
              "level max %d\n",
              static_cast<unsigned long long>(counters.mismatches),
              static_cast<unsigned long long>(counters.rejected),
              counters.degrade_max);
  if (counters.mismatches) report.fail("served replies differ from direct calls");
  if (report.failed) report.fail("failed requests during the measured run");
  if (counters.degrade_max > 0) {
    report.invalid = true;
    std::printf("INVALID RUN: the degradation ladder moved (level %d)\n",
                counters.degrade_max);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
