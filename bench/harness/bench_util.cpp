#include "harness/bench_util.h"

#include <benchmark/benchmark.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/json.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "nn/kernels/kernels.h"

#ifndef NETFM_GIT_SHA
#define NETFM_GIT_SHA "unknown"
#endif

namespace netfm::bench {
namespace {

/// Every bench binary writes BENCH_<name>.json into the working directory,
/// and the source root holds the committed baselines under those names. So
/// a bench started there stops before it runs; a baseline is regenerated
/// by running in build/bench and copying the file over.
[[maybe_unused]] const bool g_outside_source_root = [] {
  std::error_code ec;
  if (std::filesystem::equivalent(std::filesystem::current_path(ec),
                                  NETFM_SOURCE_DIR, ec)) {
    std::fprintf(stderr,
                 "bench: refusing to run in the source root %s, where "
                 "BENCH_*.json would overwrite the committed baselines; "
                 "run from build/bench instead\n",
                 NETFM_SOURCE_DIR);
    std::exit(1);
  }
  return true;
}();

/// Report name for the exit-time registry dump; set once by banner().
std::string& report_name() {
  static std::string name;
  return name;
}

/// The running binary's short name (glibc) — "exp_tokenizers" — falling
/// back to a sanitized version of the banner title elsewhere.
std::string binary_name(const std::string& fallback) {
#ifdef __GLIBC__
  if (program_invocation_short_name && *program_invocation_short_name)
    return program_invocation_short_name;
#endif
  std::string out;
  for (const char c : fallback)
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(std::tolower(c))
                      : '_');
  return out;
}

/// Flattens the metrics registry into BENCH records: counters and gauges
/// one-to-one, histograms as .count/.mean/.p50/.p99.
std::vector<BenchRecord> registry_records(const std::string& bench) {
  const metrics::Snapshot snap = metrics::snapshot();
  std::vector<BenchRecord> records;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    records.push_back(
        {bench, name, static_cast<double>(value), snap.unit_of(name)});
  }
  for (const auto& [name, value] : snap.gauges)
    records.push_back({bench, name, value, snap.unit_of(name)});
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    const std::string unit = snap.unit_of(name);
    records.push_back({bench, name + ".count", static_cast<double>(h.count),
                       "count"});
    records.push_back({bench, name + ".mean", h.mean(), unit});
    records.push_back({bench, name + ".p50", h.quantile(0.50), unit});
    records.push_back({bench, name + ".p99", h.quantile(0.99), unit});
  }
  return records;
}

void write_registry_report() {
  if (report_name().empty()) return;
  write_bench_json(report_name(), registry_records(report_name()));
}

/// Units for the google-benchmark counters we know about.
std::string counter_unit(const std::string& name) {
  if (name == "bytes_per_second") return "bytes/s";
  if (name == "items_per_second") return "items/s";
  if (name == "GFLOPS") return "GFLOP/s";
  if (name == "threads") return "threads";
  return "";
}

/// Captures every finished run while still printing the console table.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<BenchRecord> records;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string bench = run.benchmark_name();
      const std::string unit = benchmark::GetTimeUnitString(run.time_unit);
      records.push_back({bench, "real_time", run.GetAdjustedRealTime(), unit});
      records.push_back({bench, "cpu_time", run.GetAdjustedCPUTime(), unit});
      records.push_back(
          {bench, "iterations", static_cast<double>(run.iterations), "count"});
      for (const auto& [name, counter] : run.counters)
        records.push_back({bench, name, counter.value, counter_unit(name)});
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

Scale Scale::from_env() {
  Scale scale;
  if (smoke_mode()) {
    // CI smoke: seconds, not minutes — just enough to exercise every path.
    scale.trace_seconds = 5.0;
    scale.pretrain_steps = 20;
    scale.finetune_epochs = 1;
    scale.max_sessions = 60;
    return scale;
  }
  if (const char* env = std::getenv("NETFM_BENCH_SCALE")) {
    const int factor = std::atoi(env);
    if (factor > 1) {
      scale.trace_seconds *= factor;
      scale.pretrain_steps *= static_cast<std::size_t>(factor);
      scale.max_sessions *= static_cast<std::size_t>(factor);
    }
  }
  return scale;
}

bool smoke_mode() {
  const char* env = std::getenv("NETFM_BENCH_SMOKE");
  return env && *env && std::string_view(env) != "0";
}

void write_bench_json(const std::string& name,
                      const std::vector<BenchRecord>& records) {
  const double threads = static_cast<double>(default_thread_count());
  json::Array rows;
  for (const BenchRecord& r : records) {
    json::Object row;
    row.emplace_back("bench", json::Value(r.bench));
    row.emplace_back("metric", json::Value(r.metric));
    row.emplace_back("value", json::Value(r.value));
    row.emplace_back("unit", json::Value(r.unit));
    row.emplace_back("threads", json::Value(threads));
    row.emplace_back("backend", json::Value(nn::kernels::active_name()));
    row.emplace_back("git_sha", json::Value(NETFM_GIT_SHA));
    rows.push_back(json::Value(std::move(row)));
  }
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  out << json::Value(std::move(rows)).dump(2) << "\n";
}

int benchmark_main(int argc, char** argv, const std::string& name) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke_mode()) args.push_back(min_time.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  std::printf("kernel backend: %s\n", nn::kernels::active_name());
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_bench_json(name, reporter.records);
  return 0;
}

gen::LabeledTrace make_trace(const gen::DeploymentProfile& profile,
                             double seconds, std::uint64_t seed,
                             double attack_fraction,
                             std::size_t max_sessions) {
  gen::TraceConfig config;
  config.profile = profile;
  config.duration_seconds = seconds;
  config.seed = seed;
  config.attack_fraction = attack_fraction;
  config.max_sessions = max_sessions;
  return gen::generate_trace(config);
}

tasks::FlowDataset make_dataset(const gen::LabeledTrace& trace,
                                tasks::TaskKind kind) {
  tok::FieldTokenizer tokenizer;
  ctx::Options options;
  return tasks::build_dataset(trace, tokenizer, options, kind);
}

tasks::FlowDataset subset(const tasks::FlowDataset& ds,
                          std::span<const std::size_t> indices) {
  tasks::FlowDataset out;
  out.label_names = ds.label_names;
  for (std::size_t i : indices) {
    out.contexts.push_back(ds.contexts[i]);
    out.labels.push_back(ds.labels[i]);
    if (!ds.targets.empty()) out.targets.push_back(ds.targets[i]);
  }
  return out;
}

std::pair<tasks::FlowDataset, tasks::FlowDataset> split(
    const tasks::FlowDataset& ds, double test_fraction, std::uint64_t seed) {
  const eval::Split s = eval::stratified_split(ds.labels, test_fraction, seed);
  return {subset(ds, s.train), subset(ds, s.test)};
}

std::vector<std::vector<std::string>> unlabeled_corpus(
    std::initializer_list<const gen::LabeledTrace*> traces,
    const tok::Tokenizer& tokenizer, const ctx::Options& options) {
  std::vector<std::vector<std::string>> corpus;
  for (const gen::LabeledTrace* trace : traces) {
    FlowTable table;
    for (const Packet& p : trace->interleaved) table.add(p);
    table.flush();
    for (const Flow& flow : table.finished()) {
      auto context = ctx::flow_context(flow, tokenizer, options);
      if (!context.empty()) corpus.push_back(std::move(context));
    }
  }
  return corpus;
}

core::NetFM pretrained_model(
    const tok::Vocabulary& vocab,
    const std::vector<std::vector<std::string>>& corpus, std::size_t steps,
    std::uint64_t seed) {
  core::NetFM model(vocab, model::TransformerConfig::tiny(vocab.size()));
  core::PretrainOptions options;
  options.steps = steps;
  options.seed = seed;
  model.pretrain(corpus, {}, options);
  return model;
}

void banner(const std::string& experiment, const std::string& claim) {
  if (report_name().empty()) {
    report_name() = binary_name(experiment);
    metrics::set_enabled(true);
    std::atexit(write_registry_report);
  }
  std::printf("\n===== %s =====\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("kernel backend: %s\n\n", nn::kernels::active_name());
  std::fflush(stdout);
}

}  // namespace netfm::bench
