// netfm_perf: the benchmark binary. run.py builds it and runs
//
//   netfm_perf --workload <http_mixed|decode_window|pretrain_stream>
//              --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir> [--spans <file>] [--stamp <text>]
//
// It prints progress and checks on stdout and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, and the
// spans behind them are written to --spans. Exit code 0 only when every
// check passed and the run is valid.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/threadpool.h"
#include "nn/kernels/kernels.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "netfm_perf: %s\nusage: netfm_perf --workload "
               "<http_mixed|decode_window|pretrain_stream> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--spans <file>] "
               "[--stamp <text>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string spans_path, stamp;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value);
    else if (key == "--trace") args.trace = std::strcmp(value, "1") == 0;
    else if (key == "--workdir") args.workdir = value;
    else if (key == "--spans") spans_path = value;
    else if (key == "--stamp") stamp = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "http_mixed") run = run_http_mixed;
  if (args.workload == "decode_window") run = run_decode_window;
  if (args.workload == "pretrain_stream") run = run_pretrain_stream;
  if (run == nullptr) return usage("unknown --workload");

  const char* threads_env = std::getenv("NETFM_THREADS");
  std::printf("stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "backend=%s NETFM_THREADS=%s pool_threads=%zu %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              netfm::nn::kernels::active_name(),
              threads_env ? threads_env : "unset",
              netfm::ThreadPool::global().threads(), stamp.c_str());

  // Traced runs record from the start, so set-up stages have spans too;
  // the load loops open request spans only in their traced slices.
  trace::set_enabled(args.trace);
  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::printf("netfm_perf: run aborted: %s\n", e.what());
    return 1;
  }
  if (args.trace && !spans_path.empty()) {
    if (trace::write_jsonl(spans_path))
      std::printf("spans: %zu written to %s\n", trace::span_count(),
                  spans_path.c_str());
    else
      report.fail("cannot write spans to " + spans_path);
  }
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct && !report.invalid ? 0 : 1;
}
