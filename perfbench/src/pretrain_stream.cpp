// pretrain_stream: NetFM::pretrain(CorpusReader, ...) on the shards written
// in set-up, small model, batches of 16 x 64, MLM only. The only path
// through autograd backward, Adam and the StreamingLoader.
//
// The load is a sequence of NetFM::pretrain calls of kStepsPerCall steps
// each, continuing the same model with the batch seed advancing per call,
// so the StreamingLoader's prefetch and Adam run in steady state for most
// of every call. An op is one optimizer step: ops_per_s counts steps, and
// the latency sample of a call is its wall time over its steps, which
// spreads the per-call loader start and optimizer set-up over the steps.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "layers.h"
#include "setup.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace netfm;

namespace {

constexpr std::size_t kBatch = 16;
constexpr std::size_t kSeqLen = 64;
constexpr std::size_t kStepsPerCall = 20;
constexpr std::size_t kParitySteps = 4;

core::PretrainOptions call_options(std::uint64_t seed) {
  core::PretrainOptions options;
  options.steps = kStepsPerCall;
  options.batch_size = kBatch;
  options.max_seq_len = kSeqLen;
  options.task = core::PretrainTask::kMlmOnly;
  options.warmup_steps = 0;
  options.seed = seed;
  return options;
}

/// Runs pretrain calls for `seconds`: every call that starts before the
/// deadline is recorded, so a slice always holds at least one call.
void drive(World& world, std::uint64_t seed, double seconds, bool traced,
           std::vector<OpSample>* samples, std::uint64_t& calls,
           std::uint64_t& bad_steps) {
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  do {
    const auto t0 = Clock::now();
    core::TrainLog log;
    {
      const std::uint32_t span =
          traced ? trace::begin("core.pretrain_call", calls, trace::kRoot) : 0;
      log = world.fm->pretrain(*world.corpus, {},
                               call_options(mix_seed(seed, 0x70726574 + calls)));
      trace::end(span);
    }
    ++calls;
    const auto done = Clock::now();
    std::size_t finite = 0;
    for (const float loss : log.losses) finite += std::isfinite(loss);
    const std::size_t bad = kStepsPerCall - std::min(finite, kStepsPerCall) +
                            log.nonfinite_skipped;
    bad_steps += bad;
    if (samples)
      samples->push_back(
          {seconds_between(start, done),
           std::chrono::duration<double, std::milli>(done - t0).count() /
               static_cast<double>(kStepsPerCall),
           static_cast<std::uint32_t>(kStepsPerCall * kBatch * kSeqLen),
           static_cast<std::uint32_t>(kStepsPerCall), bad == 0});
  } while (Clock::now() < deadline);
}

/// Streamed pretraining must match in-RAM pretraining on the same
/// sequences bitwise, step for step, with no non-finite steps.
bool check_stream_parity(const World& world, std::uint64_t seed) {
  const data::CorpusReader& corpus = *world.corpus;
  std::vector<std::vector<std::string>> in_ram;
  in_ram.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    in_ram.push_back(corpus.sequence(i));
  core::PretrainOptions options = call_options(mix_seed(seed, 0x706172));
  options.steps = kParitySteps;
  options.warmup_steps = 2;
  core::NetFM streamed(world.fm->vocab(), world.fm->config());
  core::NetFM in_memory(world.fm->vocab(), world.fm->config());
  const core::TrainLog a = streamed.pretrain(corpus, {}, options);
  const core::TrainLog b = in_memory.pretrain(in_ram, {}, options);
  const bool same =
      a.losses.size() == kParitySteps && a.losses.size() == b.losses.size() &&
      std::memcmp(a.losses.data(), b.losses.data(),
                  a.losses.size() * sizeof(float)) == 0;
  std::printf("stream parity: %zu streamed vs %zu in-RAM losses, first %.9g vs "
              "%.9g, %s; non-finite skipped %zu / %zu\n",
              a.losses.size(), b.losses.size(),
              a.losses.empty() ? 0.0 : a.losses[0],
              b.losses.empty() ? 0.0 : b.losses[0],
              same ? "bitwise equal" : "DIFFERENT", a.nonfinite_skipped,
              b.nonfinite_skipped);
  return same && a.nonfinite_skipped == 0 && b.nonfinite_skipped == 0;
}

}  // namespace

void run_pretrain_stream(const Args& args, Report& report) {
  WorldSpec spec;
  spec.models = WorldSpec::Models::kPretrainSmall;
  std::vector<StageTimes> setups;
  auto world = build_world_repeated(spec, args.seed, args.workdir,
                                    kSetupRepeats, &setups);
  const StageTimes setup = median_times(setups);
  std::printf("pretrain_stream: corpus %zu sequences / %zu tokens in %zu "
              "shards (%zu bytes), vocab %zu, batch %zu x %zu\n",
              world->corpus->size(), world->corpus->tokens(),
              world->corpus->shard_count(), world->corpus_bytes,
              world->vocab().size(), kBatch, kSeqLen);

  std::uint64_t calls = 0, bad_steps = 0;
  const Measurement m = measure(
      args, report,
      [&](double seconds, bool traced, std::vector<OpSample>* samples) {
        drive(*world, args.seed, seconds, traced, samples, calls, bad_steps);
      });

  PerLayer layers;
  if (args.trace) {
    layers.trace_overhead_share = m.trace_overhead_share;
    fill_setup_layers(layers, setup, *world);

    replay_train_step(layers, *world->fm, *world->corpus,
                      call_options(mix_seed(args.seed, 0x7265706c)), 1.5);
    const auto& config = world->fm->config();
    replay_matmul(layers, kBatch * kSeqLen, config.d_model, config.d_ffn, 0.3);
    const double step_us = trace::aggregate()["core.pretrain_call"].mean_us() /
                           static_cast<double>(kStepsPerCall);
    const double replayed_us =
        trace::aggregate()["replay.train_step"].mean_us();
    std::printf("pretrain step %.1f us (traced calls over %zu steps) vs "
                "replayed step %.1f us: data.batch %.1f, forward %.1f, "
                "backward %.1f, adam %.1f us; step time outside the replayed "
                "layers %.1f%%\n",
                step_us, kStepsPerCall, replayed_us, layers.batch_us,
                layers.forward_train_ms * 1e3, layers.backward_ms * 1e3,
                layers.adam_step_ms * 1e3,
                100.0 * (1.0 - replayed_us / step_us));
  }

  const bool parity = check_stream_parity(*world, args.seed);
  std::printf("checks: %llu steps with a non-finite or missing loss, stream "
              "parity %s\n",
              static_cast<unsigned long long>(bad_steps),
              parity ? "ok" : "FAILED");
  if (bad_steps) report.fail("a pretrain step skipped a non-finite loss");
  if (!parity) report.fail("streamed loss trajectory differs from in-RAM");

  if (args.trace)
    emit_per_layer(layers, "pretrain_stream", report);
  else
    add_end_to_end(report, m.e2e, setup.total_s, m.rss_mb);
}

}  // namespace perfbench
