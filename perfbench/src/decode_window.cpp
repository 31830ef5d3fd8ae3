// decode_window: in-process Scheduler::submit from one thread, keeping 256
// requests outstanding — a closed loop of 256 virtual clients with no extra
// threads or sockets. Half are seeded generate requests (max_tokens 46),
// half score requests on 48-80-token contexts, against the small TrafficLM
// (max_seq_len 96, max_batch 32). Batched decode, the paged KV cache,
// attention and GEMM do nearly all the work; HTTP and JSON do none.
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <stdexcept>

#include "layers.h"
#include "setup.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace netfm;

namespace {

constexpr std::size_t kClients = 256;
constexpr std::size_t kScoreContexts = 32;
constexpr std::size_t kGenerateSeeds = 16;
constexpr std::size_t kMaxSeqLen = 96;
constexpr std::size_t kMinContext = 48;
constexpr std::size_t kMaxContext = 80;

core::SampleOptions sample_options() {
  core::SampleOptions options;
  options.max_tokens = 46;
  return options;
}

struct Inputs {
  std::vector<std::vector<std::string>> contexts;  // score inputs
  std::vector<double> scores;                      // direct answers
  std::vector<std::uint64_t> seeds;                // generate inputs
  std::vector<std::vector<std::string>> samples;   // direct answers
};

Inputs make_inputs(const World& world, std::uint64_t seed) {
  const auto& corpus = *world.corpus;
  Rng rng(mix_seed(seed, 0x6465636f));
  Inputs in;
  std::vector<std::size_t> long_ones;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    if (corpus.sequence(i).size() >= kMinContext) long_ones.push_back(i);
  if (long_ones.empty())
    throw std::runtime_error("decode_window: no 48-token contexts in corpus");
  while (in.contexts.size() < kScoreContexts) {
    auto context = corpus.sequence(long_ones[rng.uniform(long_ones.size())]);
    const std::size_t cap = std::min(context.size(), kMaxContext);
    context.resize(kMinContext + rng.uniform(cap - kMinContext + 1));
    in.contexts.push_back(std::move(context));
  }
  for (std::size_t i = 0; i < kGenerateSeeds; ++i)
    in.seeds.push_back(mix_seed(seed, 1000 + i));
  // Direct answers, computed while the scheduler is idle.
  for (const auto& c : in.contexts) in.scores.push_back(world.lm->score(c));
  for (const std::uint64_t s : in.seeds) {
    Rng draw(s);
    in.samples.push_back(world.lm->sample(sample_options(), draw));
  }
  return in;
}

struct Outstanding {
  std::future<serve::Reply> reply;
  Clock::time_point submitted;
  std::size_t client = 0;
  std::size_t input = 0;
  serve::Op op = serve::Op::kScore;
  std::uint32_t span = 0;
};

/// Runs the closed window for `seconds`. Requests still outstanding at the
/// deadline are drained and checked but not recorded.
void drive(World& world, const Inputs& in, std::uint64_t seed, double seconds,
           bool traced, std::vector<OpSample>* samples, ServeCounters& counters,
           std::uint64_t& issued) {
  serve::Scheduler& scheduler = *world.scheduler;
  Rng rng(mix_seed(seed, 0x77696e64 + issued));
  std::deque<Outstanding> window;
  const auto submit = [&](std::size_t client) {
    Outstanding o;
    o.client = client;
    o.op = issued % 2 == 0 ? serve::Op::kGenerate : serve::Op::kScore;
    serve::Request request;
    request.op = o.op;
    request.session = client;
    if (o.op == serve::Op::kGenerate) {
      o.input = rng.uniform(in.seeds.size());
      request.sampling = sample_options();
      request.seed = in.seeds[o.input];
    } else {
      o.input = rng.uniform(in.contexts.size());
      request.tokens = in.contexts[o.input];
    }
    ++issued;
    o.span = traced ? trace::begin("decode.request", issued, trace::kRoot) : 0;
    const std::uint32_t submit_span =
        traced ? trace::begin("serve.scheduler.submit", issued, o.span) : 0;
    o.submitted = Clock::now();
    o.reply = scheduler.submit(std::move(request));
    trace::end(submit_span);
    window.push_back(std::move(o));
  };

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < kClients; ++c) submit(c);
  while (!window.empty()) {
    if (traced) {
      counters.queue_depth_sum += static_cast<double>(scheduler.queued());
      ++counters.queue_depth_samples;
    }
    // FIFO admission, and a tick answers its requests together, so the
    // oldest request is always the next to complete.
    Outstanding o = std::move(window.front());
    window.pop_front();
    if (o.reply.wait_for(std::chrono::seconds(30)) != std::future_status::ready)
      throw std::runtime_error("decode_window: a request never completed");
    const serve::Reply reply = o.reply.get();
    const auto done = Clock::now();
    trace::end(o.span);
    ++counters.replies;
    counters.degrade_max = std::max(counters.degrade_max, scheduler.degrade_level());

    const bool ok = reply.status == serve::Reply::Status::kOk;
    if (reply.status == serve::Reply::Status::kRejected) ++counters.rejected;
    std::uint32_t tokens = 0;
    if (ok && o.op == serve::Op::kScore) {
      if (std::memcmp(&reply.score, &in.scores[o.input], sizeof(double)) != 0)
        ++counters.mismatches;
      tokens = static_cast<std::uint32_t>(
          std::min(in.contexts[o.input].size() + 2, kMaxSeqLen) - 1);
    } else if (ok) {
      if (reply.tokens != in.samples[o.input]) ++counters.mismatches;
      tokens = static_cast<std::uint32_t>(1 + reply.tokens.size());
    }
    if (samples && done <= deadline)
      samples->push_back(
          {seconds_between(start, done),
           std::chrono::duration<double, std::milli>(done - o.submitted).count(),
           tokens, ok});
    if (done < deadline) submit(o.client);
  }
}

}  // namespace

void run_decode_window(const Args& args, Report& report) {
  WorldSpec spec;
  spec.context.max_tokens = kMaxContext;
  spec.context.max_packets_per_flow = 16;
  spec.models = WorldSpec::Models::kDecodeSmall;
  spec.scheduler = true;
  spec.scheduler_options.max_batch = 32;
  spec.scheduler_options.session_capacity = kClients;
  std::vector<StageTimes> setups;
  auto world = build_world_repeated(spec, args.seed, args.workdir,
                                    kSetupRepeats, &setups);
  const StageTimes setup = median_times(setups);

  const Inputs in = make_inputs(*world, args.seed);
  std::printf("decode_window: %zu clients, %zu score contexts, %zu generate "
              "seeds, vocab %zu\n",
              kClients, in.contexts.size(), in.seeds.size(),
              world->vocab().size());

  ServeCounters counters;
  TickMeter meter;
  std::uint64_t issued = 0;
  const Measurement m = measure(
      args, report,
      metered(
          [&](double seconds, bool traced, std::vector<OpSample>* samples) {
            drive(*world, in, args.seed, seconds, traced, samples, counters,
                  issued);
          },
          *world->scheduler, counters, meter));

  PerLayer layers;
  if (args.trace) {
    layers.trace_overhead_share = m.trace_overhead_share;
    fill_tick_layers(layers, meter);
    layers.wait_p50_ms = median(trace::durations_us("decode.request")) / 1e3;
    layers.queue_depth_mean = counters.queue_depth_mean();
    fill_kv_layers(layers, *world->scheduler);
    fill_setup_layers(layers, setup, *world);

    // Replays on this workload's inputs at its batch shape: a tick of 32
    // splits into score and generate groups of about 16 each.
    const std::size_t group = 16;
    replay_score(layers, *world->lm, kMaxSeqLen, in.contexts, group, 0.5);
    replay_sample(layers, *world->lm, sample_options(), in.seeds, group, 0.5);
    replay_advance_batch(layers, *world->lm, in.contexts, 0.5);
    const auto config = model::TransformerConfig::small(world->vocab().size());
    replay_matmul(layers, 32, config.d_model, config.d_ffn, 0.3);
  }
  layers.rejected = static_cast<double>(counters.rejected);
  layers.degrade_level_max = counters.degrade_max;
  check_serving(counters, report);

  if (args.trace)
    emit_per_layer(layers, "decode_window", report);
  else
    add_end_to_end(report, m.e2e, setup.total_s, m.rss_mb);
}

}  // namespace perfbench
