#include "setup.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "net/flow.h"
#include "tokenize/tokenizer.h"
#include "trace.h"
#include "trafficgen/generator.h"

namespace perfbench {

using namespace netfm;

namespace {

double elapsed_s(Clock::time_point since) {
  return seconds_between(since, Clock::now());
}

std::size_t directory_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

}  // namespace

World::~World() {
  if (server) server->stop();
  if (scheduler) scheduler->stop();
  server.reset();
  scheduler.reset();
  corpus.reset();
  if (!corpus_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(corpus_dir, ignored);
  }
}

std::unique_ptr<World> build_world(const WorldSpec& spec, std::uint64_t seed,
                                   const std::string& dir) {
  auto world = std::make_unique<World>();
  trace::Scoped setup_span("setup");
  const auto start = Clock::now();

  // Traffic is generated and tokenized chunk by chunk, as
  // data::build_corpus does, so peak memory is one chunk's trace.
  std::vector<std::vector<std::string>> contexts;
  tok::FieldTokenizer tokenizer;
  for (std::size_t chunk = 0; chunk < spec.chunks; ++chunk) {
    gen::LabeledTrace captured;
    {
      trace::Scoped span("trafficgen.generate_trace");
      const auto t0 = Clock::now();
      gen::TraceConfig config;
      config.profile = gen::DeploymentProfile::site_a();
      config.duration_seconds = spec.chunk_seconds;
      config.seed = seed * 1000 + chunk;
      config.max_sessions = spec.chunk_sessions;
      captured = gen::generate_trace(config);
      world->times.trafficgen_s += elapsed_s(t0);
    }
    trace::Scoped span("context.flow_context");
    const auto t0 = Clock::now();
    FlowTable table;
    for (const Packet& p : captured.interleaved) table.add(p);
    table.flush();
    for (const Flow& flow : table.finished()) {
      auto context = ctx::flow_context(flow, tokenizer, spec.context);
      if (!context.empty()) contexts.push_back(std::move(context));
    }
    world->times.tokenize_s += elapsed_s(t0);
  }
  if (contexts.empty()) throw std::runtime_error("set-up: empty corpus");

  std::optional<tok::Vocabulary> vocab;
  {
    trace::Scoped span("tokenize.vocab_build");
    const auto t0 = Clock::now();
    vocab = tok::Vocabulary::build(contexts);
    world->times.vocab_s = elapsed_s(t0);
  }

  world->corpus_dir = dir + "/corpus";
  {
    trace::Scoped span("data.corpus_write");
    const auto t0 = Clock::now();
    data::CorpusWriter writer(world->corpus_dir);
    for (auto& context : contexts)
      if (!writer.add(std::move(context)))
        throw std::runtime_error("set-up: corpus shard write failed");
    if (!writer.finish())
      throw std::runtime_error("set-up: corpus manifest write failed");
    world->times.corpus_write_s = elapsed_s(t0);
  }
  world->corpus_bytes = directory_bytes(world->corpus_dir);

  {
    trace::Scoped span("data.corpus_open");
    const auto t0 = Clock::now();
    world->corpus = data::CorpusReader::open(world->corpus_dir);
    world->times.open_s = elapsed_s(t0);
  }
  if (!world->corpus || world->corpus->size() == 0)
    throw std::runtime_error("set-up: CorpusReader::open failed");

  {
    trace::Scoped span("model.construct");
    const auto t0 = Clock::now();
    switch (spec.models) {
      case WorldSpec::Models::kServeTiny: {
        auto lm_config = model::TransformerConfig::tiny(vocab->size());
        lm_config.max_seq_len = 48;
        lm_config.dropout = 0.0f;
        world->lm = std::make_unique<core::TrafficLM>(*vocab, lm_config);
        auto fm_config = model::TransformerConfig::tiny(vocab->size());
        fm_config.dropout = 0.0f;
        world->fm = std::make_unique<core::NetFM>(*vocab, fm_config);
        break;
      }
      case WorldSpec::Models::kDecodeSmall: {
        auto config = model::TransformerConfig::small(vocab->size());
        config.max_seq_len = 96;
        config.dropout = 0.0f;
        world->lm = std::make_unique<core::TrafficLM>(*vocab, config);
        break;
      }
      case WorldSpec::Models::kPretrainSmall:
        world->fm = std::make_unique<core::NetFM>(
            *vocab, model::TransformerConfig::small(vocab->size()));
        break;
    }
    world->times.model_s = elapsed_s(t0);
  }

  if (spec.scheduler) {
    trace::Scoped span("serve.start");
    const auto t0 = Clock::now();
    world->scheduler = std::make_unique<serve::Scheduler>(
        *world->lm, world->fm.get(), spec.scheduler_options);
    if (spec.http) {
      world->server = std::make_unique<serve::HttpServer>(*world->scheduler);
      world->server->start();
    }
    world->times.serve_start_s = elapsed_s(t0);
  }
  world->times.total_s = elapsed_s(start);
  return world;
}

std::unique_ptr<World> build_world_repeated(const WorldSpec& spec,
                                            std::uint64_t seed,
                                            const std::string& workdir,
                                            std::size_t repeats,
                                            std::vector<StageTimes>* times) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);

  std::unique_ptr<World> world;
  for (std::size_t r = 0; r < repeats; ++r) {
    world.reset();  // tear the previous World down before timing the next
    // Every set-up but the last runs pinned to the next CPU in turn. The
    // last runs unpinned, because its World (with the threads it starts)
    // is the one the workload keeps.
    const bool pinned = r + 1 < repeats && !cpus.empty();
    if (pinned) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[r % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    world = build_world(spec, seed, workdir + "/setup" + std::to_string(r));
    if (pinned) sched_setaffinity(0, sizeof allowed, &allowed);
    times->push_back(world->times);
  }
  std::printf("set-up: %zu cold starts, total s:", repeats);
  for (const StageTimes& t : *times) std::printf(" %.4f", t.total_s);
  const StageTimes m = median_times(*times);
  std::printf("; median stages s: trafficgen %.4f tokenize %.4f vocab %.4f "
              "corpus %.4f open %.4f model %.4f serve %.4f; %zu contexts\n",
              m.trafficgen_s, m.tokenize_s, m.vocab_s, m.corpus_write_s,
              m.open_s, m.model_s, m.serve_start_s, world->corpus->size());
  return world;
}

StageTimes median_times(const std::vector<StageTimes>& times) {
  const auto pick = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& t : times) v.push_back(t.*field);
    return median(v);
  };
  StageTimes m;
  m.trafficgen_s = pick(&StageTimes::trafficgen_s);
  m.tokenize_s = pick(&StageTimes::tokenize_s);
  m.vocab_s = pick(&StageTimes::vocab_s);
  m.corpus_write_s = pick(&StageTimes::corpus_write_s);
  m.open_s = pick(&StageTimes::open_s);
  m.model_s = pick(&StageTimes::model_s);
  m.serve_start_s = pick(&StageTimes::serve_start_s);
  m.total_s = pick(&StageTimes::total_s);
  return m;
}

}  // namespace perfbench
