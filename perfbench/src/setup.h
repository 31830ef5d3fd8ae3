// The benchmark's cold start: every workload's set-up builds a fresh World
// through the same stages, each timed and traced —
//
//   trafficgen  gen::generate_trace from the run's seed
//   tokenize    FlowTable + ctx::flow_context per finished flow
//   vocab       tok::Vocabulary::build over the contexts
//   corpus      data::CorpusWriter shards + manifest on disk
//   open        data::CorpusReader::open (maps + CRC-validates shards)
//   model       the workload's TrafficLM / NetFM construction
//   serve       Scheduler (and HttpServer::start) for serving workloads
//
// setup_s is the wall time of all stages. The set-up work is one thread,
// and on a shared host the vCPUs run it at speeds up to 1.6x apart that
// change from minute to minute, so one set-up measures mostly which vCPU
// it landed on. The run therefore repeats set-up, pinning each repeat but
// the last to the next CPU in turn, and reports the median.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "context/context.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "data/corpus.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace perfbench {

struct WorldSpec {
  /// Traffic is generated in `chunks` traces of this shape, seeded from
  /// the run's seed.
  std::size_t chunks = 10;
  double chunk_seconds = 30.0;
  std::size_t chunk_sessions = 360;
  netfm::ctx::Options context;
  enum class Models { kServeTiny, kDecodeSmall, kPretrainSmall };
  Models models = Models::kServeTiny;
  bool scheduler = false;
  bool http = false;
  netfm::serve::SchedulerOptions scheduler_options;
};

struct StageTimes {
  double trafficgen_s = 0.0;
  double tokenize_s = 0.0;
  double vocab_s = 0.0;
  double corpus_write_s = 0.0;
  double open_s = 0.0;
  double model_s = 0.0;
  double serve_start_s = 0.0;
  double total_s = 0.0;
};

/// Declaration order is teardown order reversed: the server stops before
/// the scheduler, the scheduler before the models it serves.
struct World {
  std::string corpus_dir;
  std::size_t corpus_bytes = 0;
  std::optional<netfm::data::CorpusReader> corpus;
  std::unique_ptr<netfm::core::TrafficLM> lm;
  std::unique_ptr<netfm::core::NetFM> fm;
  std::unique_ptr<netfm::serve::Scheduler> scheduler;
  std::unique_ptr<netfm::serve::HttpServer> server;
  StageTimes times;

  const netfm::tok::Vocabulary& vocab() const {
    return lm ? lm->vocab() : fm->vocab();
  }
  ~World();
};

/// Builds one World under `dir` (created; corpus shards land inside).
/// Throws std::runtime_error when a stage fails.
std::unique_ptr<World> build_world(const WorldSpec& spec, std::uint64_t seed,
                                   const std::string& dir);

/// Runs build_world `repeats` times (tearing each down before the next),
/// the first `repeats - 1` pinned to the allowed CPUs in turn, keeps the
/// last World, and reports every set-up's times.
std::unique_ptr<World> build_world_repeated(const WorldSpec& spec,
                                            std::uint64_t seed,
                                            const std::string& workdir,
                                            std::size_t repeats,
                                            std::vector<StageTimes>* times);

/// Median of each stage over several set-ups.
StageTimes median_times(const std::vector<StageTimes>& times);

}  // namespace perfbench
