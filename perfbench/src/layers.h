// Per-layer metrics of the traced run. Every workload emits the full set
// in one fixed order; a layer that is not on a workload's path reports 0
// and is named in the run's "not on path" line.
//
// Timings come from spans the benchmark records around its own calls into
// each module's public functions: either around the workload's real calls
// (set-up stages, requests, steps) or around replays of a layer on the
// workload's own inputs and batch sizes after the load has stopped. The
// table in layers.cpp also states which end-to-end metric each per-layer
// metric should move, and on which workload first.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "data/corpus.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "setup.h"

namespace perfbench {

struct PerLayer {
  // serve/server + protocol
  double parse_request_us = 0, reply_to_json_us = 0, reply_bytes = 0,
         parse_http_head_us = 0, unattributed_share = 0;
  // serve/scheduler
  double requests_per_tick = 0, ticks_per_s = 0, wait_p50_ms = 0,
         queue_depth_mean = 0, rejected = 0, degrade_level_max = 0;
  // serve/session_pool + model/kv_pool
  double kv_peak_blocks = 0, kv_capacity_blocks = 0, kv_peak_bytes = 0;
  // core
  double next_logits_batch_us = 0, embed_flows_us = 0,
         score_batch_us_per_token = 0, sample_batch_us_per_token = 0;
  // model
  double advance_batch_us = 0, forward_infer_ms = 0, forward_train_ms = 0;
  // nn
  double backward_ms = 0, adam_step_ms = 0, matmul_gflops = 0,
         matmul_flops = 0, matmul_bytes = 0;
  // data
  double open_s = 0, batch_us = 0, stall_share = 0, corpus_bytes = 0;
  // set-up stages
  double trafficgen_s = 0, tokenize_s = 0, vocab_s = 0, corpus_write_s = 0,
         model_s = 0, serve_start_s = 0;
  // traced vs untraced latency p50, alternating slices
  double trace_overhead_share = 0;
};

/// Adds every per-layer metric to the report (fixed order) and prints the
/// metric -> end-to-end mapping plus the metrics left at 0 because their
/// layer is not on `workload`'s path.
void emit_per_layer(const PerLayer& layers, const std::string& workload,
                    Report& report);

/// Fills the set-up stage and data.open/corpus figures from set-up times.
void fill_setup_layers(PerLayer& layers, const StageTimes& median,
                       const World& world);

/// Scheduler ticks and replies over a workload's untraced measured drives,
/// for serve.scheduler.requests_per_tick and ticks_per_s.
struct TickMeter {
  std::uint64_t ticks = 0;
  std::uint64_t replies = 0;
  double seconds = 0.0;
};

/// Wraps `drive` so its untraced measured drives add to `meter`.
Drive metered(Drive drive, const netfm::serve::Scheduler& scheduler,
              const ServeCounters& counters, TickMeter& meter);

/// requests_per_tick and ticks_per_s from a TickMeter.
void fill_tick_layers(PerLayer& layers, const TickMeter& meter);

/// Fills the KV block pool figures from a scheduler's session pool.
void fill_kv_layers(PerLayer& layers, netfm::serve::Scheduler& scheduler);

/// GEMM at one of the model's shapes: [rows x k] * [k x n].
void replay_matmul(PerLayer& layers, std::size_t rows, std::size_t k,
                   std::size_t n, double budget_s);

/// Batched core calls on the workload's inputs, `group` requests a call.
void replay_next_logits(PerLayer& layers, const netfm::core::TrafficLM& lm,
                        std::span<const std::vector<int>> ids,
                        std::size_t group, double budget_s);
void replay_embed(PerLayer& layers, const netfm::core::NetFM& fm,
                  std::span<const std::vector<std::string>> contexts,
                  std::size_t window, std::size_t group, double budget_s);
void replay_score(PerLayer& layers, const netfm::core::TrafficLM& lm,
                  std::size_t max_seq_len,
                  std::span<const std::vector<std::string>> sequences,
                  std::size_t group, double budget_s);
void replay_sample(PerLayer& layers, const netfm::core::TrafficLM& lm,
                   const netfm::core::SampleOptions& options,
                   std::span<const std::uint64_t> seeds, std::size_t group,
                   double budget_s);
/// One lockstep decode step across 32 sessions (LmDecoder::advance_batch).
void replay_advance_batch(PerLayer& layers, const netfm::core::TrafficLM& lm,
                          std::span<const std::vector<std::string>> sequences,
                          double budget_s);
/// No-grad encoder forward over a padded batch of contexts.
void replay_forward_infer(PerLayer& layers, const netfm::core::NetFM& fm,
                          std::span<const std::vector<std::string>> contexts,
                          std::size_t window, double budget_s);
/// The MLM training step split by layer — loader batch, forward, backward,
/// optimizer — on a fresh encoder of the same config, fed by a
/// StreamingLoader over the workload's corpus.
void replay_train_step(PerLayer& layers, const netfm::core::NetFM& fm,
                       const netfm::data::CorpusReader& corpus,
                       const netfm::core::PretrainOptions& options,
                       double budget_s);

/// Protocol codec replays on the workload's request bodies and replies:
/// head parse, body parse, reply encode and response framing, in the order
/// an io thread runs them.
struct WireSample {
  std::string head;    // request head (start line + headers)
  std::string target;  // "/v1/<op>"
  std::string body;    // request JSON
  netfm::serve::Reply reply;
  netfm::serve::Op op = netfm::serve::Op::kScore;
};
void replay_protocol(PerLayer& layers, std::span<const WireSample> samples,
                     double budget_s);

}  // namespace perfbench
