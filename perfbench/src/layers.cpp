#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/data.h"
#include "data/loader.h"
#include "model/heads.h"
#include "nn/optim.h"
#include "trace.h"

namespace perfbench {

using namespace netfm;

namespace {

constexpr const char* kHttp = "http_mixed";
constexpr const char* kDecode = "decode_window";
constexpr const char* kPretrain = "pretrain_stream";

struct LayerMetric {
  const char* name;
  const char* unit;
  double PerLayer::*field;
  const char* moves;        // end-to-end metric(s) it should move
  const char* first_on;     // workload where it should show first
  const char* measured_on;  // space-separated workloads whose path has it
};

// The one table behind BENCHMARK.json's per_layer list and the README's
// layer -> end-to-end table.
const LayerMetric kLayerMetrics[] = {
    {"serve.protocol.parse_request_us", "us", &PerLayer::parse_request_us,
     "latency_p50_ms ops_per_s", kHttp, kHttp},
    {"serve.protocol.reply_to_json_us", "us", &PerLayer::reply_to_json_us,
     "latency_p50_ms ops_per_s", kHttp, kHttp},
    {"serve.protocol.reply_bytes", "bytes", &PerLayer::reply_bytes,
     "latency_p50_ms ops_per_s", kHttp, kHttp},
    {"serve.protocol.parse_http_head_us", "us", &PerLayer::parse_http_head_us,
     "latency_p50_ms ops_per_s", kHttp, kHttp},
    {"serve.unattributed_share", "share", &PerLayer::unattributed_share,
     "latency_p50_ms ops_per_s", kHttp, kHttp},
    {"serve.scheduler.requests_per_tick", "count",
     &PerLayer::requests_per_tick, "tokens_per_s latency_p90_ms", kDecode,
     "http_mixed decode_window"},
    {"serve.scheduler.ticks_per_s", "1/s", &PerLayer::ticks_per_s,
     "tokens_per_s latency_p90_ms", kDecode, "http_mixed decode_window"},
    {"serve.scheduler.wait_p50_ms", "ms", &PerLayer::wait_p50_ms,
     "tokens_per_s latency_p90_ms", kDecode, kDecode},
    {"serve.scheduler.queue_depth_mean", "count", &PerLayer::queue_depth_mean,
     "tokens_per_s latency_p90_ms", kDecode, "http_mixed decode_window"},
    {"serve.scheduler.rejected", "count", &PerLayer::rejected,
     "tokens_per_s latency_p90_ms", kDecode, "http_mixed decode_window"},
    {"serve.scheduler.degrade_level_max", "level",
     &PerLayer::degrade_level_max, "tokens_per_s latency_p90_ms", kDecode,
     "http_mixed decode_window"},
    {"model.kv.peak_blocks", "count", &PerLayer::kv_peak_blocks, "peak_rss_mb",
     kDecode, "http_mixed decode_window"},
    {"model.kv.capacity_blocks", "count", &PerLayer::kv_capacity_blocks,
     "peak_rss_mb", kDecode, "http_mixed decode_window"},
    {"model.kv.peak_bytes", "bytes", &PerLayer::kv_peak_bytes, "peak_rss_mb",
     kDecode, "http_mixed decode_window"},
    {"core.next_logits_batch_us", "us", &PerLayer::next_logits_batch_us,
     "latency_p50_ms", kHttp, kHttp},
    {"core.embed_flows_us", "us", &PerLayer::embed_flows_us, "latency_p50_ms",
     kHttp, kHttp},
    {"core.score_batch_us_per_token", "us", &PerLayer::score_batch_us_per_token,
     "tokens_per_s latency_p50_ms", kDecode, "http_mixed decode_window"},
    {"core.sample_batch_us_per_token", "us",
     &PerLayer::sample_batch_us_per_token, "tokens_per_s", kDecode, kDecode},
    {"model.advance_batch_us", "us", &PerLayer::advance_batch_us,
     "tokens_per_s", kDecode, "http_mixed decode_window"},
    {"model.forward_infer_ms", "ms", &PerLayer::forward_infer_ms,
     "latency_p50_ms", kHttp, kHttp},
    {"model.forward_train_ms", "ms", &PerLayer::forward_train_ms,
     "tokens_per_s latency_p50_ms", kPretrain, kPretrain},
    {"nn.backward_ms", "ms", &PerLayer::backward_ms,
     "tokens_per_s latency_p50_ms", kPretrain, kPretrain},
    {"nn.adam_step_ms", "ms", &PerLayer::adam_step_ms,
     "tokens_per_s latency_p50_ms", kPretrain, kPretrain},
    {"nn.matmul_gflops", "GFLOP/s", &PerLayer::matmul_gflops,
     "tokens_per_s latency_p50_ms", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"nn.matmul_flops_computed", "count", &PerLayer::matmul_flops,
     "tokens_per_s", kPretrain, "http_mixed decode_window pretrain_stream"},
    {"nn.matmul_bytes_computed", "bytes", &PerLayer::matmul_bytes,
     "tokens_per_s", kPretrain, "http_mixed decode_window pretrain_stream"},
    {"data.open_s", "s", &PerLayer::open_s, "setup_s", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"data.batch_us", "us", &PerLayer::batch_us, "latency_p50_ms", kPretrain,
     kPretrain},
    {"data.stall_share", "share", &PerLayer::stall_share, "latency_p50_ms",
     kPretrain, kPretrain},
    {"data.corpus_bytes", "bytes", &PerLayer::corpus_bytes, "setup_s",
     kPretrain, "http_mixed decode_window pretrain_stream"},
    {"setup.trafficgen_s", "s", &PerLayer::trafficgen_s, "setup_s", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"setup.tokenize_s", "s", &PerLayer::tokenize_s, "setup_s", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"setup.vocab_s", "s", &PerLayer::vocab_s, "setup_s", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"setup.corpus_write_s", "s", &PerLayer::corpus_write_s, "setup_s",
     kPretrain, "http_mixed decode_window pretrain_stream"},
    {"setup.model_s", "s", &PerLayer::model_s, "setup_s", kPretrain,
     "http_mixed decode_window pretrain_stream"},
    {"setup.serve_start_s", "s", &PerLayer::serve_start_s, "setup_s", kHttp,
     "http_mixed decode_window"},
    {"trace.overhead_share", "share", &PerLayer::trace_overhead_share,
     "latency_p50_ms", kHttp, "http_mixed decode_window pretrain_stream"},
};

bool measured_on(const LayerMetric& m, const std::string& workload) {
  const std::string list = std::string(" ") + m.measured_on + " ";
  return list.find(" " + workload + " ") != std::string::npos;
}

/// Calls f(i) for i = 0, 1, ... until `budget_s` has passed and at least
/// `min_calls` calls were made.
template <typename F>
void repeat_for(double budget_s, std::size_t min_calls, F&& f) {
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_calls && seconds_between(start, Clock::now()) >= budget_s)
      return;
    f(i);
  }
}

double mean_us(const char* span) {
  const auto d = trace::durations_us(span);
  double total = 0.0;
  for (const double v : d) total += v;
  return d.empty() ? 0.0 : total / static_cast<double>(d.size());
}

double total_us(const char* span) {
  double total = 0.0;
  for (const double v : trace::durations_us(span)) total += v;
  return total;
}

/// Scored positions: score feeds [CLS] tokens [SEP] truncated to the
/// context window, and predicts every position after the first.
std::size_t score_positions(std::size_t tokens, std::size_t max_seq_len) {
  return std::min(tokens + 2, max_seq_len) - 1;
}

}  // namespace

void emit_per_layer(const PerLayer& layers, const std::string& workload,
                    Report& report) {
  std::string off_path;
  std::printf("per-layer metric -> end-to-end metric it should move (on):\n");
  for (const LayerMetric& m : kLayerMetrics) {
    const bool on = measured_on(m, workload);
    const double value = on ? layers.*m.field : 0.0;
    report.add(m.name, value, m.unit);
    std::printf("  %-36s %14.6g %-8s -> %s (%s)%s\n", m.name, value, m.unit,
                m.moves, m.first_on, on ? "" : " [not on this path]");
    if (!on) off_path += std::string(off_path.empty() ? "" : " ") + m.name;
  }
  std::printf("not on %s's path (reported as 0): %s\n", workload.c_str(),
              off_path.empty() ? "none" : off_path.c_str());
}

void fill_setup_layers(PerLayer& layers, const StageTimes& median,
                       const World& world) {
  layers.trafficgen_s = median.trafficgen_s;
  layers.tokenize_s = median.tokenize_s;
  layers.vocab_s = median.vocab_s;
  layers.corpus_write_s = median.corpus_write_s;
  layers.model_s = median.model_s;
  layers.serve_start_s = median.serve_start_s;
  layers.open_s = median.open_s;
  layers.corpus_bytes = static_cast<double>(world.corpus_bytes);
}

Drive metered(Drive drive, const netfm::serve::Scheduler& scheduler,
              const ServeCounters& counters, TickMeter& meter) {
  return [drive = std::move(drive), &scheduler, &counters, &meter](
             double seconds, bool traced, std::vector<OpSample>* samples) {
    const auto start = Clock::now();
    const std::uint64_t ticks = scheduler.ticks();
    const std::uint64_t replies = counters.replies;
    drive(seconds, traced, samples);
    if (samples == nullptr || traced) return;
    meter.ticks += scheduler.ticks() - ticks;
    meter.replies += counters.replies - replies;
    meter.seconds += seconds_between(start, Clock::now());
  };
}

void fill_tick_layers(PerLayer& layers, const TickMeter& meter) {
  const double ticks = static_cast<double>(meter.ticks);
  layers.ticks_per_s = meter.seconds > 0.0 ? ticks / meter.seconds : 0.0;
  layers.requests_per_tick =
      static_cast<double>(meter.replies) / std::max(1.0, ticks);
}

void fill_kv_layers(PerLayer& layers, serve::Scheduler& scheduler) {
  const auto& kv = scheduler.sessions().kv_pool();
  if (!kv) return;
  layers.kv_peak_blocks = static_cast<double>(kv->peak_blocks_in_use());
  layers.kv_capacity_blocks = static_cast<double>(kv->capacity_blocks());
  layers.kv_peak_bytes = layers.kv_peak_blocks *
                         static_cast<double>(kv->bytes_per_block());
}

void replay_matmul(PerLayer& layers, std::size_t rows, std::size_t k,
                   std::size_t n, double budget_s) {
  Rng rng(17);
  const nn::Tensor a = nn::Tensor::randn({rows, k}, rng, 1.0f, false);
  const nn::Tensor b = nn::Tensor::randn({k, n}, rng, 1.0f, false);
  nn::InferenceGuard no_grad;
  trace::Scoped replay("replay.nn");
  repeat_for(budget_s, 8, [&](std::size_t) {
    trace::Scoped span("nn.matmul");
    const nn::Tensor c = nn::matmul(a, b);
  });
  const double flops = 2.0 * rows * k * n;
  layers.matmul_flops = flops;
  layers.matmul_bytes = 4.0 * (rows * k + k * n + rows * n);
  layers.matmul_gflops = flops / (mean_us("nn.matmul") * 1e3);
}

void replay_next_logits(PerLayer& layers, const core::TrafficLM& lm,
                        std::span<const std::vector<int>> ids,
                        std::size_t group, double budget_s) {
  trace::Scoped replay("replay.core");
  repeat_for(budget_s, 8, [&](std::size_t i) {
    std::vector<std::vector<int>> batch;
    for (std::size_t g = 0; g < group; ++g)
      batch.push_back(ids[(i * group + g) % ids.size()]);
    trace::Scoped span("core.next_logits_batch");
    lm.next_logits_batch(batch);
  });
  layers.next_logits_batch_us = mean_us("core.next_logits_batch");
}

void replay_embed(PerLayer& layers, const core::NetFM& fm,
                  std::span<const std::vector<std::string>> contexts,
                  std::size_t window, std::size_t group, double budget_s) {
  trace::Scoped replay("replay.core");
  repeat_for(budget_s, 8, [&](std::size_t i) {
    std::vector<std::vector<std::string>> batch;
    for (std::size_t g = 0; g < group; ++g)
      batch.push_back(contexts[(i * group + g) % contexts.size()]);
    trace::Scoped span("core.embed_flows");
    fm.embed_flows(batch, window);
  });
  layers.embed_flows_us = mean_us("core.embed_flows");
}

namespace {

std::vector<core::LmDecoder*> make_decoders(
    const core::TrafficLM& lm, std::size_t count,
    std::vector<std::unique_ptr<core::LmDecoder>>& owned) {
  auto pool = lm.make_kv_pool(count * lm.kv_blocks_per_sequence());
  std::vector<core::LmDecoder*> decoders;
  for (std::size_t g = 0; g < count; ++g) {
    owned.push_back(std::make_unique<core::LmDecoder>(lm, pool));
    decoders.push_back(owned.back().get());
  }
  return decoders;
}

}  // namespace

void replay_score(PerLayer& layers, const core::TrafficLM& lm,
                  std::size_t max_seq_len,
                  std::span<const std::vector<std::string>> sequences,
                  std::size_t group, double budget_s) {
  std::vector<std::unique_ptr<core::LmDecoder>> owned;
  const auto decoders = make_decoders(lm, group, owned);
  std::size_t positions = 0;
  trace::Scoped replay("replay.core");
  repeat_for(budget_s, 4, [&](std::size_t i) {
    std::vector<std::vector<std::string>> batch;
    for (std::size_t g = 0; g < group; ++g) {
      batch.push_back(sequences[(i * group + g) % sequences.size()]);
      positions += score_positions(batch.back().size(), max_seq_len);
    }
    trace::Scoped span("core.score_batch");
    lm.score_batch(batch, decoders);
  });
  layers.score_batch_us_per_token =
      total_us("core.score_batch") /
      static_cast<double>(std::max<std::size_t>(1, positions));
}

void replay_sample(PerLayer& layers, const core::TrafficLM& lm,
                   const core::SampleOptions& options,
                   std::span<const std::uint64_t> seeds, std::size_t group,
                   double budget_s) {
  std::vector<std::unique_ptr<core::LmDecoder>> owned;
  const auto decoders = make_decoders(lm, group, owned);
  const std::vector<core::SampleOptions> per_stream(group, options);
  std::size_t positions = 0;
  trace::Scoped replay("replay.core");
  repeat_for(budget_s, 4, [&](std::size_t i) {
    std::vector<Rng> rngs;
    rngs.reserve(group);
    std::vector<Rng*> rng_ptrs;
    for (std::size_t g = 0; g < group; ++g) {
      rngs.emplace_back(seeds[(i * group + g) % seeds.size()]);
      rng_ptrs.push_back(&rngs.back());
    }
    std::vector<std::vector<std::string>> out;
    {
      trace::Scoped span("core.sample_batch");
      out = lm.sample_batch(per_stream, rng_ptrs, decoders);
    }
    for (const auto& tokens : out) positions += 1 + tokens.size();
  });
  layers.sample_batch_us_per_token =
      total_us("core.sample_batch") /
      static_cast<double>(std::max<std::size_t>(1, positions));
}

void replay_advance_batch(PerLayer& layers, const core::TrafficLM& lm,
                          std::span<const std::vector<std::string>> sequences,
                          double budget_s) {
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kSteps = 16;  // positions decoded per sequence
  std::vector<std::unique_ptr<core::LmDecoder>> owned;
  const auto decoders = make_decoders(lm, kBatch, owned);
  trace::Scoped replay("replay.model");
  repeat_for(budget_s, 2, [&](std::size_t i) {
    for (core::LmDecoder* d : decoders) d->reset();
    for (std::size_t t = 0; t < kSteps; ++t) {
      std::vector<int> ids(kBatch);
      for (std::size_t b = 0; b < kBatch; ++b) {
        const auto& seq = sequences[(i * kBatch + b) % sequences.size()];
        ids[b] = t == 0 ? tok::Vocabulary::kCls
                        : lm.vocab().id(seq[(t - 1) % seq.size()]);
      }
      trace::Scoped span("model.advance_batch");
      core::LmDecoder::advance_batch(decoders, ids);
    }
  });
  layers.advance_batch_us = mean_us("model.advance_batch");
}

namespace {

model::Batch encode_batch(std::span<const std::vector<std::string>> contexts,
                          const tok::Vocabulary& vocab, std::size_t window) {
  std::vector<core::Encoded> encoded;
  for (const auto& c : contexts)
    encoded.push_back(core::encode_context(c, vocab, window));
  return core::make_batch(encoded);
}

}  // namespace

void replay_forward_infer(PerLayer& layers, const core::NetFM& fm,
                          std::span<const std::vector<std::string>> contexts,
                          std::size_t window, double budget_s) {
  const model::Batch batch = encode_batch(contexts, fm.vocab(), window);
  nn::InferenceGuard no_grad;
  trace::Scoped replay("replay.model");
  repeat_for(budget_s, 4, [&](std::size_t) {
    trace::Scoped span("model.forward_infer");
    fm.encoder().forward(batch, /*train=*/false);
  });
  layers.forward_infer_ms = mean_us("model.forward_infer") / 1e3;
}

void replay_train_step(PerLayer& layers, const core::NetFM& fm,
                       const data::CorpusReader& corpus,
                       const core::PretrainOptions& options,
                       double budget_s) {
  model::TransformerConfig config = fm.config();
  Rng init(options.seed);
  model::TransformerEncoder encoder(config);
  model::MlmHead head(config, encoder.token_embeddings(), init);
  nn::ParameterList params = encoder.parameters();
  head.collect(params);
  nn::Adam adam(options.peak_lr, 0.9f, 0.999f, 1e-8f, 0.01f);
  const std::size_t window = std::min(options.max_seq_len, config.max_seq_len);

  data::StreamingLoader::Options loader_options;
  loader_options.seed = options.seed;
  loader_options.batch_size = options.batch_size;
  data::StreamingLoader loader(corpus, loader_options);
  trace::Scoped replay("replay.train");
  repeat_for(budget_s, 4, [&](std::size_t step) {
    trace::Scoped step_span("replay.train_step");
    std::vector<std::vector<std::string>> rows;
    {
      trace::Scoped span("data.batch");
      rows = loader.batch(step);
    }
    model::Batch batch;
    std::vector<int> targets;
    {
      trace::Scoped span("core.encode_mask");
      Rng rng = data::step_rng(options.seed, step);
      std::vector<core::Encoded> encoded;
      for (const auto& row : rows) {
        encoded.push_back(core::encode_context(row, fm.vocab(), window));
        const auto t =
            core::apply_mlm_mask(encoded.back().ids, fm.vocab(), rng,
                                 options.mask_prob);
        targets.insert(targets.end(), t.begin(), t.end());
      }
      batch = core::make_batch(encoded);
    }
    nn::Tensor loss;
    {
      trace::Scoped span("model.forward_train");
      const nn::Tensor hidden = encoder.forward(batch, /*train=*/true);
      loss = nn::cross_entropy(head.forward(hidden), targets);
      loss.item();
    }
    {
      trace::Scoped span("nn.backward");
      nn::zero_grad(params);
      loss.backward();
    }
    {
      trace::Scoped span("nn.adam_step");
      nn::clip_grad_norm(params, 1.0f);
      adam.step(params);
    }
  });
  layers.batch_us = mean_us("data.batch");
  layers.stall_share = total_us("data.batch") /
                       std::max(1e-9, total_us("replay.train_step"));
  layers.forward_train_ms = mean_us("model.forward_train") / 1e3;
  layers.backward_ms = mean_us("nn.backward") / 1e3;
  layers.adam_step_ms = mean_us("nn.adam_step") / 1e3;
}

void replay_protocol(PerLayer& layers, std::span<const WireSample> samples,
                     double budget_s) {
  double bytes = 0.0;
  for (const WireSample& s : samples)
    bytes += static_cast<double>(serve::reply_to_json(s.reply, s.op).size());
  layers.reply_bytes = bytes / static_cast<double>(samples.size());
  trace::Scoped replay("replay.serve");
  repeat_for(budget_s, samples.size(), [&](std::size_t i) {
    const WireSample& s = samples[i % samples.size()];
    {
      trace::Scoped span("serve.protocol.parse_http_head");
      if (!serve::parse_http_head(s.head)) std::abort();
    }
    {
      trace::Scoped span("serve.protocol.parse_request");
      std::string error;
      if (!serve::parse_request(s.target, s.body, &error)) std::abort();
    }
    std::string json;
    {
      trace::Scoped span("serve.protocol.reply_to_json");
      json = serve::reply_to_json(s.reply, s.op);
    }
    {
      trace::Scoped span("serve.protocol.http_response");
      serve::http_response(200, json, true);
    }
  });
  layers.parse_http_head_us = mean_us("serve.protocol.parse_http_head");
  layers.parse_request_us = mean_us("serve.protocol.parse_request");
  layers.reply_to_json_us = mean_us("serve.protocol.reply_to_json");
}

}  // namespace perfbench
