// Inference fast-path microbenchmarks: KV-cached vs uncached autoregressive
// decode, no-grad (InferenceGuard + workspace, no graph) vs recording
// forward, and the batched embed_flows sweep. The CI bench gate
// (check_bench_json.py --infer-gate) asserts the cached/uncached and
// no-grad/grad ratios from this file's BENCH_micro_infer.json.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "harness/bench_util.h"
#include "model/transformer.h"
#include "nn/tensor.h"

namespace netfm {
namespace {

constexpr std::size_t kVocab = 64;

tok::Vocabulary bench_vocab() {
  tok::Vocabulary v;
  for (std::size_t i = v.size(); i < kVocab; ++i)
    v.add("tok" + std::to_string(i));
  return v;
}

/// Non-special token ids so decoding never trips [SEP]/[PAD] semantics.
std::vector<int> token_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> ids(n);
  for (int& id : ids)
    id = static_cast<int>(tok::Vocabulary::kNumSpecial +
                          rng.uniform(kVocab - tok::Vocabulary::kNumSpecial));
  return ids;
}

model::TransformerConfig decode_config(std::size_t seq_len) {
  auto config = model::TransformerConfig::tiny(kVocab);
  config.max_seq_len = seq_len + 1;
  config.dropout = 0.0f;
  return config;
}

// Autoregressive decode of T tokens through the KV cache: each step feeds
// one token and attends over the cached prefix (O(T) per step).
void BM_DecodeCached(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  const core::TrafficLM lm(bench_vocab(), decode_config(seq));
  const std::vector<int> ids = token_stream(seq, 11);
  for (auto _ : state) {
    core::LmDecoder decoder(lm);
    for (int id : ids) {
      const std::vector<float> logits = decoder.advance(id);
      benchmark::DoNotOptimize(logits.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_DecodeCached)->Arg(16)->Arg(64)->Arg(128);

// The same decode re-running the full forward for every prefix (O(T^2) per
// step): the reference path the KV cache is gated against.
void BM_DecodeUncached(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  const core::TrafficLM lm(bench_vocab(), decode_config(seq));
  const std::vector<int> ids = token_stream(seq, 11);
  for (auto _ : state) {
    for (std::size_t t = 0; t < ids.size(); ++t) {
      const std::vector<float> logits =
          lm.next_logits(std::span<const int>(ids.data(), t + 1));
      benchmark::DoNotOptimize(logits.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_DecodeUncached)->Arg(16)->Arg(64)->Arg(128);

// Cross-session batched decode: B decoders on one shared KV block pool
// advance in lockstep, one padded [B, d_model] forward per step instead of
// B single-row forwards. Arg0 = batch size, Arg1 = tokens per stream.
// items = batch x tokens, so items/sec against BM_DecodeBatched/1/T is the
// batching speedup the CI gate (--min-batched-decode-speedup) floors.
void BM_DecodeBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto seq = static_cast<std::size_t>(state.range(1));
  const core::TrafficLM lm(bench_vocab(), decode_config(seq));
  std::vector<std::vector<int>> ids;
  for (std::size_t b = 0; b < batch; ++b)
    ids.push_back(token_stream(seq, 11 + b));

  const auto pool = lm.make_kv_pool(batch * lm.kv_blocks_per_sequence());
  std::vector<std::unique_ptr<core::LmDecoder>> decoders;
  std::vector<core::LmDecoder*> ptrs;
  for (std::size_t b = 0; b < batch; ++b) {
    decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
    ptrs.push_back(decoders.back().get());
  }

  std::vector<int> step(batch);
  for (auto _ : state) {
    for (auto* decoder : ptrs) decoder->reset();
    for (std::size_t t = 0; t < seq; ++t) {
      for (std::size_t b = 0; b < batch; ++b) step[b] = ids[b][t];
      const auto logits = core::LmDecoder::advance_batch(ptrs, step);
      benchmark::DoNotOptimize(logits.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch) *
                          static_cast<std::int64_t>(seq));
}
BENCHMARK(BM_DecodeBatched)->ArgsProduct({{1, 8, 32}, {16, 64, 128}});

model::Batch random_batch(std::size_t batch, std::size_t seq,
                          std::uint64_t seed) {
  model::Batch b;
  b.batch_size = batch;
  b.seq_len = seq;
  Rng rng(seed);
  for (std::size_t i = 0; i < batch * seq; ++i) {
    b.token_ids.push_back(static_cast<int>(rng.uniform(kVocab)));
    b.segment_ids.push_back(0);
    b.attention_mask.push_back(1.0f);
  }
  return b;
}

// Recording forward: autograd graph, backward closures, heap buffers.
// Arg = batch size at seq 48; batch 1 is the online single-flow shape where
// per-op overhead matters most, batch 8 the bulk-scoring shape.
void BM_ForwardGrad(benchmark::State& state) {
  const model::TransformerEncoder encoder(
      model::TransformerConfig::tiny(kVocab));
  const model::Batch batch =
      random_batch(static_cast<std::size_t>(state.range(0)), 48, 3);
  for (auto _ : state) {
    nn::Tensor h = encoder.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ForwardGrad)->Arg(1)->Arg(8)->Arg(64);

// Same forward under InferenceGuard: no graph, workspace-pooled buffers,
// the same attention op — bit-identical outputs.
void BM_ForwardNoGrad(benchmark::State& state) {
  const model::TransformerEncoder encoder(
      model::TransformerConfig::tiny(kVocab));
  const model::Batch batch =
      random_batch(static_cast<std::size_t>(state.range(0)), 48, 3);
  for (auto _ : state) {
    nn::InferenceGuard guard;
    nn::Tensor h = encoder.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(h.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ForwardNoGrad)->Arg(1)->Arg(8)->Arg(64);

// Batched embedding sweep: flows-per-pass is the Arg; flows/sec is the
// comparable rate (batch 1 = the per-flow loop's cost).
void BM_EmbedFlowsBatch(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  auto config = model::TransformerConfig::tiny(kVocab);
  config.dropout = 0.0f;
  const tok::Vocabulary vocab = bench_vocab();
  const core::NetFM fm(vocab, config);
  std::vector<std::vector<std::string>> contexts(flows);
  Rng rng(9);
  for (auto& context : contexts)
    for (std::size_t t = 0; t < 14; ++t)
      context.push_back(vocab.token(static_cast<int>(
          tok::Vocabulary::kNumSpecial +
          rng.uniform(kVocab - tok::Vocabulary::kNumSpecial))));
  for (auto _ : state) {
    const auto embeddings = fm.embed_flows(contexts, 16);
    benchmark::DoNotOptimize(embeddings.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_EmbedFlowsBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace netfm

int main(int argc, char** argv) {
  return netfm::bench::benchmark_main(argc, argv, "micro_infer");
}
