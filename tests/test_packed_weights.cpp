// Packed-weight snapshots under concurrent repacking (nn/packed.h): two
// threads decode on one model while a third keeps bumping the weight
// epoch, so every layer's panels are repacked over and over under the
// readers. Readers hold an immutable snapshot for the whole GEMM, so the
// logits must stay bitwise equal to a quiet single-thread decode. Part of
// the `concurrency` ctest label, which the CI lane runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/traffic_lm.h"
#include "nn/packed.h"

namespace netfm {
namespace {

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "fl_S", "fl_SA", "dir_up", "dir_dn"})
    v.add(t);
  return v;
}

TEST(PackedWeightsConcurrency, DecodersStayBitwiseWhileEpochBumps) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 16;
  config.dropout = 0.0f;
  const std::vector<int> ids = {tok::Vocabulary::kCls, vocab.id("tcp"),
                                vocab.id("p443"), vocab.id("fl_SA"),
                                vocab.id("dir_dn"), vocab.id("udp")};
  constexpr int kRounds = 12;

  const core::TrafficLM lm(vocab, config);
  std::vector<std::vector<float>> want;
  {
    core::LmDecoder decoder(lm);
    for (int id : ids) want.push_back(decoder.advance(id));
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread bumper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      nn::bump_weight_epoch();
      std::this_thread::yield();
    }
  });
  const auto decode = [&] {
    for (int round = 0; round < kRounds; ++round) {
      core::LmDecoder decoder(lm);
      for (std::size_t t = 0; t < ids.size(); ++t)
        if (decoder.advance(ids[t]) != want[t]) mismatches.fetch_add(1);
    }
  };
  std::thread a(decode), b(decode);
  a.join();
  b.join();
  done.store(true, std::memory_order_relaxed);
  bumper.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace netfm
