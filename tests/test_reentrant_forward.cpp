// A model forward keeps no state between calls, so one model instance
// serves concurrent batched forwards: two threads run next_logits_batch on
// one TrafficLM and embed_flows on one NetFM at the same time, each with
// its own batch shapes, and every result must be bitwise equal to the same
// call made alone. Dropout stays at its default rate: a no-grad forward
// must not draw from the encoder's dropout stream. Part of the
// `concurrency` ctest label, which the CI lane runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/netfm.h"
#include "core/traffic_lm.h"

namespace netfm {
namespace {

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "fl_S", "fl_SA", "dir_up", "dir_dn"})
    v.add(t);
  return v;
}

/// Token strings for context `s`, `len` long, cycling through the vocab.
std::vector<std::string> context(const tok::Vocabulary& vocab, std::size_t s,
                                 std::size_t len) {
  const std::size_t first = tok::Vocabulary::kNumSpecial;
  const std::size_t regular = vocab.size() - first;
  std::vector<std::string> out;
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(
        vocab.token(static_cast<int>(first + (s * 3 + i * 5) % regular)));
  return out;
}

/// [CLS]-prefixed ids of context(s, len).
std::vector<int> ids(const tok::Vocabulary& vocab, std::size_t s,
                     std::size_t len) {
  std::vector<int> out = {tok::Vocabulary::kCls};
  for (const std::string& t : context(vocab, s, len))
    out.push_back(vocab.id(t));
  return out;
}

/// One thread's workload: ragged LM prompts and embedding contexts whose
/// padded shapes differ from the other thread's.
struct Work {
  std::vector<std::vector<int>> prompts;
  std::vector<std::vector<std::string>> contexts;
  std::size_t embed_len = 0;
  std::vector<std::vector<float>> want_logits, want_embeddings;
};

TEST(ReentrantForward, ConcurrentBatchedCallsBitwiseEqualSerial) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 16;
  const core::TrafficLM lm(vocab, config);
  const core::NetFM fm(vocab, config);

  std::vector<Work> work(2);
  for (std::size_t w = 0; w < work.size(); ++w) {
    Work& job = work[w];
    for (std::size_t s = 0; s < 3 + w * 2; ++s) {
      job.prompts.push_back(ids(vocab, s + w * 7, 2 + (s * 3 + w) % 9));
      job.contexts.push_back(context(vocab, s + w * 5, 3 + (s + w) % 6));
    }
    job.embed_len = 10 + w * 6;
    job.want_logits = lm.next_logits_batch(job.prompts);
    job.want_embeddings = fm.embed_flows(job.contexts, job.embed_len);
  }

  constexpr int kRounds = 16;
  std::atomic<int> mismatches{0};
  const auto run = [&](const Work& job) {
    try {
      for (int round = 0; round < kRounds; ++round) {
        if (lm.next_logits_batch(job.prompts) != job.want_logits)
          mismatches.fetch_add(1);
        if (fm.embed_flows(job.contexts, job.embed_len) !=
            job.want_embeddings)
          mismatches.fetch_add(1);
      }
    } catch (const std::exception&) {
      mismatches.fetch_add(1);  // a forward that throws also failed
    }
  };
  std::thread a(run, std::cref(work[0])), b(run, std::cref(work[1]));
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace netfm
