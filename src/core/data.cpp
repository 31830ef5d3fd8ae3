#include "core/data.h"

#include <algorithm>
#include <stdexcept>

namespace netfm::core {

Encoded encode_context(const std::vector<std::string>& tokens,
                       const tok::Vocabulary& vocab, std::size_t max_len) {
  if (max_len < 3)
    throw std::invalid_argument("encode_context: max_len must be >= 3");
  Encoded out;
  out.ids.reserve(max_len);
  out.ids.push_back(tok::Vocabulary::kCls);
  const std::size_t budget = max_len - 2;
  for (std::size_t i = 0; i < tokens.size() && i < budget; ++i)
    out.ids.push_back(vocab.id(tokens[i]));
  out.ids.push_back(tok::Vocabulary::kSep);

  out.mask.assign(max_len, 0.0f);
  for (std::size_t i = 0; i < out.ids.size(); ++i) out.mask[i] = 1.0f;
  out.ids.resize(max_len, tok::Vocabulary::kPad);
  out.segments.assign(max_len, 0);
  return out;
}

std::vector<Encoded> encode_to_longest(
    std::span<const std::vector<std::string>> contexts,
    const tok::Vocabulary& vocab, std::size_t max_len) {
  std::size_t longest = 0;
  for (const auto& tokens : contexts)
    longest = std::max(longest, tokens.size());
  const std::size_t len =
      std::min(max_len, std::max<std::size_t>(longest + 2, 3));
  std::vector<Encoded> out;
  out.reserve(contexts.size());
  for (const auto& tokens : contexts)
    out.push_back(encode_context(tokens, vocab, len));
  return out;
}

Encoded encode_pair(const std::vector<std::string>& first,
                    const std::vector<std::string>& second,
                    const tok::Vocabulary& vocab, std::size_t max_len) {
  if (max_len < 5)
    throw std::invalid_argument("encode_pair: max_len must be >= 5");
  Encoded out;
  out.ids.reserve(max_len);
  out.segments.reserve(max_len);
  const std::size_t budget = max_len - 3;
  const std::size_t first_budget = budget / 2;
  const std::size_t first_len = std::min(first.size(), first_budget);
  const std::size_t second_len = std::min(second.size(), budget - first_len);

  out.ids.push_back(tok::Vocabulary::kCls);
  out.segments.push_back(0);
  for (std::size_t i = 0; i < first_len; ++i) {
    out.ids.push_back(vocab.id(first[i]));
    out.segments.push_back(0);
  }
  out.ids.push_back(tok::Vocabulary::kSep);
  out.segments.push_back(0);
  for (std::size_t i = 0; i < second_len; ++i) {
    out.ids.push_back(vocab.id(second[i]));
    out.segments.push_back(1);
  }
  out.ids.push_back(tok::Vocabulary::kSep);
  out.segments.push_back(1);

  out.mask.assign(max_len, 0.0f);
  for (std::size_t i = 0; i < out.ids.size(); ++i) out.mask[i] = 1.0f;
  out.ids.resize(max_len, tok::Vocabulary::kPad);
  out.segments.resize(max_len, 0);
  return out;
}

std::vector<int> apply_mlm_mask(std::vector<int>& ids,
                                const tok::Vocabulary& vocab, Rng& rng,
                                double mask_prob,
                                std::span<const double> per_id_prob) {
  std::vector<int> targets(ids.size(), -1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    if (id < tok::Vocabulary::kNumSpecial) continue;  // never corrupt specials
    const double prob =
        per_id_prob.empty()
            ? mask_prob
            : per_id_prob[static_cast<std::size_t>(id)];
    if (!rng.chance(prob)) continue;
    targets[i] = id;
    const double roll = rng.uniform01();
    if (roll < 0.8) {
      ids[i] = tok::Vocabulary::kMask;
    } else if (roll < 0.9) {
      // Random non-special replacement token.
      const std::size_t candidates = vocab.size() - tok::Vocabulary::kNumSpecial;
      if (candidates > 0)
        ids[i] = tok::Vocabulary::kNumSpecial +
                 static_cast<int>(rng.uniform(candidates));
    }  // else: keep the original token (but still predict it)
  }
  return targets;
}

std::vector<double> focused_mask_probabilities(
    const tok::Vocabulary& vocab, std::span<const std::string> prefixes,
    double focus_prob, double base_prob) {
  std::vector<double> probs(vocab.size(), base_prob);
  for (std::size_t id = tok::Vocabulary::kNumSpecial; id < vocab.size();
       ++id) {
    const std::string& token = vocab.token(static_cast<int>(id));
    for (const std::string& prefix : prefixes)
      if (token.rfind(prefix, 0) == 0) {
        probs[id] = focus_prob;
        break;
      }
  }
  return probs;
}

model::Batch make_batch(std::span<const Encoded> examples) {
  if (examples.empty())
    throw std::invalid_argument("make_batch: empty batch");
  model::Batch batch;
  batch.batch_size = examples.size();
  batch.seq_len = examples[0].ids.size();
  batch.token_ids.reserve(batch.batch_size * batch.seq_len);
  for (const Encoded& ex : examples) {
    if (ex.ids.size() != batch.seq_len)
      throw std::invalid_argument("make_batch: ragged batch");
    batch.token_ids.insert(batch.token_ids.end(), ex.ids.begin(),
                           ex.ids.end());
    batch.segment_ids.insert(batch.segment_ids.end(), ex.segments.begin(),
                             ex.segments.end());
    batch.attention_mask.insert(batch.attention_mask.end(), ex.mask.begin(),
                                ex.mask.end());
  }
  return batch;
}

}  // namespace netfm::core
