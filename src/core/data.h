// Bridges token-string contexts (src/context) and model batches
// (src/model): special-token framing, padding, masked-token corruption,
// and segment-pair encoding for next-packet prediction.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "context/context.h"
#include "model/transformer.h"
#include "tokenize/vocab.h"

namespace netfm::core {

/// One encoded sequence: [CLS] tokens... [SEP] padded to a fixed length.
struct Encoded {
  std::vector<int> ids;
  std::vector<int> segments;      // 0 for single-segment, 0/1 for pairs
  std::vector<float> mask;        // 1 = real token
};

/// Encodes a single context. Truncates to fit `max_len` (>= 3).
Encoded encode_context(const std::vector<std::string>& tokens,
                       const tok::Vocabulary& vocab, std::size_t max_len);

/// Encodes the contexts of one no-grad batch at min(max_len, longest
/// context + 2) positions rather than max_len: the shortest length that
/// frames every context as encode_context(tokens, vocab, max_len) would,
/// minus trailing padding (never below encode_context's floor of 3). A
/// no-grad forward gives each real position the same bits at either
/// length — padding sits at the end, a masked key adds an exact-zero
/// attention weight, and every other op works row by row — so this only
/// drops work. Training batches keep max_len: their dropout draws over
/// [B*T, D] depend on T.
std::vector<Encoded> encode_to_longest(
    std::span<const std::vector<std::string>> contexts,
    const tok::Vocabulary& vocab, std::size_t max_len);

/// Encodes a segment pair: [CLS] a [SEP] b [SEP], segments 0/1.
Encoded encode_pair(const std::vector<std::string>& first,
                    const std::vector<std::string>& second,
                    const tok::Vocabulary& vocab, std::size_t max_len);

/// BERT masking: each non-special position is chosen with `mask_prob`;
/// chosen positions become [MASK] 80% / random token 10% / unchanged 10%.
/// Returns per-position targets (original id at corrupted positions, -1
/// elsewhere) and corrupts `ids` in place. If `per_id_prob` is non-empty
/// (length = vocab size) it overrides `mask_prob` per token id —
/// field-targeted masking, the §4.1.4 "network-specific pre-training
/// task" that forces the model to predict selected protocol fields from
/// their context.
std::vector<int> apply_mlm_mask(std::vector<int>& ids,
                                const tok::Vocabulary& vocab, Rng& rng,
                                double mask_prob = 0.15,
                                std::span<const double> per_id_prob = {});

/// Per-id masking probabilities: tokens whose string starts with any of
/// `prefixes` get `focus_prob`, everything else `base_prob`.
std::vector<double> focused_mask_probabilities(
    const tok::Vocabulary& vocab, std::span<const std::string> prefixes,
    double focus_prob, double base_prob);

/// Packs encoded examples (all the same length) into a model batch.
model::Batch make_batch(std::span<const Encoded> examples);

}  // namespace netfm::core
