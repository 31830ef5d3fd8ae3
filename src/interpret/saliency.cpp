#include "interpret/saliency.h"

#include <algorithm>
#include <cmath>

#include "net/packet.h"

namespace netfm::interpret {

std::vector<TokenAttribution> occlusion_saliency(
    const core::NetFM& model, const std::vector<std::string>& context,
    std::size_t max_seq_len) {
  const auto base_probs = model.predict_proba(context, max_seq_len);
  const int predicted = static_cast<int>(
      std::max_element(base_probs.begin(), base_probs.end()) -
      base_probs.begin());
  const double base =
      base_probs[static_cast<std::size_t>(predicted)];

  std::vector<TokenAttribution> out;
  out.reserve(context.size());
  for (std::size_t i = 0; i < context.size(); ++i) {
    std::vector<std::string> occluded = context;
    occluded[i] = "[MASK]";
    const auto probs = model.predict_proba(occluded, max_seq_len);
    out.push_back(
        {context[i], base - probs[static_cast<std::size_t>(predicted)]});
  }
  return out;
}

std::vector<TokenAttribution> attention_rollout(
    const core::NetFM& model, const std::vector<std::string>& context,
    std::size_t max_seq_len) {
  // One context padded to seq_len, the [seq_len, seq_len] maps the
  // rollout multiplies (embed() runs the same real rows, unpadded).
  const std::size_t seq_len =
      std::min(max_seq_len, model.config().max_seq_len);
  const core::Encoded item =
      core::encode_context(context, model.vocab(), seq_len);
  const auto attentions =
      model.encoder().attentions(core::make_batch({&item, 1}));
  if (attentions.empty()) return {};

  const std::size_t heads = model.config().num_heads;
  const std::size_t seq = attentions[0].dim(1);

  // rollout = prod_layers (0.5 * head_mean(A) + 0.5 * I)
  std::vector<double> rollout(seq * seq, 0.0);
  for (std::size_t i = 0; i < seq; ++i) rollout[i * seq + i] = 1.0;

  std::vector<double> layer(seq * seq);
  std::vector<double> next(seq * seq);
  for (const nn::Tensor& attn : attentions) {
    std::fill(layer.begin(), layer.end(), 0.0);
    const auto data = attn.data();
    for (std::size_t h = 0; h < heads; ++h)
      for (std::size_t i = 0; i < seq; ++i)
        for (std::size_t j = 0; j < seq; ++j)
          layer[i * seq + j] +=
              data[(h * seq + i) * seq + j] / static_cast<double>(heads);
    for (std::size_t i = 0; i < seq; ++i) {
      for (std::size_t j = 0; j < seq; ++j)
        layer[i * seq + j] *= 0.5;
      layer[i * seq + i] += 0.5;
    }
    // next = layer * rollout
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < seq; ++i)
      for (std::size_t k = 0; k < seq; ++k) {
        const double v = layer[i * seq + k];
        if (v == 0.0) continue;
        for (std::size_t j = 0; j < seq; ++j)
          next[i * seq + j] += v * rollout[k * seq + j];
      }
    std::swap(rollout, next);
  }

  // [CLS] row (position 0); positions 1..N map to context tokens.
  std::vector<TokenAttribution> out;
  const std::size_t tokens =
      std::min(context.size(), seq >= 2 ? seq - 2 : 0);
  out.reserve(tokens);
  for (std::size_t i = 0; i < tokens; ++i)
    out.push_back({context[i], rollout[0 * seq + (i + 1)]});
  return out;
}

namespace {

/// Coarse family of a field token, for grouping.
std::string token_family(const std::string& token) {
  static constexpr std::pair<const char*, const char*> kPrefixes[] = {
      {"d_", "domain"},      {"cs", "ciphersuite"}, {"p_eph", "port"},
      {"qtype", "dns-meta"}, {"rtype", "dns-meta"}, {"rcode", "dns-meta"},
      {"ancount", "dns-meta"}, {"attl_", "dns-meta"},
      {"ttl_", "ip-meta"},   {"len_", "ip-meta"},
      {"fl_", "tcp-flags"},  {"dir_", "direction"}, {"ua_", "http-agent"},
      {"sv_", "http-server"}, {"ct_", "http-type"}, {"m_", "http-method"},
      {"u_", "http-path"},   {"s2", "http-status"}, {"s3", "http-status"},
      {"s4", "http-status"}, {"s5", "http-status"}, {"w_", "text-verb"},
      {"alpn_", "alpn"},     {"tls_", "tls-type"},  {"rlen", "tls-size"},
      {"clen", "http-size"}, {"plen", "payload-size"},
      {"ntp_", "ntp"},       {"stratum", "ntp"},    {"pkt", "structure"},
  };
  if (token.size() > 1 && token[0] == 'p' && token[1] >= '0' &&
      token[1] <= '9')
    return "port";
  for (const auto& [prefix, family] : kPrefixes)
    if (token.rfind(prefix, 0) == 0) return family;
  if (token == "tcp" || token == "udp" || token == "icmp") return "proto";
  return "other";
}

}  // namespace

std::vector<Superbyte> group_field_tokens(
    const std::vector<std::string>& context,
    const std::vector<TokenAttribution>& attributions) {
  std::vector<Superbyte> groups;
  const std::size_t n = std::min(context.size(), attributions.size());
  for (std::size_t i = 0; i < n;) {
    const std::string family = token_family(context[i]);
    Superbyte group;
    group.label = family;
    group.begin = i;
    double score = 0.0;
    while (i < n && token_family(context[i]) == family) {
      score += attributions[i].score;
      ++i;
    }
    group.end = i;
    group.score = score;
    groups.push_back(std::move(group));
  }
  return groups;
}

namespace {

/// Field name for byte offset `at` within an IPv4 packet (L3-relative).
std::string ipv4_field_at(std::size_t at, std::size_t ihl,
                          std::uint8_t protocol) {
  if (at < ihl) {
    if (at == 0) return "ip-ver-ihl";
    if (at == 1) return "ip-tos";
    if (at < 4) return "ip-length";
    if (at < 6) return "ip-id";
    if (at < 8) return "ip-frag";
    if (at == 8) return "ip-ttl";
    if (at == 9) return "ip-proto";
    if (at < 12) return "ip-checksum";
    if (at < 16) return "ip-src";
    if (at < 20) return "ip-dst";
    return "ip-options";
  }
  const std::size_t l4 = at - ihl;
  switch (static_cast<IpProto>(protocol)) {
    case IpProto::kTcp:
      if (l4 < 2) return "tcp-sport";
      if (l4 < 4) return "tcp-dport";
      if (l4 < 8) return "tcp-seq";
      if (l4 < 12) return "tcp-ack";
      if (l4 == 12) return "tcp-offset";
      if (l4 == 13) return "tcp-flags";
      if (l4 < 16) return "tcp-window";
      if (l4 < 18) return "tcp-checksum";
      if (l4 < 20) return "tcp-urgent";
      return "payload";
    case IpProto::kUdp:
      if (l4 < 2) return "udp-sport";
      if (l4 < 4) return "udp-dport";
      if (l4 < 6) return "udp-length";
      if (l4 < 8) return "udp-checksum";
      return "payload";
    default:
      return "payload";
  }
}

}  // namespace

std::vector<Superbyte> group_bytes_by_field(
    BytesView frame, const std::vector<TokenAttribution>& attributions) {
  // ByteTokenizer starts at L3 (frame offset 14).
  std::size_t ihl = 20;
  std::uint8_t protocol = 0;
  if (frame.size() > 14 + 10) {
    ihl = static_cast<std::size_t>(frame[14] & 0x0f) * 4;
    protocol = frame[14 + 9];
  }

  std::vector<Superbyte> groups;
  for (std::size_t i = 0; i < attributions.size();) {
    const std::string field = ipv4_field_at(i, ihl, protocol);
    Superbyte group;
    group.label = field;
    group.begin = i;
    double score = 0.0;
    while (i < attributions.size() &&
           ipv4_field_at(i, ihl, protocol) == field) {
      score += attributions[i].score;
      ++i;
    }
    group.end = i;
    group.score = score;
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace netfm::interpret
