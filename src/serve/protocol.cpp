#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/json.h"
#include "common/strings.h"

namespace netfm::serve {

namespace {

std::optional<Op> op_from_target(std::string_view target) noexcept {
  if (target == "/v1/score") return Op::kScore;
  if (target == "/v1/next_logits") return Op::kNextLogits;
  if (target == "/v1/generate") return Op::kGenerate;
  if (target == "/v1/embed") return Op::kEmbed;
  return std::nullopt;
}

/// Non-negative integral member with a default, exact up to 2^64 - 1;
/// nullopt on a wrong type, a negative or fractional value, or one past
/// 2^64 - 1.
std::optional<std::uint64_t> uint_member(const json::Value& obj,
                                         std::string_view key,
                                         std::uint64_t fallback) {
  const json::Value* v = obj.find(key);
  if (!v) return fallback;
  return v->as_uint();
}

std::optional<std::vector<std::string>> string_array(const json::Value& v) {
  if (!v.is_array()) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(v.as_array().size());
  for (const json::Value& item : v.as_array()) {
    if (!item.is_string()) return std::nullopt;
    out.push_back(item.as_string());
  }
  return out;
}

json::Array float_array(std::span<const float> values) {
  json::Array out;
  out.reserve(values.size());
  for (const float v : values) out.emplace_back(v);
  return out;
}

}  // namespace

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::kScore: return "score";
    case Op::kNextLogits: return "next_logits";
    case Op::kGenerate: return "generate";
    case Op::kEmbed: return "embed";
  }
  return "unknown";
}

std::string_view reject_reason_name(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kSessionBusy: return "session_busy";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kDeadlineExceeded: return "deadline_exceeded";
    case RejectReason::kOverloaded: return "overloaded";
    case RejectReason::kContextFull: return "context_full";
  }
  return "unknown";
}

std::optional<Request> parse_request(std::string_view target,
                                     std::string_view body,
                                     std::string* error) {
  const auto op = op_from_target(target);
  if (!op) {
    if (error) *error = "unknown target";
    return std::nullopt;
  }
  const auto doc = json::Value::parse(body);
  if (!doc || !doc->is_object()) {
    if (error) *error = "body is not a JSON object";
    return std::nullopt;
  }

  Request request;
  request.op = *op;
  const auto session = uint_member(*doc, "session", 0);
  if (!session) {
    if (error) *error = "'session' must be a non-negative number";
    return std::nullopt;
  }
  request.session = *session;
  const auto deadline = uint_member(*doc, "deadline_ms", 0);
  if (!deadline) {
    if (error) *error = "'deadline_ms' must be a non-negative number";
    return std::nullopt;
  }
  request.deadline_ms = *deadline;

  switch (*op) {
    case Op::kScore:
    case Op::kEmbed: {
      const json::Value* tokens = doc->find("tokens");
      if (!tokens) {
        if (error) *error = "missing 'tokens'";
        return std::nullopt;
      }
      auto parsed = string_array(*tokens);
      if (!parsed) {
        if (error) *error = "'tokens' must be an array of strings";
        return std::nullopt;
      }
      request.tokens = std::move(*parsed);
      const auto max_len = uint_member(*doc, "max_seq_len", 48);
      if (!max_len || *max_len < 3) {
        if (error) *error = "'max_seq_len' must be a number >= 3";
        return std::nullopt;
      }
      request.max_seq_len = static_cast<std::size_t>(*max_len);
      break;
    }
    case Op::kNextLogits: {
      const json::Value* ids = doc->find("ids");
      if (!ids || !ids->is_array() || ids->as_array().empty()) {
        if (error) *error = "'ids' must be a non-empty array of numbers";
        return std::nullopt;
      }
      request.ids.reserve(ids->as_array().size());
      for (const json::Value& id : ids->as_array()) {
        const auto value = id.as_uint();
        if (!value || *value > static_cast<std::uint64_t>(
                                   std::numeric_limits<int>::max())) {
          if (error) *error = "'ids' must be non-negative integers";
          return std::nullopt;
        }
        request.ids.push_back(static_cast<int>(*value));
      }
      break;
    }
    case Op::kGenerate: {
      const auto max_tokens = uint_member(*doc, "max_tokens", 46);
      const auto top_k = uint_member(*doc, "top_k", 0);
      const auto seed = uint_member(*doc, "seed", 0);
      if (!max_tokens || !top_k || !seed) {
        if (error) *error = "'max_tokens'/'top_k'/'seed' must be numbers";
        return std::nullopt;
      }
      request.sampling.max_tokens = static_cast<std::size_t>(*max_tokens);
      request.sampling.top_k = static_cast<std::size_t>(*top_k);
      request.seed = *seed;
      if (const json::Value* t = doc->find("temperature")) {
        if (!t->is_number() || t->as_number() <= 0.0) {
          if (error) *error = "'temperature' must be a positive number";
          return std::nullopt;
        }
        request.sampling.temperature = t->as_number();
      }
      break;
    }
  }
  return request;
}

std::string request_to_json(const Request& request) {
  json::Object body;
  body.emplace_back("session", json::Value(request.session));
  if (request.deadline_ms != 0)
    body.emplace_back("deadline_ms", json::Value(request.deadline_ms));
  switch (request.op) {
    case Op::kScore:
    case Op::kEmbed: {
      json::Array tokens;
      tokens.reserve(request.tokens.size());
      for (const std::string& t : request.tokens) tokens.emplace_back(t);
      body.emplace_back("tokens", json::Value(std::move(tokens)));
      body.emplace_back("max_seq_len",
                        json::Value(static_cast<std::uint64_t>(
                            request.max_seq_len)));
      break;
    }
    case Op::kNextLogits: {
      json::Array ids;
      ids.reserve(request.ids.size());
      for (const int id : request.ids) ids.emplace_back(id);
      body.emplace_back("ids", json::Value(std::move(ids)));
      break;
    }
    case Op::kGenerate:
      body.emplace_back("max_tokens",
                        json::Value(static_cast<std::uint64_t>(
                            request.sampling.max_tokens)));
      body.emplace_back("temperature",
                        json::Value(request.sampling.temperature));
      body.emplace_back("top_k", json::Value(static_cast<std::uint64_t>(
                                     request.sampling.top_k)));
      body.emplace_back("seed", json::Value(request.seed));
      break;
  }
  return json::Value(std::move(body)).dump();
}

std::string reply_to_json(const Reply& reply, Op op) {
  json::Object body;
  if (reply.status == Reply::Status::kRejected) {
    body.emplace_back("ok", json::Value(false));
    body.emplace_back("reject",
                      json::Value(std::string(
                          reject_reason_name(reply.reject))));
    if (reply.retry_after_ms != 0)
      body.emplace_back("retry_after_ms", json::Value(reply.retry_after_ms));
    return json::Value(std::move(body)).dump();
  }
  if (reply.status == Reply::Status::kError) {
    body.emplace_back("ok", json::Value(false));
    body.emplace_back("error", json::Value(reply.error));
    return json::Value(std::move(body)).dump();
  }
  body.emplace_back("ok", json::Value(true));
  switch (op) {
    case Op::kScore:
      body.emplace_back("score", json::Value(reply.score));
      break;
    case Op::kNextLogits:
      body.emplace_back("logits", json::Value(float_array(reply.logits)));
      break;
    case Op::kEmbed:
      body.emplace_back("embedding",
                        json::Value(float_array(reply.embedding)));
      break;
    case Op::kGenerate: {
      json::Array tokens;
      tokens.reserve(reply.tokens.size());
      for (const std::string& t : reply.tokens) tokens.emplace_back(t);
      body.emplace_back("tokens", json::Value(std::move(tokens)));
      break;
    }
  }
  return json::Value(std::move(body)).dump();
}

std::optional<Reply> parse_reply(std::string_view body, Op op) {
  const auto doc = json::Value::parse(body);
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* ok = doc->find("ok");
  if (!ok || !ok->is_bool()) return std::nullopt;

  Reply reply;
  if (!ok->as_bool()) {
    if (const json::Value* reject = doc->find("reject");
        reject && reject->is_string()) {
      reply.status = Reply::Status::kRejected;
      for (const RejectReason reason : kAllRejectReasons)
        if (reject->as_string() == reject_reason_name(reason))
          reply.reject = reason;
      if (const json::Value* retry = doc->find("retry_after_ms");
          retry && retry->is_number() && retry->as_number() >= 0)
        reply.retry_after_ms =
            static_cast<std::uint64_t>(retry->as_number());
      return reply;
    }
    reply.status = Reply::Status::kError;
    if (const json::Value* err = doc->find("error");
        err && err->is_string())
      reply.error = err->as_string();
    return reply;
  }

  switch (op) {
    case Op::kScore: {
      const json::Value* score = doc->find("score");
      if (!score || !score->is_number()) return std::nullopt;
      reply.score = score->as_number();
      break;
    }
    case Op::kNextLogits:
    case Op::kEmbed: {
      const json::Value* values =
          doc->find(op == Op::kNextLogits ? "logits" : "embedding");
      if (!values || !values->is_array()) return std::nullopt;
      auto& out = op == Op::kNextLogits ? reply.logits : reply.embedding;
      out.reserve(values->as_array().size());
      for (const json::Value& v : values->as_array()) {
        const std::optional<float> f = v.as_float();
        if (!f) return std::nullopt;
        out.push_back(*f);
      }
      break;
    }
    case Op::kGenerate: {
      const json::Value* tokens = doc->find("tokens");
      if (!tokens) return std::nullopt;
      auto parsed = string_array(*tokens);
      if (!parsed) return std::nullopt;
      reply.tokens = std::move(*parsed);
      break;
    }
  }
  return reply;
}

namespace {

/// Strictly-decimal header value, bounded; nullopt on anything else.
std::optional<std::uint64_t> decimal_header(std::string_view value,
                                            std::uint64_t cap) {
  if (value.empty()) return std::nullopt;
  std::uint64_t out = 0;
  for (const char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    if (out > cap) return std::nullopt;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (out > cap) return std::nullopt;
  return out;
}

}  // namespace

std::optional<HttpRequest> parse_http_head(std::string_view head) {
  if (head.size() > kMaxHttpHeadBytes) return std::nullopt;
  std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) line_end = head.size();
  const std::string_view start_line = head.substr(0, line_end);

  const std::size_t sp1 = start_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = start_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  const std::string_view version = start_line.substr(sp2 + 1);
  if (!starts_with(version, "HTTP/1.")) return std::nullopt;

  HttpRequest request;
  request.method = std::string(start_line.substr(0, sp1));
  request.target = std::string(start_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.keep_alive = version != "HTTP/1.0";

  std::size_t header_count = 0;
  std::string_view rest =
      line_end < head.size() ? head.substr(line_end + 2) : std::string_view{};
  while (!rest.empty()) {
    if (++header_count > kMaxHttpHeaders) return std::nullopt;
    std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) eol = rest.size();
    const std::string_view line = rest.substr(0, eol);
    rest = eol + 2 <= rest.size() ? rest.substr(eol + 2) : std::string_view{};
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    const std::string name = to_lower(trim(line.substr(0, colon)));
    const std::string_view value = trim(line.substr(colon + 1));
    if (name == "content-length") {
      const auto length = decimal_header(value, std::uint64_t{1} << 40);
      if (!length) return std::nullopt;
      request.content_length = static_cast<std::size_t>(*length);
    } else if (name == "connection") {
      const std::string v = to_lower(value);
      if (v == "close") request.keep_alive = false;
      else if (v == "keep-alive") request.keep_alive = true;
    } else if (name == "x-netfm-deadline-ms") {
      // Per-request latency budget; bounded to a day so a hostile header
      // cannot encode a deadline that never expires.
      const auto deadline = decimal_header(value, 86'400'000);
      if (!deadline) return std::nullopt;
      request.deadline_ms = *deadline;
    }
  }
  return request;
}

std::string http_response(int status, std::string_view body,
                          bool keep_alive) {
  std::string_view phrase = "OK";
  switch (status) {
    case 200: phrase = "OK"; break;
    case 400: phrase = "Bad Request"; break;
    case 404: phrase = "Not Found"; break;
    case 500: phrase = "Internal Server Error"; break;
    case 503: phrase = "Service Unavailable"; break;
    default: phrase = "Status"; break;
  }
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    std::string(phrase) + "\r\n";
  out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n"
                    : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

}  // namespace netfm::serve
