// Serving-layer load test: drives >= 1000 concurrent synthetic sessions
// through the continuous-batching scheduler (and a smaller wave through the
// loopback HTTP server), measures per-request latency and throughput, and
// spot-checks that served replies are bitwise identical to direct library
// calls. Emits BENCH_load_serve.json; CI's serve-smoke lane gates on it via
// check_bench_json.py --serve-gate.
//
// Scale: full run is ~1000 sessions x 8 requests; NETFM_BENCH_SMOKE=1
// shrinks to a seconds-long CI pass. The process exits non-zero on any
// bitwise mismatch, so the gate can trust `bitwise_mismatches` even if the
// JSON is inspected casually.
#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/metrics.h"
#include "core/traffic_lm.h"
#include "harness/bench_util.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"

using namespace netfm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Per-session request payloads cut from a real token corpus.
struct SessionPlan {
  std::vector<std::string> tokens;  // for score
  std::vector<int> ids;             // for next_logits ([CLS] prefix)
};

std::vector<SessionPlan> make_plans(
    const std::vector<std::vector<std::string>>& corpus,
    const tok::Vocabulary& vocab, std::size_t sessions) {
  std::vector<SessionPlan> plans(sessions);
  Rng rng(4242);
  for (std::size_t s = 0; s < sessions; ++s) {
    const auto& context = corpus[s % corpus.size()];
    const std::size_t len =
        std::min<std::size_t>(context.size(), 6 + rng.uniform(9));
    SessionPlan& plan = plans[s];
    plan.tokens.assign(context.begin(),
                       context.begin() + static_cast<std::ptrdiff_t>(len));
    plan.ids.push_back(tok::Vocabulary::kCls);
    for (const std::string& t : plan.tokens)
      plan.ids.push_back(vocab.id(t));
  }
  return plans;
}

/// Minimal blocking HTTP/1.1 client for the loopback phase.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool post(const std::string& target, const std::string& body,
            std::string* reply_body) {
    const std::string request =
        "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
        "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
    if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size()))
      return false;
    while (buffer_.find("\r\n\r\n") == std::string::npos)
      if (!read_more()) return false;
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    const std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    if (head.find(" 200 ") == std::string::npos) return false;
    std::size_t length = 0;
    const std::size_t at = head.find("Content-Length: ");
    if (at == std::string::npos) return false;
    length = static_cast<std::size_t>(
        std::atoll(head.c_str() + at + std::strlen("Content-Length: ")));
    while (buffer_.size() < length)
      if (!read_more()) return false;
    reply_body->assign(buffer_, 0, length);
    buffer_.erase(0, length);
    return true;
  }

 private:
  bool read_more() {
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::uint64_t counter_or_zero(const metrics::Snapshot& snap,
                              const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const std::size_t kSessions = smoke ? 64 : 1000;
  const std::size_t kRequestsPerSession = smoke ? 2 : 8;
  const std::size_t kClientThreads = smoke ? 4 : 16;
  const std::size_t kHttpConns = smoke ? 8 : 64;
  const std::size_t kHttpRequestsPerConn = smoke ? 2 : 16;

  std::printf("===== load_serve: continuous-batching serving layer =====\n");
  std::printf("%zu sessions x %zu requests, %zu client threads%s\n",
              kSessions, kRequestsPerSession, kClientThreads,
              smoke ? " (smoke)" : "");
  metrics::set_enabled(true);

  // Real token streams from the traffic generator, like the experiment
  // harnesses use — the served model sees the vocabulary it would in
  // deployment, not toy ids.
  const auto trace = bench::make_trace(gen::DeploymentProfile::site_a(),
                                       smoke ? 10.0 : 30.0, 77, 0.0,
                                       smoke ? 120 : 360);
  tok::FieldTokenizer tokenizer;
  ctx::Options context_options;
  const auto corpus =
      bench::unlabeled_corpus({&trace}, tokenizer, context_options);
  const tok::Vocabulary vocab = tok::Vocabulary::build(corpus);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 48;
  config.dropout = 0.0f;
  const core::TrafficLM lm(vocab, config);
  std::printf("corpus: %zu contexts, vocab %zu\n", corpus.size(),
              vocab.size());

  const std::vector<SessionPlan> plans = make_plans(corpus, vocab, kSessions);

  // Direct-call references for the bitwise spot checks, computed while no
  // scheduler worker is running (batched forwards are confined to one
  // driver thread at a time).
  const std::size_t kSpot = std::min<std::size_t>(kSessions, 16);
  std::vector<std::vector<float>> spot_logits(kSpot);
  std::vector<double> spot_scores(kSpot);
  for (std::size_t s = 0; s < kSpot; ++s) {
    spot_logits[s] = lm.next_logits(plans[s].ids);
    spot_scores[s] = lm.score(plans[s].tokens);
  }

  serve::SchedulerOptions scheduler_options;
  scheduler_options.max_queue = 4096;
  scheduler_options.max_batch = 32;
  serve::Scheduler scheduler(lm, nullptr, scheduler_options);

  // ---- Phase 1: in-process scheduler load -------------------------------
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::vector<double>> latencies(kClientThreads);
  const auto load_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClientThreads; ++c)
      clients.emplace_back([&, c] {
        auto& lat = latencies[c];
        lat.reserve(kSessions / kClientThreads * kRequestsPerSession + 8);
        for (std::size_t round = 0; round < kRequestsPerSession; ++round) {
          // One in-flight request per owned session, all sessions at once:
          // client-side concurrency spans the whole session population.
          std::vector<std::pair<std::size_t, std::future<serve::Reply>>>
              in_flight;
          std::vector<Clock::time_point> started;
          for (std::size_t s = c; s < kSessions; s += kClientThreads) {
            serve::Request request;
            request.session = s;
            if ((round + s) % 2 == 0) {
              request.op = serve::Op::kNextLogits;
              request.ids = plans[s].ids;
            } else {
              request.op = serve::Op::kScore;
              request.tokens = plans[s].tokens;
            }
            started.push_back(Clock::now());
            in_flight.emplace_back(s, scheduler.submit(std::move(request)));
          }
          for (std::size_t i = 0; i < in_flight.size(); ++i) {
            const serve::Reply reply = in_flight[i].second.get();
            lat.push_back(ms_since(started[i]));
            if (reply.status == serve::Reply::Status::kRejected) {
              rejected.fetch_add(1);
              continue;
            }
            completed.fetch_add(1);
            const std::size_t s = in_flight[i].first;
            if (s < kSpot) {
              if ((round + s) % 2 == 0) {
                if (reply.logits != spot_logits[s]) mismatches.fetch_add(1);
              } else {
                if (reply.score != spot_scores[s]) mismatches.fetch_add(1);
              }
            }
          }
        }
      });
    for (auto& t : clients) t.join();
  }
  const double load_seconds = ms_since(load_start) / 1000.0;

  std::vector<double> all_latencies;
  for (const auto& lat : latencies)
    all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
  const double p50 = percentile(all_latencies, 0.50);
  const double p99 = percentile(all_latencies, 0.99);
  double mean = 0.0;
  for (const double v : all_latencies) mean += v;
  mean /= std::max<std::size_t>(all_latencies.size(), 1);
  const double rps =
      static_cast<double>(all_latencies.size()) / load_seconds;
  std::printf("scheduler: %zu requests in %.2fs — %.0f req/s, "
              "p50 %.2fms p99 %.2fms (completed %llu, rejected %llu, "
              "ticks %llu)\n",
              all_latencies.size(), load_seconds, rps, p50, p99,
              static_cast<unsigned long long>(completed.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(scheduler.ticks()));

  // ---- Phase 2: loopback HTTP -------------------------------------------
  serve::HttpServer server(scheduler);
  server.start();
  std::atomic<std::uint64_t> http_failures{0};
  std::vector<std::vector<double>> http_latencies(kHttpConns);
  const auto http_start = Clock::now();
  {
    std::vector<std::thread> conns;
    for (std::size_t c = 0; c < kHttpConns; ++c)
      conns.emplace_back([&, c] {
        HttpClient client(server.port());
        if (!client.connected()) {
          http_failures.fetch_add(kHttpRequestsPerConn);
          return;
        }
        for (std::size_t r = 0; r < kHttpRequestsPerConn; ++r) {
          const std::size_t s = (c * kHttpRequestsPerConn + r) % kSessions;
          serve::Request request;
          request.op = serve::Op::kNextLogits;
          request.session = s;
          request.ids = plans[s].ids;
          const auto t0 = Clock::now();
          std::string body;
          if (!client.post("/v1/next_logits",
                           serve::request_to_json(request), &body)) {
            http_failures.fetch_add(1);
            continue;
          }
          http_latencies[c].push_back(ms_since(t0));
          if (s < kSpot) {
            const auto reply =
                serve::parse_reply(body, serve::Op::kNextLogits);
            // Floats survive the wire bitwise (%.17g round-trip).
            if (!reply || reply->logits != spot_logits[s])
              mismatches.fetch_add(1);
          }
        }
      });
    for (auto& t : conns) t.join();
  }
  const double http_seconds = ms_since(http_start) / 1000.0;
  server.stop();
  scheduler.stop();

  std::vector<double> all_http;
  for (const auto& lat : http_latencies)
    all_http.insert(all_http.end(), lat.begin(), lat.end());
  const double http_p50 = percentile(all_http, 0.50);
  const double http_p99 = percentile(all_http, 0.99);
  const double http_rps =
      static_cast<double>(all_http.size()) / http_seconds;
  std::printf("http: %zu requests over %zu conns in %.2fs — %.0f req/s, "
              "p50 %.2fms p99 %.2fms (%llu failures)\n",
              all_http.size(), kHttpConns, http_seconds, http_rps, http_p50,
              http_p99, static_cast<unsigned long long>(http_failures.load()));
  std::printf("bitwise spot checks: %llu mismatches\n",
              static_cast<unsigned long long>(mismatches.load()));

  const metrics::Snapshot snap = metrics::snapshot();
  std::vector<bench::BenchRecord> records = {
      {"load_serve", "sessions", static_cast<double>(kSessions), "session"},
      {"load_serve", "requests",
       static_cast<double>(all_latencies.size()), "request"},
      {"load_serve", "completed", static_cast<double>(completed.load()),
       "request"},
      {"load_serve", "rejected", static_cast<double>(rejected.load()),
       "request"},
      {"load_serve", "latency.p50_ms", p50, "ms"},
      {"load_serve", "latency.p99_ms", p99, "ms"},
      {"load_serve", "latency.mean_ms", mean, "ms"},
      {"load_serve", "throughput_rps", rps, "req/s"},
      {"load_serve", "ticks", static_cast<double>(scheduler.ticks()),
       "tick"},
      {"load_serve", "http.requests", static_cast<double>(all_http.size()),
       "request"},
      {"load_serve", "http.failures",
       static_cast<double>(http_failures.load()), "request"},
      {"load_serve", "http.latency.p50_ms", http_p50, "ms"},
      {"load_serve", "http.latency.p99_ms", http_p99, "ms"},
      {"load_serve", "http.throughput_rps", http_rps, "req/s"},
      {"load_serve", "bitwise_mismatches",
       static_cast<double>(mismatches.load()), "count"},
      {"load_serve", "serve.admitted",
       static_cast<double>(counter_or_zero(snap, "serve.admitted")),
       "count"},
      {"load_serve", "serve.rejected.queue_full",
       static_cast<double>(
           counter_or_zero(snap, "serve.rejected.queue_full")),
       "count"},
      {"load_serve", "serve.rejected.session_busy",
       static_cast<double>(
           counter_or_zero(snap, "serve.rejected.session_busy")),
       "count"},
      // Resilience machinery must stay idle at baseline load: the
      // serve-gate rejects a run where the degradation ladder moved or
      // default deadlines expired work.
      {"load_serve", "serve.degrade.transitions",
       static_cast<double>(
           counter_or_zero(snap, "serve.degrade.transitions")),
       "count"},
      {"load_serve", "serve.rejected.deadline_exceeded",
       static_cast<double>(
           counter_or_zero(snap, "serve.rejected.deadline_exceeded")),
       "count"},
  };
  // Peak paged-KV footprint across the whole run: the serve-gate's
  // --max-kv-bytes ceiling asserts this stays under the dense
  // sessions x max_seq_len reservation the block pool replaced.
  if (const auto& kv = scheduler.kv_pool()) {
    const double peak_blocks =
        static_cast<double>(kv->peak_blocks_in_use());
    records.push_back({"load_serve", "serve.kv.peak_blocks", peak_blocks,
                       "block"});
    records.push_back({"load_serve", "serve.kv.peak_bytes",
                       peak_blocks * static_cast<double>(kv->bytes_per_block()),
                       "byte"});
    records.push_back({"load_serve", "serve.kv.capacity_blocks",
                       static_cast<double>(kv->capacity_blocks()), "block"});
  }
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0 || name.rfind("serve.", 0) != 0) continue;
    records.push_back({"load_serve", name + ".p50", h.quantile(0.50),
                       snap.unit_of(name)});
    records.push_back({"load_serve", name + ".p99", h.quantile(0.99),
                       snap.unit_of(name)});
  }
  bench::write_bench_json("load_serve", records);

  if (mismatches.load() != 0 || http_failures.load() != 0) {
    std::fprintf(stderr,
                 "load_serve: FAILED (%llu mismatches, %llu http failures)\n",
                 static_cast<unsigned long long>(mismatches.load()),
                 static_cast<unsigned long long>(http_failures.load()));
    return 1;
  }
  return 0;
}
