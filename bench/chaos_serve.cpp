// Chaos soak for the serving layer: drives the load_serve request shape
// through the scheduler and the loopback HTTP server while a layered
// fault::Scope fires through every serve-path injection point —
// serve.conn.drop (connection severed pre-reply), model.kv.alloc (KV
// block pool runs dry mid-decode), nn.workspace.oom (allocation failure
// inside a forward), core.decode.crash (crash mid-decode), and
// serve.tick.stall (wedged scheduler tick).
//
// The soak's contract, asserted at exit (non-zero on violation) and gated
// in CI via check_bench_json.py --chaos-gate:
//   - zero crashes/hangs: the process finishes under ASan+UBSan and every
//     submitted future resolves;
//   - every failed request carries a *typed* answer (a named RejectReason
//     or a non-empty error string) — no silent drops, no empty errors;
//   - every fault-free reply is bitwise identical to a direct library
//     call (no degradation level changes the numerics);
//   - all five fault points actually fired (a soak that never faulted
//     proves nothing);
//   - /healthz stays live throughout and /drainz completes a bounded
//     drain at the end.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
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

/// Blocking HTTP/1.1 client that surfaces the status line — under chaos a
/// 503/500 is an expected, *typed* outcome, not a transport failure.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) { connect_now(); }
  ~HttpClient() { close_now(); }
  bool connected() const { return fd_ >= 0; }

  /// Returns false only on transport failure (connect/send/recv). On true,
  /// `status` and `reply_body` hold the parsed response.
  bool request(const std::string& verb, const std::string& target,
               const std::string& extra_headers, const std::string& body,
               int* status, std::string* reply_body) {
    if (fd_ < 0 && !connect_now()) return false;
    std::string head = verb + " " + target + " HTTP/1.1\r\nHost: l\r\n" +
                       extra_headers;
    if (!body.empty() || verb == "POST")
      head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    const std::string wire = head + "\r\n" + body;
    if (::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      close_now();
      return false;
    }
    std::size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos)
      if (!read_more()) return false;
    const std::string head_text = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    // "HTTP/1.1 NNN ..."
    const std::size_t sp = head_text.find(' ');
    if (sp == std::string::npos) return false;
    *status = std::atoi(head_text.c_str() + sp + 1);
    std::size_t length = 0;
    const std::size_t at = head_text.find("Content-Length: ");
    if (at == std::string::npos) return false;
    length = static_cast<std::size_t>(
        std::atoll(head_text.c_str() + at + std::strlen("Content-Length: ")));
    while (buffer_.size() < length)
      if (!read_more()) return false;
    reply_body->assign(buffer_, 0, length);
    buffer_.erase(0, length);
    return true;
  }

 private:
  bool connect_now() {
    close_now();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof addr) == 0)
      return true;
    close_now();
    return false;
  }
  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }
  bool read_more() {
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) {
      close_now();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
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
  const std::size_t kSessions = smoke ? 64 : 160;
  const std::size_t kRounds = smoke ? 4 : 10;
  const std::size_t kClientThreads = smoke ? 4 : 8;
  const std::size_t kHttpConns = smoke ? 8 : 24;
  const std::size_t kHttpRequestsPerConn = smoke ? 10 : 24;

  std::printf("===== chaos_serve: serving-layer fault soak =====\n");
  std::printf("%zu sessions x %zu rounds, %zu client threads%s\n", kSessions,
              kRounds, kClientThreads, smoke ? " (smoke)" : "");
  metrics::set_enabled(true);

  const auto trace = bench::make_trace(gen::DeploymentProfile::site_a(),
                                       smoke ? 8.0 : 15.0, 77, 0.0,
                                       smoke ? 100 : 200);
  tok::FieldTokenizer tokenizer;
  ctx::Options context_options;
  const auto corpus =
      bench::unlabeled_corpus({&trace}, tokenizer, context_options);
  const tok::Vocabulary vocab = tok::Vocabulary::build(corpus);
  auto config = model::TransformerConfig::tiny(vocab.size());
  config.max_seq_len = 48;
  config.dropout = 0.0f;
  const core::TrafficLM lm(vocab, config);
  const std::vector<SessionPlan> plans = make_plans(corpus, vocab, kSessions);

  // Bitwise references for every session. Computed before the fault
  // Scope is installed (no injected noise) and with no scheduler running
  // (batched forwards are single-driver).
  std::vector<std::vector<float>> ref_logits(kSessions);
  std::vector<double> ref_score(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    ref_logits[s] = lm.next_logits(plans[s].ids);
    ref_score[s] = lm.score(plans[s].tokens);
  }

  serve::SchedulerOptions scheduler_options;
  scheduler_options.max_queue = 512;
  scheduler_options.max_batch = 16;
  scheduler_options.per_session_pending = 4;
  scheduler_options.default_deadline_ms = 10'000;
  scheduler_options.degrade_queue_high = 128;
  scheduler_options.degrade_queue_low = 16;
  scheduler_options.degrade_hold_ticks = 4;
  scheduler_options.tick_stall_ms = 25;
  serve::Scheduler scheduler(lm, nullptr, scheduler_options);
  serve::HttpServer server(scheduler);
  server.start();

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> typed_rejects{0};
  std::atomic<std::uint64_t> typed_errors{0};
  std::atomic<std::uint64_t> untyped_failures{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> conn_failures{0};
  std::atomic<std::uint64_t> healthz_failures{0};
  std::atomic<std::uint64_t> requests_total{0};
  double drain_ms = -1.0;
  int max_degrade_seen = 0;

  const auto soak_start = Clock::now();
  {
    fault::Scope chaos(
        "seed=7,serve.conn.drop=0.05,model.kv.alloc=0.05,"
        "nn.workspace.oom=0.0005,core.decode.crash=0.02,"
        "serve.tick.stall=0.08");

    // ---- Phase 1: in-process scheduler load under fault fire ------------
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClientThreads; ++c)
        clients.emplace_back([&, c] {
          for (std::size_t round = 0; round < kRounds; ++round) {
            std::vector<std::pair<std::size_t, std::future<serve::Reply>>>
                in_flight;
            for (std::size_t s = c; s < kSessions; s += kClientThreads) {
              serve::Request request;
              request.session = s;
              switch ((round + s) % 3) {
                case 0:
                  request.op = serve::Op::kNextLogits;
                  request.ids = plans[s].ids;
                  break;
                case 1:
                  request.op = serve::Op::kScore;
                  request.tokens = plans[s].tokens;
                  break;
                default:
                  request.op = serve::Op::kGenerate;
                  request.sampling.max_tokens = 8;
                  request.seed = round * kSessions + s;
                  break;
              }
              requests_total.fetch_add(1);
              in_flight.emplace_back(s, scheduler.submit(std::move(request)));
            }
            for (auto& [s, future] : in_flight) {
              const serve::Reply reply = future.get();
              switch (reply.status) {
                case serve::Reply::Status::kOk: {
                  completed.fetch_add(1);
                  const std::size_t kind = (round + s) % 3;
                  if (kind == 0 && reply.logits != ref_logits[s])
                    mismatches.fetch_add(1);
                  if (kind == 1 && reply.score != ref_score[s])
                    mismatches.fetch_add(1);
                  break;
                }
                case serve::Reply::Status::kRejected:
                  // The reason enum IS the type; name lookup must hold.
                  if (serve::reject_reason_name(reply.reject).empty())
                    untyped_failures.fetch_add(1);
                  else
                    typed_rejects.fetch_add(1);
                  break;
                case serve::Reply::Status::kError:
                  if (reply.error.empty())
                    untyped_failures.fetch_add(1);
                  else
                    typed_errors.fetch_add(1);
                  break;
              }
            }
            max_degrade_seen =
                std::max(max_degrade_seen, scheduler.degrade_level());
          }
        });
      for (auto& t : clients) t.join();
    }

    // ---- Phase 2: loopback HTTP under connection drops ------------------
    {
      std::vector<std::thread> conns;
      for (std::size_t c = 0; c < kHttpConns; ++c)
        conns.emplace_back([&, c] {
          HttpClient client(server.port());
          for (std::size_t r = 0; r < kHttpRequestsPerConn; ++r) {
            const std::size_t s = (c * kHttpRequestsPerConn + r) % kSessions;
            int status = 0;
            std::string body;
            if (r % 5 == 4) {
              // Liveness must hold through the whole soak (drops excepted).
              if (client.request("GET", "/healthz", "", "", &status, &body) &&
                  status != 200)
                healthz_failures.fetch_add(1);
              continue;
            }
            serve::Request request;
            request.session = s;
            const bool score_op = (r + s) % 2 == 1;
            request.op =
                score_op ? serve::Op::kScore : serve::Op::kNextLogits;
            if (score_op)
              request.tokens = plans[s].tokens;
            else
              request.ids = plans[s].ids;
            const std::string target =
                score_op ? "/v1/score" : "/v1/next_logits";
            const std::string headers =
                (r % 3 == 0) ? "X-Netfm-Deadline-Ms: 8000\r\n" : "";
            requests_total.fetch_add(1);
            if (!client.request("POST", target, headers,
                                serve::request_to_json(request), &status,
                                &body)) {
              conn_failures.fetch_add(1);  // serve.conn.drop severed us
              continue;
            }
            const auto reply =
                serve::parse_reply(body, request.op);
            if (!reply) {
              untyped_failures.fetch_add(1);
              continue;
            }
            if (status == 200 && reply->status == serve::Reply::Status::kOk) {
              completed.fetch_add(1);
              if (score_op ? reply->score != ref_score[s]
                           : reply->logits != ref_logits[s])
                mismatches.fetch_add(1);
            } else if (status == 503 &&
                       reply->status == serve::Reply::Status::kRejected) {
              typed_rejects.fetch_add(1);
            } else if (status == 500 &&
                       reply->status == serve::Reply::Status::kError &&
                       !reply->error.empty()) {
              typed_errors.fetch_add(1);
            } else {
              untyped_failures.fetch_add(1);
            }
          }
        });
      for (auto& t : conns) t.join();
    }

    // ---- Drain, with faults still firing --------------------------------
    {
      const auto drain_start = Clock::now();
      HttpClient client(server.port());
      while (ms_since(drain_start) < 30'000.0) {
        int status = 0;
        std::string body;
        if (!client.request("GET", "/drainz", "", "", &status, &body)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;  // dropped mid-drain: reconnect and re-poll
        }
        if (status == 200 &&
            body.find("\"drained\":true") != std::string::npos) {
          drain_ms = ms_since(drain_start);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }
  const double soak_seconds = ms_since(soak_start) / 1000.0;
  server.stop();
  scheduler.stop();

  // Every fault point must have actually fired — a silent soak is a
  // broken soak, not a passing one.
  const char* kPoints[] = {"serve.conn.drop", "model.kv.alloc",
                           "nn.workspace.oom", "core.decode.crash",
                           "serve.tick.stall"};
  std::uint64_t point_fires[5] = {0, 0, 0, 0, 0};
  std::size_t silent_points = 0;
  for (const auto& stat : fault::stats()) {
    for (std::size_t i = 0; i < 5; ++i)
      if (stat.name == kPoints[i]) point_fires[i] = stat.fires;
  }
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("  fault %-20s fired %llu times\n", kPoints[i],
                static_cast<unsigned long long>(point_fires[i]));
    if (point_fires[i] == 0) ++silent_points;
  }

  const metrics::Snapshot snap = metrics::snapshot();
  const double total = static_cast<double>(requests_total.load());
  const double error_rate =
      total > 0 ? static_cast<double>(typed_errors.load()) / total : 0.0;
  std::printf(
      "chaos: %.0f requests in %.2fs — %llu ok, %llu typed rejects, %llu "
      "typed errors, %llu conn drops, %llu UNTYPED, %llu mismatches, "
      "drain %.0fms, max degrade level %d\n",
      total, soak_seconds,
      static_cast<unsigned long long>(completed.load()),
      static_cast<unsigned long long>(typed_rejects.load()),
      static_cast<unsigned long long>(typed_errors.load()),
      static_cast<unsigned long long>(conn_failures.load()),
      static_cast<unsigned long long>(untyped_failures.load()),
      static_cast<unsigned long long>(mismatches.load()), drain_ms,
      max_degrade_seen);

  std::vector<bench::BenchRecord> records = {
      {"chaos_serve", "requests", total, "request"},
      {"chaos_serve", "completed", static_cast<double>(completed.load()),
       "request"},
      {"chaos_serve", "typed_rejects",
       static_cast<double>(typed_rejects.load()), "request"},
      {"chaos_serve", "typed_errors",
       static_cast<double>(typed_errors.load()), "request"},
      {"chaos_serve", "untyped_failures",
       static_cast<double>(untyped_failures.load()), "request"},
      {"chaos_serve", "conn_failures",
       static_cast<double>(conn_failures.load()), "request"},
      {"chaos_serve", "healthz_failures",
       static_cast<double>(healthz_failures.load()), "request"},
      {"chaos_serve", "bitwise_mismatches",
       static_cast<double>(mismatches.load()), "count"},
      {"chaos_serve", "error_rate", error_rate, "fraction"},
      {"chaos_serve", "drain_ms", drain_ms, "ms"},
      {"chaos_serve", "silent_fault_points",
       static_cast<double>(silent_points), "count"},
      {"chaos_serve", "max_degrade_level",
       static_cast<double>(max_degrade_seen), "level"},
      {"chaos_serve", "degrade_transitions",
       static_cast<double>(
           counter_or_zero(snap, "serve.degrade.transitions")),
       "count"},
      {"chaos_serve", "deadline_rejects",
       static_cast<double>(
           counter_or_zero(snap, "serve.rejected.deadline_exceeded")),
       "count"},
      {"chaos_serve", "context_full_rejects",
       static_cast<double>(
           counter_or_zero(snap, "serve.rejected.context_full")),
       "count"},
      {"chaos_serve", "tick_stalls",
       static_cast<double>(counter_or_zero(snap, "serve.tick.stalled")),
       "count"},
  };
  for (std::size_t i = 0; i < 5; ++i)
    records.push_back({"chaos_serve", std::string("fault.") + kPoints[i],
                       static_cast<double>(point_fires[i]), "fire"});
  bench::write_bench_json("chaos_serve", records);

  bool failed = false;
  if (untyped_failures.load() != 0) {
    std::fprintf(stderr, "chaos_serve: FAILED — %llu untyped failures\n",
                 static_cast<unsigned long long>(untyped_failures.load()));
    failed = true;
  }
  if (mismatches.load() != 0) {
    std::fprintf(stderr, "chaos_serve: FAILED — %llu bitwise mismatches\n",
                 static_cast<unsigned long long>(mismatches.load()));
    failed = true;
  }
  if (healthz_failures.load() != 0) {
    std::fprintf(stderr, "chaos_serve: FAILED — /healthz went down\n");
    failed = true;
  }
  if (drain_ms < 0) {
    std::fprintf(stderr, "chaos_serve: FAILED — drain never completed\n");
    failed = true;
  }
  if (silent_points != 0) {
    std::fprintf(stderr, "chaos_serve: FAILED — %zu fault points never fired\n",
                 silent_points);
    failed = true;
  }
  return failed ? 1 : 0;
}
