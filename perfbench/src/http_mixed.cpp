// http_mixed: a closed loop over 4 keep-alive loopback connections driven
// by one client thread, equal thirds of next_logits, score and embed on
// 6-14-token prompts, against the tiny TrafficLM (max_seq_len 48) and a
// tiny NetFM. Model work is tens of microseconds a request, so the round
// trip is dominated by the HTTP server, the JSON codec and the scheduler
// hand-off.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "http_client.h"
#include "layers.h"
#include "serve/protocol.h"
#include "setup.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace netfm;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kPrompts = 240;
constexpr std::size_t kWindow = 48;  // LM context and embed pooling window
constexpr serve::Op kOps[] = {serve::Op::kNextLogits, serve::Op::kScore,
                              serve::Op::kEmbed};

/// One request of the cyclic schedule, with the reply it must get back.
struct Slot {
  serve::Request request;
  std::string wire;          // full HTTP request bytes
  std::uint64_t expect = 0;  // fnv1a of the expected reply body
  serve::Reply reply;        // the direct library call's answer
  std::uint32_t tokens = 0;  // positions the model processes
};

std::vector<Slot> make_slots(const World& world, std::uint64_t seed) {
  const auto& corpus = *world.corpus;
  Rng rng(mix_seed(seed, 0x68747470));
  std::vector<Slot> slots;
  for (std::size_t p = 0; p < kPrompts; ++p) {
    std::vector<std::string> context;
    while (context.size() < 6) context = corpus.sequence(rng.uniform(corpus.size()));
    const std::size_t len = std::min<std::size_t>(context.size(), 6 + rng.uniform(9));
    context.resize(len);
    for (const serve::Op op : kOps) {
      Slot slot;
      slot.request.op = op;
      slot.request.session = p % kConnections;
      if (op == serve::Op::kNextLogits) {
        slot.request.ids.push_back(tok::Vocabulary::kCls);
        for (const auto& t : context)
          slot.request.ids.push_back(world.vocab().id(t));
        slot.tokens = static_cast<std::uint32_t>(slot.request.ids.size());
      } else {
        slot.request.tokens = context;
        slot.request.max_seq_len = kWindow;
        slot.tokens = static_cast<std::uint32_t>(
            op == serve::Op::kScore ? std::min(len + 2, kWindow) - 1
                                    : std::min(len + 2, kWindow));
      }
      const std::string body = serve::request_to_json(slot.request);
      slot.wire = "POST /v1/" + std::string(serve::op_name(op)) +
                  " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body;
      slots.push_back(std::move(slot));
    }
  }
  // A seeded shuffle, so op order and prompt order are both mixed.
  for (std::size_t i = slots.size(); i > 1; --i)
    std::swap(slots[i - 1], slots[rng.uniform(i)]);
  return slots;
}

/// Direct library answers for every slot, computed while the scheduler is
/// idle (batched forwards must not overlap its in-flight requests).
void compute_references(const World& world, std::vector<Slot>& slots) {
  for (Slot& slot : slots) {
    serve::Reply& r = slot.reply;
    switch (slot.request.op) {
      case serve::Op::kNextLogits:
        r.logits = world.lm->next_logits(slot.request.ids);
        break;
      case serve::Op::kScore:
        r.score = world.lm->score(slot.request.tokens);
        break;
      case serve::Op::kEmbed:
        r.embedding = world.fm->embed(slot.request.tokens, kWindow);
        break;
      case serve::Op::kGenerate:
        break;
    }
    const std::string body = serve::reply_to_json(r, slot.request.op);
    slot.expect = fnv1a(body.data(), body.size());
  }
}

/// Drives the closed loop for `seconds`; returns the completed ops (empty
/// `samples` pointer = warm-up, nothing recorded). In-flight requests at
/// the deadline are drained and checked but not recorded.
void drive(World& world, const std::vector<Slot>& slots, double seconds,
           bool traced, std::vector<OpSample>* samples, ServeCounters& counters,
           std::size_t& next_slot) {
  struct Conn {
    HttpConnection http;
    std::size_t slot = 0;
    Clock::time_point sent;
    std::uint32_t span = 0;
    bool busy = false;
  };
  std::vector<Conn> conns(kConnections);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  auto last_sample = start;
  std::uint64_t request_id = next_slot;

  const auto record_failure = [&](Conn& c) {
    if (samples)
      samples->push_back({seconds_between(start, Clock::now()), 0.0, 0, false});
    trace::end(c.span);
    c.busy = false;
  };
  const auto send_next = [&](Conn& c) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (c.http.fd() < 0 && !c.http.open(world.server->port())) continue;
      c.slot = next_slot++ % slots.size();
      c.sent = Clock::now();
      c.span = traced ? trace::begin("http.request", ++request_id, trace::kRoot)
                      : 0;
      const std::uint32_t send_span =
          traced ? trace::begin("client.send", request_id, c.span) : 0;
      const bool ok = c.http.send_all(slots[c.slot].wire);
      trace::end(send_span);
      if (ok) {
        c.busy = true;
        return;
      }
      record_failure(c);
      c.http.close();
    }
    throw std::runtime_error("http_mixed: cannot reach the server");
  };

  for (Conn& c : conns) send_next(c);
  std::vector<pollfd> fds(kConnections);
  std::string body;
  for (;;) {
    const auto now = Clock::now();
    const bool sending = now < deadline;
    bool any_busy = false;
    for (const Conn& c : conns) any_busy |= c.busy;
    if (!sending && !any_busy) break;
    if (!sending && seconds_between(deadline, now) > 10.0)
      throw std::runtime_error("http_mixed: replies stopped arriving");
    for (std::size_t i = 0; i < kConnections; ++i)
      fds[i] = {conns[i].http.fd(), POLLIN, 0};
    ::poll(fds.data(), fds.size(), 100);
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = conns[i];
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)) || !c.busy) continue;
      if (!c.http.read_available()) {  // dropped connection: a failed op
        record_failure(c);
        c.http.close();
        if (sending) send_next(c);
        continue;
      }
      int status = 0;
      const int got = c.http.take_response(&status, &body);
      if (got == 0) continue;
      const auto done = Clock::now();
      ++counters.replies;
      const Slot& slot = slots[c.slot];
      const std::uint32_t check_span =
          traced ? trace::begin("client.check", 0, c.span) : 0;
      const bool ok = got == 1 && status == 200;
      if (got == 1 && status == 503) ++counters.rejected;
      if (ok && fnv1a(body.data(), body.size()) != slot.expect)
        ++counters.mismatches;
      trace::end(check_span);
      trace::end(c.span);
      c.busy = false;
      if (samples && done <= deadline)
        samples->push_back({seconds_between(start, done),
                            std::chrono::duration<double, std::milli>(done - c.sent).count(),
                            ok ? slot.tokens : 0u, ok});
      if (got < 0) c.http.close();
      if (sending) send_next(c);
    }
    counters.degrade_max =
        std::max(counters.degrade_max, world.scheduler->degrade_level());
    if (traced && seconds_between(last_sample, Clock::now()) >= 1e-3) {
      last_sample = Clock::now();
      counters.queue_depth_sum += static_cast<double>(world.scheduler->queued());
      ++counters.queue_depth_samples;
    }
  }
}

/// JSON numbers are doubles on the wire: protocol.cpp encodes and parses
/// the generate seed through a double, so a seed is carried exactly only
/// below 2^53. Returns how many of `probes` 64-bit seeds survive
/// request_to_json -> parse_request unchanged.
std::size_t seeds_round_tripped(std::uint64_t seed, std::size_t probes) {
  std::size_t same = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    serve::Request request;
    request.op = serve::Op::kGenerate;
    request.seed = mix_seed(seed, 0x726f756e + i) | (1ull << 62);
    std::string error;
    const auto parsed = serve::parse_request(
        "/v1/generate", serve::request_to_json(request), &error);
    same += parsed && parsed->seed == request.seed;
  }
  return same;
}

/// Check-only pass for the fourth op, outside the measured load: seeded
/// generate requests over HTTP, each reply body compared with reply_to_json
/// of TrafficLM::sample with the same seed and options. Seeds stay below
/// 2^53, the range the wire format carries exactly (see above). Returns the
/// number of mismatched or failed replies.
std::uint64_t check_generate(World& world, std::uint64_t seed) {
  constexpr std::size_t kRequests = 8;
  constexpr std::uint64_t kExactSeeds = (1ull << 53) - 1;
  std::vector<std::string> wires, expected;
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Request request;
    request.op = serve::Op::kGenerate;
    request.session = i % kConnections;
    request.sampling.max_tokens = 30;
    request.sampling.top_k = i % 2 ? 8 : 0;
    request.seed = mix_seed(seed, 0x67656e + i) & kExactSeeds;
    Rng draw(request.seed);
    serve::Reply direct;
    direct.tokens = world.lm->sample(request.sampling, draw);
    expected.push_back(serve::reply_to_json(direct, request.op));
    const std::string body = serve::request_to_json(request);
    wires.push_back("POST /v1/generate HTTP/1.1\r\nHost: localhost\r\n"
                    "Content-Length: " + std::to_string(body.size()) +
                    "\r\n\r\n" + body);
  }
  HttpConnection http;
  if (!http.open(world.server->port())) return kRequests;
  std::uint64_t bad = 0;
  std::string body;
  for (std::size_t i = 0; i < kRequests; ++i) {
    int status = 0, got = 0;
    if (http.send_all(wires[i])) {
      pollfd fd{http.fd(), POLLIN, 0};
      while ((got = http.take_response(&status, &body)) == 0 &&
             ::poll(&fd, 1, 10000) > 0 && http.read_available()) {
      }
    }
    if (got != 1 || status != 200 || body != expected[i]) {
      if (bad++ == 0)
        std::printf("generate mismatch: status %d\n  got      %.300s\n  "
                    "expected %.300s\n",
                    status, body.c_str(), expected[i].c_str());
    }
    if (got != 1) {  // the connection is unusable: the rest fail too
      bad += kRequests - i - 1;
      break;
    }
  }
  constexpr std::size_t kProbes = 8;
  std::printf("generate over HTTP: %zu seeded requests (seeds below 2^53), "
              "%llu differ from TrafficLM::sample; known defect: %zu of %zu "
              "seeds at or above 2^53 survive the request codec\n",
              kRequests, static_cast<unsigned long long>(bad),
              seeds_round_tripped(seed, kProbes), kProbes);
  return bad;
}

}  // namespace

void run_http_mixed(const Args& args, Report& report) {
  WorldSpec spec;
  spec.models = WorldSpec::Models::kServeTiny;
  spec.scheduler = true;
  spec.http = true;
  std::vector<StageTimes> setups;
  auto world = build_world_repeated(spec, args.seed, args.workdir,
                                    kSetupRepeats, &setups);
  const StageTimes setup = median_times(setups);

  std::vector<Slot> slots = make_slots(*world, args.seed);
  compute_references(*world, slots);
  std::printf("http_mixed: %zu request slots over %zu prompts, vocab %zu, "
              "%zu keep-alive connections\n",
              slots.size(), kPrompts, world->vocab().size(), kConnections);

  ServeCounters counters;
  TickMeter meter;
  std::size_t next_slot = 0;
  const Measurement m = measure(
      args, report,
      metered(
          [&](double seconds, bool traced, std::vector<OpSample>* samples) {
            drive(*world, slots, seconds, traced, samples, counters,
                  next_slot);
          },
          *world->scheduler, counters, meter));

  PerLayer layers;
  if (args.trace) {
    layers.trace_overhead_share = m.trace_overhead_share;
    fill_tick_layers(layers, meter);
    layers.queue_depth_mean = counters.queue_depth_mean();
    fill_kv_layers(layers, *world->scheduler);
    fill_setup_layers(layers, setup, *world);

    // Replays on this workload's own inputs, with the scheduler idle.
    const std::size_t group = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(layers.requests_per_tick / 3)));
    std::vector<std::vector<int>> ids;
    std::vector<std::vector<std::string>> contexts;
    std::vector<WireSample> wire;
    for (const Slot& s : slots) {
      if (s.request.op == serve::Op::kNextLogits) ids.push_back(s.request.ids);
      if (s.request.op == serve::Op::kScore) contexts.push_back(s.request.tokens);
      const std::size_t head_end = s.wire.find("\r\n\r\n");
      wire.push_back({s.wire.substr(0, head_end),
                      "/v1/" + std::string(serve::op_name(s.request.op)),
                      s.wire.substr(head_end + 4), s.reply, s.request.op});
    }
    replay_protocol(layers, wire, 0.3);
    replay_next_logits(layers, *world->lm, ids, group, 0.3);
    replay_embed(layers, *world->fm, contexts, kWindow, group, 0.3);
    replay_score(layers, *world->lm, kWindow, contexts, group, 0.3);
    replay_advance_batch(layers, *world->lm, contexts, 0.3);
    replay_forward_infer(layers, *world->fm,
                         std::span(contexts).first(group), kWindow, 0.3);
    const auto& config = world->fm->config();
    replay_matmul(layers, kWindow * group, config.d_model, config.d_ffn, 0.3);

    // Round trip = io-thread protocol work + the tick the request rides in
    // (about requests_per_tick / 3 group calls of each op) + what no replay
    // covers: sockets, thread hand-offs, queueing.
    const auto spans = trace::aggregate();
    const double protocol_us =
        layers.parse_http_head_us + layers.parse_request_us +
        layers.reply_to_json_us +
        spans.at("serve.protocol.http_response").mean_us();
    const double tick_model_us =
        layers.requests_per_tick / 3.0 *
        (layers.next_logits_batch_us + layers.embed_flows_us +
         spans.at("core.score_batch").mean_us()) /
        static_cast<double>(group);
    const trace::Aggregate& rtt = spans.at("http.request");
    const double rtt_us = rtt.mean_us();
    layers.unattributed_share = 1.0 - (protocol_us + tick_model_us) / rtt_us;
    std::printf(
        "round trip %.1f us (mean of %llu traced) = protocol %.1f us "
        "(%.1f%%) + tick model work %.1f us (%.1f%%) + unattributed %.1f us "
        "(%.1f%%); client send and check inside it %.1f us\n",
        rtt_us, static_cast<unsigned long long>(rtt.count), protocol_us,
        100 * protocol_us / rtt_us, tick_model_us, 100 * tick_model_us / rtt_us,
        rtt_us - protocol_us - tick_model_us, 100 * layers.unattributed_share,
        rtt.mean_us() - rtt.mean_self_us());
  }
  layers.rejected = static_cast<double>(counters.rejected);
  layers.degrade_level_max = counters.degrade_max;

  // Codec round trip: every expected body parses back to the same bits.
  std::uint64_t codec_mismatches = 0;
  for (const Slot& s : slots) {
    const auto parsed =
        serve::parse_reply(serve::reply_to_json(s.reply, s.request.op), s.request.op);
    if (!parsed || parsed->logits != s.reply.logits ||
        parsed->embedding != s.reply.embedding ||
        std::memcmp(&parsed->score, &s.reply.score, sizeof(double)) != 0)
      ++codec_mismatches;
  }
  std::printf("codec round trip: %llu mismatches over %zu expected bodies\n",
              static_cast<unsigned long long>(codec_mismatches), slots.size());
  counters.mismatches += check_generate(*world, args.seed);
  check_serving(counters, report);
  if (codec_mismatches) report.fail("reply codec does not round-trip bitwise");

  if (args.trace)
    emit_per_layer(layers, "http_mixed", report);
  else
    add_end_to_end(report, m.e2e, setup.total_s, m.rss_mb);
}

}  // namespace perfbench
