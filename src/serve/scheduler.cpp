#include "serve/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string_view>

#include "common/fault.h"
#include "common/metrics.h"

namespace netfm::serve {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point since) noexcept {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Highest degradation-ladder level; see SchedulerOptions.
constexpr int kMaxDegradeLevel = 2;

}  // namespace

std::uint64_t default_serve_deadline_ms() noexcept {
  static const std::uint64_t value = [] {
    const char* env = std::getenv("NETFM_SERVE_DEADLINE_MS");
    if (env == nullptr || *env == '\0') return std::uint64_t{0};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end == nullptr || *end != '\0') return std::uint64_t{0};
    return static_cast<std::uint64_t>(parsed);
  }();
  return value;
}

bool default_serve_degrade() noexcept {
  static const bool value = [] {
    const char* env = std::getenv("NETFM_SERVE_DEGRADE");
    if (env == nullptr || *env == '\0') return true;
    const std::string_view v(env);
    return !(v == "0" || v == "off" || v == "false");
  }();
  return value;
}

Scheduler::Scheduler(const core::TrafficLM& lm, const core::NetFM* fm,
                     SchedulerOptions options)
    : lm_(&lm),
      fm_(fm),
      options_(options),
      kv_pool_(lm.make_kv_pool(options.kv_blocks != 0
                                   ? options.kv_blocks
                                   : options.max_batch *
                                         lm.kv_blocks_per_sequence())) {
  if (options_.degrade_queue_high == 0)
    options_.degrade_queue_high =
        std::max<std::size_t>(1, options_.max_queue * 3 / 4);
  if (options_.degrade_queue_low == 0)
    options_.degrade_queue_low = options_.max_queue / 4;
  touch_heartbeat();
  worker_ = std::thread([this] { worker_loop(); });
}

Scheduler::~Scheduler() { stop(); }

std::future<Reply> Scheduler::submit(Request request) {
  static const auto c_admitted = metrics::counter("serve.admitted");
  static const auto c_queue_full =
      metrics::counter("serve.rejected.queue_full");
  static const auto c_session_busy =
      metrics::counter("serve.rejected.session_busy");
  static const auto c_shutdown =
      metrics::counter("serve.rejected.shutting_down");
  static const auto c_overloaded =
      metrics::counter("serve.rejected.overloaded");

  std::promise<Reply> promise;
  std::future<Reply> future = promise.get_future();
  const auto now = Clock::now();

  std::unique_lock<std::mutex> lock(mutex_);
  // draining_ is only ever set while mutex_ is held (begin_drain/stop), so
  // checking it under the lock closes the stop/submit race: once a drain
  // began, no request can slip into a queue the worker may already have
  // abandoned — it is rejected typed instead of hanging on a dead future.
  if (draining_.load(std::memory_order_relaxed)) {
    lock.unlock();
    c_shutdown.add();
    promise.set_value(Reply::rejected(RejectReason::kShuttingDown));
    return future;
  }
  const std::size_t depth = queue_.size();
  if (depth >= options_.max_queue) {
    lock.unlock();
    c_queue_full.add();
    promise.set_value(
        Reply::rejected(RejectReason::kQueueFull, retry_hint_ms(depth)));
    return future;
  }
  if (request.op == Op::kGenerate &&
      degrade_level_.load(std::memory_order_relaxed) >= kMaxDegradeLevel) {
    lock.unlock();
    c_overloaded.add();
    promise.set_value(
        Reply::rejected(RejectReason::kOverloaded, retry_hint_ms(depth)));
    return future;
  }
  std::size_t& session_pending = pending_per_session_[request.session];
  if (session_pending >= options_.per_session_pending) {
    lock.unlock();
    c_session_busy.add();
    promise.set_value(
        Reply::rejected(RejectReason::kSessionBusy, retry_hint_ms(depth)));
    return future;
  }
  ++session_pending;
  const std::uint64_t budget_ms =
      request.deadline_ms != 0 ? request.deadline_ms
                               : options_.default_deadline_ms;
  const auto deadline = budget_ms != 0
                            ? now + std::chrono::milliseconds(budget_ms)
                            : Clock::time_point::max();
  queue_.push_back(
      Pending{std::move(request), std::move(promise), now, deadline});
  lock.unlock();
  c_admitted.add();
  work_.notify_one();
  return future;
}

void Scheduler::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_.store(true, std::memory_order_relaxed);
  }
  work_.notify_all();
}

bool Scheduler::drained() const {
  if (!draining_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && active_batch_.load() == 0;
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
    draining_.store(true, std::memory_order_relaxed);
  }
  work_.notify_all();
  {
    // Concurrent stop() calls (e.g. explicit stop racing the destructor)
    // must not both reach join.
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (worker_.joinable()) worker_.join();
  }
  // Belt and braces: anything still queued after the worker exited gets a
  // typed answer — a client must never hang on a dead future.
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers.swap(queue_);
    pending_per_session_.clear();
  }
  if (!leftovers.empty()) {
    static const auto c_shutdown =
        metrics::counter("serve.rejected.shutting_down");
    c_shutdown.add(leftovers.size());
    for (Pending& p : leftovers)
      p.promise.set_value(Reply::rejected(RejectReason::kShuttingDown));
  }
}

std::size_t Scheduler::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool Scheduler::worker_alive() const {
  const std::uint64_t beat = heartbeat_ns_.load(std::memory_order_relaxed);
  const std::uint64_t now = now_ns();
  return now - beat <= options_.heartbeat_stale_ms * 1'000'000;
}

void Scheduler::touch_heartbeat() noexcept {
  heartbeat_ns_.store(now_ns(), std::memory_order_relaxed);
}

std::uint64_t Scheduler::retry_hint_ms(std::size_t depth) const {
  const std::uint64_t ewma_ns = tick_ewma_ns_.load(std::memory_order_relaxed);
  const std::uint64_t tick_ms =
      std::max<std::uint64_t>(1, ewma_ns / 1'000'000);
  const std::uint64_t ticks_ahead =
      depth / std::max<std::size_t>(1, options_.max_batch) + 1;
  return std::min<std::uint64_t>(60'000, ticks_ahead * tick_ms);
}

void Scheduler::set_degrade_level(int level) {
  static const auto g_level = metrics::gauge("serve.degrade.level");
  static const auto c_transitions =
      metrics::counter("serve.degrade.transitions");
  if (level == degrade_level_.load(std::memory_order_relaxed)) return;
  degrade_level_.store(level, std::memory_order_relaxed);
  g_level.set(static_cast<double>(level));
  c_transitions.add();
}

void Scheduler::update_degradation(std::size_t depth_after) {
  if (!options_.degrade) return;
  const int level = degrade_level_.load(std::memory_order_relaxed);
  if (depth_after >= options_.degrade_queue_high) {
    calm_ticks_ = 0;
    if (level < kMaxDegradeLevel) set_degrade_level(level + 1);
  } else if (depth_after <= options_.degrade_queue_low && level > 0) {
    if (++calm_ticks_ >= options_.degrade_hold_ticks) {
      calm_ticks_ = 0;
      set_degrade_level(level - 1);
    }
  } else {
    // Hysteresis band between low and high: hold the level, restart the
    // calm streak.
    calm_ticks_ = 0;
  }
}

void Scheduler::worker_loop() {
  static const auto h_queue = metrics::histogram("serve.queue_ns");
  static const auto c_shutdown =
      metrics::counter("serve.rejected.shutting_down");
  std::vector<Pending> batch;
  bool drain_deadline_set = false;
  Clock::time_point drain_deadline{};
  const auto on_exit = [this] {
    // A stopped worker holds no level: walk the serve.degrade.level gauge
    // home rather than leave it reporting a ladder nobody runs.
    set_degrade_level(0);
    touch_heartbeat();
  };
  for (;;) {
    batch.clear();
    std::size_t depth_after = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Poll-wait so the heartbeat keeps beating while idle; only a
      // wedged *tick* (model code stuck) lets it go stale.
      for (;;) {
        touch_heartbeat();
        if (!queue_.empty() || stop_requested_) break;
        work_.wait_for(lock, std::chrono::milliseconds(50));
        // An idle poll counts as a calm tick — the ladder must walk back
        // home after a burst even when no further traffic arrives.
        if (queue_.empty() && !stop_requested_) update_degradation(0);
      }
      if (stop_requested_) {
        if (queue_.empty()) {
          on_exit();
          return;  // drained
        }
        if (!drain_deadline_set) {
          drain_deadline_set = true;
          drain_deadline =
              Clock::now() +
              std::chrono::milliseconds(options_.drain_timeout_ms);
        } else if (Clock::now() >= drain_deadline) {
          // Bounded drain overran: answer everything left, typed.
          std::deque<Pending> leftovers;
          leftovers.swap(queue_);
          pending_per_session_.clear();
          lock.unlock();
          c_shutdown.add(leftovers.size());
          for (Pending& p : leftovers)
            p.promise.set_value(
                Reply::rejected(RejectReason::kShuttingDown));
          on_exit();
          return;
        }
      }
      std::size_t take_limit = options_.max_batch;
      if (options_.degrade &&
          degrade_level_.load(std::memory_order_relaxed) >= 1)
        take_limit = std::max<std::size_t>(1, options_.max_batch / 2);
      const std::size_t take = std::min(queue_.size(), take_limit);
      for (std::size_t i = 0; i < take; ++i) {
        Pending& p = queue_.front();
        auto it = pending_per_session_.find(p.request.session);
        if (it != pending_per_session_.end() && --it->second == 0)
          pending_per_session_.erase(it);
        batch.push_back(std::move(p));
        queue_.pop_front();
      }
      active_batch_.store(batch.size());
      depth_after = queue_.size();
    }
    for (const Pending& p : batch) h_queue.record(elapsed_ns(p.admitted));
    update_degradation(depth_after);
    const auto tick_start = Clock::now();
    run_tick(batch);
    const auto tick_ns = static_cast<std::uint64_t>(elapsed_ns(tick_start));
    const std::uint64_t prev_ewma =
        tick_ewma_ns_.load(std::memory_order_relaxed);
    tick_ewma_ns_.store(
        prev_ewma == 0 ? tick_ns : (3 * prev_ewma + tick_ns) / 4,
        std::memory_order_relaxed);
    active_batch_.store(0);
    touch_heartbeat();
    ticks_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Scheduler::run_tick(std::vector<Pending>& batch) {
  static const auto h_batch = metrics::histogram("serve.batch_ns");
  static const auto h_reply = metrics::histogram("serve.reply_ns");
  static const auto h_size =
      metrics::histogram("serve.batch.requests", "request");
  static const auto c_deadline =
      metrics::counter("serve.rejected.deadline_exceeded");
  static const auto c_deadline_dequeue =
      metrics::counter("serve.deadline.at_dequeue");
  static const auto c_deadline_in_batch =
      metrics::counter("serve.deadline.in_batch");
  static const auto c_overloaded =
      metrics::counter("serve.rejected.overloaded");
  static const auto c_context_full =
      metrics::counter("serve.rejected.context_full");
  static const auto g_kv_blocks =
      metrics::gauge("serve.kv.blocks_in_use", "block");
  static const auto g_kv_bytes = metrics::gauge("serve.kv.bytes", "byte");
  static const auto c_stalled = metrics::counter("serve.tick.stalled");
  static const auto f_stall = fault::point("serve.tick.stall");
  h_size.record(static_cast<double>(batch.size()));

  std::vector<Reply> replies(batch.size());
  std::vector<char> done(batch.size(), 0);

  const auto sweep_expired = [&](const metrics::Counter& where) {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i] || batch[i].deadline >= now) continue;
      replies[i] = Reply::rejected(RejectReason::kDeadlineExceeded);
      done[i] = 1;
      c_deadline.add();
      where.add();
    }
  };

  // Shed already-expired work before it burns a batch slot.
  sweep_expired(c_deadline_dequeue);

  // Chaos point: a wedged tick. The heartbeat goes stale for the stall's
  // duration, so readiness probes observe it; deadlines crossed during the
  // stall shed below as in-batch expiries.
  if (f_stall.fire()) {
    c_stalled.add();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.tick_stall_ms));
    sweep_expired(c_deadline_in_batch);
  }
  touch_heartbeat();

  // The top level sheds generate in-tick too: requests admitted before
  // the ladder reached it still get the typed reject instead of the
  // expensive decode.
  if (options_.degrade &&
      degrade_level_.load(std::memory_order_relaxed) >= kMaxDegradeLevel) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i] || batch[i].request.op != Op::kGenerate) continue;
      replies[i] = Reply::rejected(RejectReason::kOverloaded,
                                   retry_hint_ms(queued()));
      done[i] = 1;
      c_overloaded.add();
    }
  }

  const auto batch_start = Clock::now();

  const auto reject_context_full = [&](std::size_t i) {
    c_context_full.add();
    replies[i] =
        Reply::rejected(RejectReason::kContextFull, retry_hint_ms(queued()));
  };

  // Runs `group` over all `members` (indices into batch) as one batched
  // call. If that throws (a bad input, an injected crash, a dry KV pool),
  // each member runs alone, so one poisoned request can't take down its
  // group-mates; a member that still throws gets its own typed reply.
  // Groups write replies only after their batched call returns and build
  // their inputs afresh per call (decoders, RNGs), so a failed attempt
  // leaves nothing behind.
  const auto run_group = [&](std::span<const std::size_t> members,
                             const auto& group) {
    if (members.empty()) return;
    bool retry_alone = false;
    try {
      group(members);
    } catch (const model::ContextFullError&) {
      // Run alone, a lone member would ask the same pool for the same
      // blocks again.
      if (members.size() == 1)
        reject_context_full(members[0]);
      else
        retry_alone = true;
    } catch (const fault::CrashInjected&) {
      retry_alone = true;
    } catch (const std::exception&) {
      retry_alone = true;
    }
    for (std::size_t m = 0; retry_alone && m < members.size(); ++m) {
      const std::size_t i = members[m];
      try {
        group(members.subspan(m, 1));
      } catch (const model::ContextFullError&) {
        reject_context_full(i);
      } catch (const fault::CrashInjected& crash) {
        replies[i] = Reply::errored("fault injected: " + crash.point);
      } catch (const std::exception& e) {
        replies[i] = Reply::errored(e.what());
      }
    }
    touch_heartbeat();
  };
  const auto pending_ops = [&](Op op) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (!done[i] && batch[i].request.op == op) members.push_back(i);
    return members;
  };

  // One padded forward for all next_logits requests in this tick.
  run_group(pending_ops(Op::kNextLogits),
            [&](std::span<const std::size_t> group) {
              std::vector<std::vector<int>> ids;
              for (const std::size_t i : group)
                ids.push_back(batch[i].request.ids);
              auto logits = lm_->next_logits_batch(ids);
              for (std::size_t g = 0; g < group.size(); ++g)
                replies[group[g]].logits = std::move(logits[g]);
            });

  // One forward per pooling window for the embed requests.
  std::vector<std::size_t> embed_index = pending_ops(Op::kEmbed);
  if (fm_ == nullptr) {
    for (const std::size_t i : embed_index)
      replies[i] = Reply::errored("embed is not served (no NetFM)");
    embed_index.clear();
  }
  std::stable_sort(embed_index.begin(), embed_index.end(),
                   [&](std::size_t a, std::size_t b) {
                     return batch[a].request.max_seq_len <
                            batch[b].request.max_seq_len;
                   });
  for (auto at = embed_index.begin(); at != embed_index.end();) {
    const auto end = std::find_if(at, embed_index.end(), [&](std::size_t i) {
      return batch[i].request.max_seq_len != batch[*at].request.max_seq_len;
    });
    run_group({at, end}, [&](std::span<const std::size_t> group) {
      std::vector<std::vector<std::string>> contexts;
      for (const std::size_t i : group)
        contexts.push_back(batch[i].request.tokens);
      auto embedded =
          fm_->embed_flows(contexts, batch[group[0]].request.max_seq_len);
      for (std::size_t g = 0; g < group.size(); ++g)
        replies[group[g]].embedding = std::move(embedded[g]);
    });
    at = end;
  }

  // Decoder-backed ops: every request decodes on a fresh decoder of its
  // own, built inside the group call, so its KV blocks return to the pool
  // when the call returns or unwinds. Each group runs as lockstep batched
  // decode steps (one padded forward per step across the group).
  std::size_t kv_peak_blocks = 0;
  const auto make_decoders = [&](std::size_t n) {
    std::vector<core::LmDecoder> owned;
    owned.reserve(n);
    for (std::size_t g = 0; g < n; ++g) owned.emplace_back(*lm_, kv_pool_);
    return owned;
  };
  const auto pointers = [](std::vector<core::LmDecoder>& owned) {
    std::vector<core::LmDecoder*> out;
    for (core::LmDecoder& d : owned) out.push_back(&d);
    return out;
  };
  const auto note_kv = [&] {
    // Decoders only grow, so the pool is at this group's peak now.
    kv_peak_blocks = std::max(kv_peak_blocks, kv_pool_->blocks_in_use());
  };
  run_group(pending_ops(Op::kScore),
            [&](std::span<const std::size_t> group) {
              std::vector<std::vector<std::string>> sequences;
              for (const std::size_t i : group)
                sequences.push_back(batch[i].request.tokens);
              std::vector<core::LmDecoder> decoders =
                  make_decoders(group.size());
              const auto scores =
                  lm_->score_batch(sequences, pointers(decoders));
              note_kv();
              for (std::size_t g = 0; g < group.size(); ++g)
                replies[group[g]].score = scores[g];
            });
  run_group(pending_ops(Op::kGenerate),
            [&](std::span<const std::size_t> group) {
              std::vector<core::SampleOptions> sampling;
              std::vector<Rng> rngs;
              rngs.reserve(group.size());
              std::vector<Rng*> rng_ptrs;
              for (const std::size_t i : group) {
                sampling.push_back(batch[i].request.sampling);
                rngs.emplace_back(batch[i].request.seed);
                rng_ptrs.push_back(&rngs.back());
              }
              std::vector<core::LmDecoder> decoders =
                  make_decoders(group.size());
              auto sampled =
                  lm_->sample_batch(sampling, rng_ptrs, pointers(decoders));
              note_kv();
              for (std::size_t g = 0; g < group.size(); ++g)
                replies[group[g]].tokens = std::move(sampled[g]);
            });
  g_kv_blocks.set(static_cast<double>(kv_peak_blocks));
  g_kv_bytes.set(static_cast<double>(kv_peak_blocks *
                                     kv_pool_->bytes_per_block()));
  h_batch.record(elapsed_ns(batch_start));

  const auto reply_start = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].promise.set_value(std::move(replies[i]));
  h_reply.record(elapsed_ns(reply_start));
}

}  // namespace netfm::serve
