// Continuous-batching request scheduler: the bridge between many
// concurrent client sessions and one model.
//
// Admission is bounded (max_queue) with a per-session pending cap; both
// shed with an immediate *typed* reject reply rather than blocking, so
// overload degrades into fast, observable backpressure. Admitted requests
// wait in one FIFO; a worker thread drains up to max_batch of them per
// tick and batches compatible work:
//
//   next_logits  -> one padded no-grad forward for the whole group
//                   (TrafficLM::next_logits_batch — bitwise identical to
//                   per-request calls)
//   embed        -> one forward per pooling window via
//                   NetFM::embed_flows, at the longest flow's length
//   score        -> lockstep TrafficLM::score_batch, one fresh KV-cached
//                   decoder per request
//   generate     -> seeded TrafficLM::sample_batch, likewise
//
// Each group runs through one path: the batched call over all members,
// and if that throws, the same call over each member alone, so one
// poisoned request gets its own typed reply and its group-mates are
// served. A single request is the B=1 case of its group's call.
//
// Resilience (see DESIGN.md "Serving resilience"):
//
//   Deadlines    every request carries a latency budget (its own
//                deadline_ms or SchedulerOptions::default_deadline_ms).
//                Expired work is shed with a typed kDeadlineExceeded
//                reject instead of burning a batch slot — checked at
//                dequeue (serve.deadline.at_dequeue) and again after the
//                tick's stall window (serve.deadline.in_batch). Rejects
//                carry a retry_after_ms hint derived from queue depth and
//                the EWMA tick duration.
//   Degradation  an overload controller samples queue depth each tick
//                and walks a two-level ladder: L1 halves the effective
//                batch, L2 additionally sheds kGenerate with typed
//                kOverloaded rejects while score/embed/next_logits stay
//                live. Replies keep their bits at every level. Pressure
//                steps up one level per tick; degrade_hold_ticks calm
//                ticks step back down. serve.degrade.level gauge,
//                serve.degrade.transitions counter.
//   Drain/health begin_drain() stops admission (typed kShuttingDown) and
//                lets in-flight work finish; drained() reports completion.
//                The worker heartbeats so worker_alive() detects a wedged
//                tick (readiness probes). stop() is a bounded-time drain:
//                past drain_timeout_ms leftovers are rejected typed, never
//                silently dropped.
//   Faults       serve.tick.stall stalls a tick (chaos/watchdog testing);
//                fault::CrashInjected from model code (core.decode.crash)
//                and bad_alloc (nn.workspace.oom) are caught per request
//                group, retried per member, and surfaced as a typed error
//                reply — the worker never dies. A dry KV pool (or the
//                model.kv.alloc point) surfaces as typed kContextFull.
//
// Thread confinement: the scheduler runs all of its model work on its
// single worker thread. A no-grad forward writes no per-call state into
// the model, so direct next_logits_batch/embed_flows calls from other
// threads may overlap in-flight requests on the same TrafficLM/NetFM
// (ReentrantForward.ConcurrentBatchedCallsBitwiseEqualSerial). The only
// per-instance state a forward touches is the encoder's dropout stream,
// drawn in train mode alone; training also changes the weights, so it must
// not overlap any other call on the model. KV decoding on other threads
// stays safe because forward_incremental_batch touches only the caller's
// PagedKvCaches.
//
// KV lives only inside a tick: each score/generate request decodes on its
// own core::LmDecoder, built inside its group's call and destroyed when
// the call returns or throws, so its blocks are back in the scheduler's
// one KvBlockPool before the next group runs. Nothing carries from one
// request to the next, so two requests from one session may share a
// group.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/netfm.h"
#include "serve/protocol.h"

namespace netfm::serve {

/// NETFM_SERVE_DEADLINE_MS: server-side default request budget in ms
/// (0 / unset = no default deadline). Read once.
std::uint64_t default_serve_deadline_ms() noexcept;

/// NETFM_SERVE_DEGRADE: "0" or "off" disables the degradation ladder
/// (default on). Read once.
bool default_serve_degrade() noexcept;

struct SchedulerOptions {
  std::size_t max_queue = 1024;          // bounded admission queue
  std::size_t max_batch = 32;            // requests drained per tick
  std::size_t per_session_pending = 4;   // queued requests per session
  /// Ignored. Kept only so perfbench/src/decode_window.cpp still compiles;
  /// the next benchmark change deletes it.
  std::size_t session_capacity = 0;
  /// KV block pool size. 0 = max_batch x blocks per max_seq_len sequence,
  /// one tick's worst case, so a default-sized pool never runs dry.
  std::size_t kv_blocks = 0;

  /// Default per-request budget (ms from admission) applied when a request
  /// carries deadline_ms == 0. 0 = requests without their own deadline
  /// never expire. Seeded from NETFM_SERVE_DEADLINE_MS.
  std::uint64_t default_deadline_ms = default_serve_deadline_ms();

  /// Overload-degradation ladder on/off. Seeded from NETFM_SERVE_DEGRADE.
  bool degrade = default_serve_degrade();
  /// Queue depth at/above which a tick counts as pressure. 0 = derive
  /// 3/4 * max_queue at construction.
  std::size_t degrade_queue_high = 0;
  /// Queue depth at/below which a tick counts as calm. 0 = derive
  /// 1/4 * max_queue at construction.
  std::size_t degrade_queue_low = 0;
  /// Consecutive calm ticks required before stepping one level back down.
  std::size_t degrade_hold_ticks = 8;

  /// Bound on stop()'s drain: past this the worker rejects everything
  /// still queued with a typed kShuttingDown and exits.
  std::uint64_t drain_timeout_ms = 10'000;
  /// Heartbeat age beyond which worker_alive() reports a wedged worker.
  std::uint64_t heartbeat_stale_ms = 1'000;
  /// How long the serve.tick.stall fault point stalls a tick when it
  /// fires (tests/chaos dial this; the point never fires unarmed).
  std::uint64_t tick_stall_ms = 250;
};

class Scheduler {
 public:
  /// `fm` may be null when embed is not served (embed requests error).
  /// The worker thread starts immediately.
  Scheduler(const core::TrafficLM& lm, const core::NetFM* fm,
            SchedulerOptions options = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits the request (future resolves after a later tick) or sheds it
  /// (future already holds a typed reject). Never blocks on model work.
  std::future<Reply> submit(Request request);

  /// Stops admitting new work (submissions shed with kShuttingDown); the
  /// worker keeps ticking until everything in flight has been answered.
  /// Idempotent; stop() implies it.
  void begin_drain();

  /// True once a drain was requested (begin_drain or stop).
  bool draining() const noexcept { return draining_.load(); }

  /// True when a drain was requested and every admitted request has been
  /// answered (queue empty, no batch executing).
  bool drained() const;

  /// Stops admitting, drains everything already queued (bounded by
  /// drain_timeout_ms — leftovers are rejected typed, never dropped),
  /// joins the worker. Idempotent; the destructor calls it.
  void stop();

  /// Queued (admitted, not yet drained) requests.
  std::size_t queued() const;

  /// Requests dequeued into the tick currently executing (0 when idle).
  std::size_t active() const noexcept { return active_batch_.load(); }

  /// Ticks the worker has executed (each is <= max_batch requests).
  std::uint64_t ticks() const noexcept { return ticks_.load(); }

  /// Liveness: the worker thread has heartbeat within
  /// heartbeat_stale_ms (false while a tick is wedged/stalled, or after
  /// the worker exited). The readiness probe's signal.
  bool worker_alive() const;

  /// Current degradation-ladder level (0 = normal, 1 = half batch,
  /// 2 = also shedding generate).
  int degrade_level() const noexcept { return degrade_level_.load(); }

  /// The KV block pool every score/generate decoder draws from.
  const std::shared_ptr<model::KvBlockPool>& kv_pool() const noexcept {
    return kv_pool_;
  }

  /// Alias of *this, kept only so perfbench/src/layers.cpp still compiles
  /// (`sessions().kv_pool()`); the next benchmark change deletes it.
  Scheduler& sessions() noexcept { return *this; }

 private:
  struct Pending {
    Request request;
    std::promise<Reply> promise;
    std::chrono::steady_clock::time_point admitted;
    // admitted + effective budget; time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  void worker_loop();
  void run_tick(std::vector<Pending>& batch);
  void update_degradation(std::size_t depth_after);
  void set_degrade_level(int level);
  /// Backoff hint for a reject issued at queue depth `depth`.
  std::uint64_t retry_hint_ms(std::size_t depth) const;
  void touch_heartbeat() noexcept;

  const core::TrafficLM* lm_;
  const core::NetFM* fm_;
  SchedulerOptions options_;
  std::shared_ptr<model::KvBlockPool> kv_pool_;

  mutable std::mutex mutex_;
  std::condition_variable work_;
  std::deque<Pending> queue_;
  std::unordered_map<std::uint64_t, std::size_t> pending_per_session_;
  bool stop_requested_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::size_t> active_batch_{0};   // requests in the running tick
  std::atomic<std::uint64_t> heartbeat_ns_{0};  // steady-clock ns of last beat
  std::atomic<std::uint64_t> tick_ewma_ns_{0};  // smoothed tick duration

  std::atomic<int> degrade_level_{0};
  std::size_t calm_ticks_ = 0;  // worker thread only

  std::mutex join_mutex_;  // serializes concurrent stop() joins
  std::thread worker_;
};

}  // namespace netfm::serve
