// ShardRouter: the sharded front end of the streaming packing service.
//
// Tenant keys are hashed (FNV-1a 64, a stable hash — std::hash may differ
// across libstdc++ versions, and shard assignment must survive restarts)
// onto N shards. Each shard owns a DurableSession plus a bounded MPSC
// request queue and runs on its own ThreadPool worker; items of one tenant
// therefore always pack into one shard's bins, in submission order.
//
// Backpressure: a full queue is handled per the admission policy —
//   kBlock  — submit() waits for space (lossless, applies backpressure to
//             the producer);
//   kReject — submit() returns false immediately (caller sees the refusal);
//   kShed   — the oldest queued request is dropped to admit the new one
//             (freshest-wins, for load-shedding front ends).
//
// Resume: with RouterConfig::resume, every shard recovers its WAL first,
// and the worker drops requests whose (tenant, stream_index) the shard has
// already applied. Feeding the same input streams again therefore continues
// exactly where the crash happened — the skip test is a per-tenant
// high-water mark, which is sound because each shard applies a tenant's
// requests in submission order (single queue, single worker). The mark must
// be per tenant, not per shard: independent tenants hash onto the same
// shard with uncoordinated id spaces, and a shard-global mark would
// silently skip one tenant's ids once another pushed a larger one.
//
// Durability batching: a worker drains its whole queue at once, appends
// each offer with deferred durability (into the WAL's buffer), then issues
// ONE commit() for the batch before acknowledging any of it — so a busy
// shard pays one write(2) and, under fsync=every, one fsync per drained
// queue, not one per offer, and shards run those fsyncs concurrently,
// each on its own worker (GroupCommitCoordinator). The queue capacity
// bounds the work at risk between commits. An offer is never
// acknowledged (kApplied through the ack callback) before its commit
// returned.
//
// Memory: the router keeps no per-offer history. Placements leave only
// through the ack callback (the network front end answers each client
// from it; `cdbp serve --out` collects them there), and each shard's
// session holds live state only — so a long-running router's footprint
// tracks open bins, active items and tenants, not offers served.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "serve/durable_session.h"
#include "serve/serve_metrics.h"
#include "serve/wal.h"

namespace cdbp::serve {

/// What to do when a shard's request queue is full (see file comment).
enum class AdmissionPolicy { kBlock, kReject, kShed };

/// Outcome of try_submit(). kQueueFull is transient backpressure (retry
/// later); kShardDegraded is sticky — the shard's durability path failed
/// (ENOSPC, poisoned fsync) and it refuses all further work until the
/// process restarts and recovers. Callers that only need admitted-or-not
/// can keep using submit().
enum class SubmitStatus { kAccepted, kQueueFull, kShardDegraded };

[[nodiscard]] std::string to_string(SubmitStatus status);

[[nodiscard]] std::string to_string(AdmissionPolicy policy);
/// Parses "block" | "reject" | "shed"; throws std::invalid_argument.
[[nodiscard]] AdmissionPolicy parse_admission_policy(const std::string& s);

/// Stable 64-bit FNV-1a over the tenant key.
[[nodiscard]] std::uint64_t tenant_hash(std::string_view tenant) noexcept;

struct RouterConfig {
  std::string wal_dir;         ///< created if missing; one WAL+ckpt per shard
  std::size_t shards = 1;
  std::size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  std::uint64_t checkpoint_every = 0;  ///< 0 = no periodic checkpoints
  bool resume = false;
  /// Test/bench hook: microseconds each worker sleeps per request, to make
  /// backpressure deterministic (a slow consumer on demand).
  std::uint32_t worker_delay_us = 0;
  /// Per-shard WAL segment rotation threshold; 0 = single growing segment.
  std::uint64_t wal_segment_bytes = 0;
  /// Write a checkpoint per shard during stop(), after the queue drained
  /// and before the session finishes — the graceful-shutdown path of
  /// `cdbp serve --listen`, so a restart replays a WAL tail instead of the
  /// whole log.
  bool final_checkpoint = false;
  /// I/O environment every shard's durability path flows through. nullptr =
  /// the real filesystem; a test `io::Env` can fail one shard's disk while
  /// the others keep serving.
  io::Env* env = nullptr;
};

/// One request as routed. stream_index is the request's 1-based position
/// in ITS TENANT's id space — the global input line for file feeds (which
/// happens to be per-tenant monotone too), the client-chosen offer id for
/// the net front end. (tenant, stream_index) keys resume de-duplication.
struct ServeRequest {
  std::string tenant;
  std::uint64_t stream_index = 0;
  Time arrival = 0.0;
  Time departure = 0.0;
  Load size = 0.0;
  /// Admission stamp (mono_now_ns), set by submit() when 0: the epoch for
  /// this request's queue-wait and end-to-end ack latency.
  std::uint64_t admit_ns = 0;
};

/// One terminal outcome, as passed to the ack callback.
struct ServeResult {
  std::uint64_t stream_index = 0;
  std::string tenant;
  std::size_t shard = 0;
  std::uint64_t seq = 0;  ///< per-shard WAL sequence number
  BinId bin = kNoBin;
};

/// Terminal outcome of one admitted request, as reported to the ack
/// callback. Mirrors the worker-loop paths: kApplied fires only after the
/// batch's commit() returned (the durability ack), the rest are the ways an
/// admitted request ends without being placed.
enum class AckKind {
  kApplied,  ///< placed + committed; ServeResult fields all meaningful
  kSkipped,  ///< resume dedup — already durable from an earlier run
  kInvalid,  ///< rejected by session validation (bad interval)
  kDropped,  ///< discarded by a degrading/degraded shard, never acked
};

/// Per-request completion hook for push-style front ends (src/net/). Invoked
/// from shard worker threads — possibly several concurrently — after the
/// request reached its terminal state. For kSkipped/kInvalid/kDropped the
/// ServeResult carries stream_index + tenant + shard with seq/bin zeroed.
/// Callbacks must be fast and must not call back into the router.
using AckCallback = std::function<void(const ServeResult&, AckKind)>;

/// Per-shard accounting, stable after stop().
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t applied = 0;   ///< offers placed and logged this run
  std::uint64_t skipped = 0;   ///< resume de-duplicated (already in WAL)
  std::uint64_t invalid = 0;   ///< rejected by session validation
  std::uint64_t shed = 0;      ///< dropped from the queue (kShed)
  std::uint64_t queue_peak = 0;
  std::uint64_t wal_records = 0;  ///< total, including recovered ones
  std::uint64_t last_stream_index = 0;
  std::size_t open_bins = 0;      ///< at finish time
  Cost final_cost = 0.0;
  RecoveryReport recovery;
  /// True when the shard's durability path failed mid-run and it flipped
  /// to degraded mode (rejecting instead of serving). final_cost/open_bins
  /// are meaningless for a degraded shard.
  bool degraded = false;
  std::string degrade_reason;        ///< first failure's what(), when degraded
  std::uint64_t degraded_dropped = 0;  ///< queued requests discarded unacked
  /// This run's end-to-end (admission -> post-commit ack) latency, in
  /// microseconds. Empty under CDBP_OBS_OFF.
  obs::HistogramSnapshot ack_latency;
};

class ShardRouter {
 public:
  /// Builds all shard sessions (recovering each when config.resume) and
  /// starts one long-running worker per shard on a private ThreadPool.
  /// `make_algo` must produce a fresh deterministic instance per call;
  /// `algo_name` is the stable name stored in checkpoints.
  ShardRouter(RouterConfig config,
              const std::function<AlgorithmPtr()>& make_algo,
              std::string algo_name);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes one request to its tenant's shard. Returns false when the
  /// request was not admitted — kReject with a full queue, or a degraded
  /// shard. Thread-safe (multiple producers). Throws std::logic_error
  /// after stop().
  bool submit(ServeRequest req) {
    return try_submit(std::move(req)) == SubmitStatus::kAccepted;
  }

  /// Like submit() but reports WHY a request was refused: transient
  /// backpressure (kQueueFull) vs a degraded shard (kShardDegraded, sticky
  /// — see ShardStats::degraded). Healthy shards are unaffected by a
  /// sibling's degradation.
  SubmitStatus try_submit(ServeRequest req) {
    return try_submit_as(std::move(req), config_.admission);
  }

  /// try_submit with an explicit admission policy for THIS call, overriding
  /// RouterConfig::admission. The network listener runs its event loop
  /// non-blockingly (kReject) even when the router is configured kBlock —
  /// it implements blocking itself by parking offers and throttling reads.
  SubmitStatus try_submit_as(ServeRequest req, AdmissionPolicy policy);

  /// RouterConfig::admission: what a full queue does to try_submit.
  [[nodiscard]] AdmissionPolicy admission() const noexcept {
    return config_.admission;
  }

  /// Installs the per-request completion hook. Must be called before the
  /// first submit (the happens-before edge is the queue mutex; installing
  /// while workers are already draining is a race). Pass {} to clear.
  void set_on_ack(AckCallback cb);

  /// Shards currently degraded (sticky once set; live, readable any time).
  [[nodiscard]] std::size_t degraded_shards() const noexcept;

  /// Shard a tenant maps to (exposed for tests and `cdbp wal-dump`).
  [[nodiscard]] std::size_t shard_of(std::string_view tenant) const noexcept;

  /// Closes the queues, waits for every worker to drain, finalizes each
  /// session (finish + WAL close), and rethrows the first unexpected
  /// worker error. I/O failures do NOT surface here — they flip the
  /// failing shard to degraded mode (see ShardStats::degraded) while the
  /// rest keep serving. Idempotent. Stats are valid only after stop()
  /// returns.
  void stop();

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// Valid after stop().
  [[nodiscard]] const ShardStats& stats(std::size_t shard) const;
  /// Sum of per-shard final costs. Valid after stop().
  [[nodiscard]] Cost total_cost() const;

 private:
  /// Bounded MPSC queue: producers are submit() callers, the consumer is
  /// the shard's worker. close() wakes everyone; pop_batch() returns 0
  /// once closed and empty.
  class RequestQueue {
   public:
    /// `depth` (optional) tracks the live queue length; updated under the
    /// queue mutex so shed (drop oldest + admit newest, net zero) and
    /// batch drains stay exact.
    explicit RequestQueue(std::size_t capacity, obs::Gauge* depth = nullptr)
        : capacity_(capacity), depth_(depth) {}

    /// Returns false only under kReject with a full queue. Under kShed the
    /// oldest entry is dropped (counted in `shed`) and moved into `victim`
    /// when the caller passes one, so push-style front ends can still send
    /// the victim a terminal kDropped ack.
    bool push(ServeRequest req, AdmissionPolicy policy,
              std::optional<ServeRequest>* victim = nullptr);
    /// Blocks until at least one request (or close), then swaps every
    /// queued request into `out` (emptied first). Returns the number
    /// drained; 0 = closed + empty.
    std::size_t pop_batch(std::deque<ServeRequest>& out);
    void close();

    [[nodiscard]] std::uint64_t shed_count() const;
    [[nodiscard]] std::uint64_t peak() const;

   private:
    std::size_t capacity_;
    obs::Gauge* depth_;
    std::deque<ServeRequest> items_;
    std::uint64_t shed_ = 0;
    std::uint64_t peak_ = 0;
    bool closed_ = false;
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
  };

  struct Shard {
    std::unique_ptr<DurableSession> session;
    std::unique_ptr<RequestQueue> queue;
    ShardStats stats;
    std::future<void> done;
    /// Set (release) by the worker after stats.degrade_reason is written;
    /// producers read it (acquire) in try_submit. Sticky.
    std::atomic<bool> degraded{false};
  };

  void worker_loop(Shard& shard);
  void mark_degraded(Shard& shard, const std::string& reason);

  RouterConfig config_;
  /// Per-request completion hook; written before workers start consuming
  /// (set_on_ack contract), read by shard workers.
  AckCallback on_ack_;
  /// Per-shard/per-tenant instruments (declared before shards_ so workers
  /// never outlive it; see ServeMetrics for the naming/cardinality rules).
  ServeMetrics metrics_;
  /// Declared before shards_: sessions' WALs hold a pointer to the
  /// coordinator, so it must be destroyed after them.
  std::unique_ptr<GroupCommitCoordinator> group_commit_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<parallel::ThreadPool> pool_;
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;
};

}  // namespace cdbp::serve
