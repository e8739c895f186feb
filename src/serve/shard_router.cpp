#include "serve/shard_router.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"

namespace cdbp::serve {

namespace {

obs::Counter& g_submitted =
    obs::MetricsRegistry::global().counter("serve.submitted");
obs::Counter& g_rejected =
    obs::MetricsRegistry::global().counter("serve.rejected");
obs::Counter& g_shed = obs::MetricsRegistry::global().counter("serve.shed");
obs::Counter& g_skipped =
    obs::MetricsRegistry::global().counter("serve.resume_skipped");
obs::Counter& g_batches =
    obs::MetricsRegistry::global().counter("serve.batches");
// Degraded-mode surface: shards that lost their durability path, requests
// they refused, and queued work discarded unacknowledged when they flipped.
obs::Gauge& g_degraded_shards =
    obs::MetricsRegistry::global().gauge("serve.degraded.shards");
obs::Counter& g_degraded_rejected =
    obs::MetricsRegistry::global().counter("serve.degraded.rejected");
obs::Counter& g_degraded_dropped =
    obs::MetricsRegistry::global().counter("serve.degraded.dropped");

/// Admission timestamp for the request-lifecycle histograms. Under
/// CDBP_OBS_OFF requests stay unstamped (admit_ns == 0), which disables
/// every latency-recording path without per-call ifdefs.
std::uint64_t admit_stamp() noexcept {
#ifdef CDBP_OBS_OFF
  return 0;
#else
  return mono_now_ns();
#endif
}

void make_dir(io::Env& env, const std::string& path) {
  int err = 0;
  if (env.mkdir(path, err) == 0 || err == EEXIST) return;
  throw std::runtime_error("serve: mkdir failed for '" + path +
                           "': " + std::strerror(err));
}

std::string shard_file(const std::string& dir, std::size_t shard,
                       const char* suffix) {
  return dir + "/shard-" + std::to_string(shard) + suffix;
}

}  // namespace

std::string to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kShed:
      return "shed";
  }
  return "?";
}

std::string to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue-full";
    case SubmitStatus::kShardDegraded:
      return "shard-degraded";
  }
  return "?";
}

AdmissionPolicy parse_admission_policy(const std::string& s) {
  if (s == "block") return AdmissionPolicy::kBlock;
  if (s == "reject") return AdmissionPolicy::kReject;
  if (s == "shed") return AdmissionPolicy::kShed;
  throw std::invalid_argument(
      "admission policy must be block|reject|shed, got '" + s + "'");
}

std::uint64_t tenant_hash(std::string_view tenant) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : tenant) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool ShardRouter::RequestQueue::push(ServeRequest req,
                                     AdmissionPolicy policy,
                                     std::optional<ServeRequest>* victim) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("serve: submit after stop");
  if (items_.size() >= capacity_) {
    switch (policy) {
      case AdmissionPolicy::kReject:
        return false;
      case AdmissionPolicy::kShed:
        if (victim != nullptr) *victim = std::move(items_.front());
        items_.pop_front();
        ++shed_;
        g_shed.add();
        break;
      case AdmissionPolicy::kBlock:
        not_full_.wait(lock, [&] {
          return closed_ || items_.size() < capacity_;
        });
        if (closed_) throw std::logic_error("serve: submit after stop");
        break;
    }
  }
  items_.push_back(std::move(req));
  peak_ = std::max<std::uint64_t>(peak_, items_.size());
  if (depth_) depth_->set(static_cast<double>(items_.size()));
  not_empty_.notify_one();
  return true;
}

std::size_t ShardRouter::RequestQueue::pop_batch(
    std::deque<ServeRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
  out.swap(items_);
  if (depth_) depth_->set(0.0);
  if (!out.empty()) not_full_.notify_all();
  return out.size();
}

void ShardRouter::RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::uint64_t ShardRouter::RequestQueue::shed_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

std::uint64_t ShardRouter::RequestQueue::peak() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

ShardRouter::ShardRouter(RouterConfig config,
                         const std::function<AlgorithmPtr()>& make_algo,
                         std::string algo_name)
    : config_(std::move(config)),
      metrics_(obs::MetricsRegistry::global(), config_.shards) {
  if (config_.shards == 0)
    throw std::invalid_argument("serve: shards must be >= 1");
  if (config_.queue_capacity == 0)
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  if (!make_algo) throw std::invalid_argument("serve: null algorithm factory");
  make_dir(io::env_or_posix(config_.env), config_.wal_dir);

  // Each shard's kEvery fsync runs on its own worker through one shared
  // coordinator, which counts them; pointless under kNone.
  if (config_.fsync == FsyncPolicy::kEvery)
    group_commit_ = std::make_unique<GroupCommitCoordinator>();

  // Sessions are built (and recovered) serially here, so recovery errors
  // surface from the constructor; workers only ever touch their own shard.
  // Resume gets a scratch pool so each shard's segment CRC scans fan out.
  std::unique_ptr<parallel::ThreadPool> recovery_pool;
  if (config_.resume)
    recovery_pool = std::make_unique<parallel::ThreadPool>(
        std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    DurableSessionConfig sc;
    sc.wal_path = shard_file(config_.wal_dir, i, ".wal");
    sc.checkpoint_path = shard_file(config_.wal_dir, i, ".ckpt");
    sc.fsync = config_.fsync;
    sc.checkpoint_every = config_.checkpoint_every;
    sc.resume = config_.resume;
    sc.wal_segment_bytes = config_.wal_segment_bytes;
    sc.group_commit = group_commit_.get();
    sc.recovery_pool = recovery_pool.get();
    sc.env = config_.env;
    shard->session = std::make_unique<DurableSession>(make_algo(), algo_name,
                                                      std::move(sc));
    shard->queue = std::make_unique<RequestQueue>(
        config_.queue_capacity, metrics_.shard(i).queue_depth);
    shard->stats.shard = i;
    shards_.push_back(std::move(shard));
  }

  pool_ = std::make_unique<parallel::ThreadPool>(config_.shards);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    shard->done = pool_->submit([this, s] { worker_loop(*s); });
  }
}

ShardRouter::~ShardRouter() {
  try {
    stop();
  } catch (...) {
    // Destructor path: stop() errors were either already observed via an
    // explicit stop() or the owner is unwinding; don't terminate.
  }
}

std::size_t ShardRouter::shard_of(std::string_view tenant) const noexcept {
  return static_cast<std::size_t>(tenant_hash(tenant) % shards_.size());
}

void ShardRouter::set_on_ack(AckCallback cb) { on_ack_ = std::move(cb); }

SubmitStatus ShardRouter::try_submit_as(ServeRequest req,
                                        AdmissionPolicy policy) {
  if (stopped_.load(std::memory_order_acquire))
    throw std::logic_error("serve: submit after stop");
  if (req.admit_ns == 0) req.admit_ns = admit_stamp();
  const std::size_t idx = shard_of(req.tenant);
  Shard& shard = *shards_[idx];
  // A degraded shard refuses at the door, regardless of admission policy:
  // enqueueing would either block the producer forever (kBlock, worker
  // only discards) or dress a permanent failure up as transient
  // backpressure. The refusal is distinct so callers can stop retrying.
  if (shard.degraded.load(std::memory_order_acquire)) {
    g_degraded_rejected.add();
    return SubmitStatus::kShardDegraded;
  }
  g_submitted.add();
  obs::Tracer& tracer = obs::Tracer::global();
  // Flow chain start: the enclosing serve.enqueue span gives the flow
  // arrow an anchor slice. Flow events are serialized synchronously, so
  // the tenant string only needs to outlive this call.
  const bool traced = tracer.enabled() && req.stream_index != 0;
  const std::uint64_t flow_id = req.stream_index;
  std::uint64_t trace_start = 0;
  if (traced) {
    trace_start = tracer.now_ns();
    tracer.flow_begin("serve.offer", "serve", flow_id,
                      {{"tenant", req.tenant.c_str()},
                       {"shard", static_cast<std::uint64_t>(idx)}});
  }
  std::optional<ServeRequest> victim;
  const bool pushed = shard.queue->push(std::move(req), policy, &victim);
  if (!pushed) {
    g_rejected.add();
    if (traced)
      tracer.complete("serve.enqueue", "serve", trace_start,
                      tracer.now_ns() - trace_start,
                      {{"shard", static_cast<std::uint64_t>(idx)},
                       {"rejected", 1}});
    return SubmitStatus::kQueueFull;
  }
  // A shed victim (kShed, full queue) left the queue without ever reaching
  // the worker: give it its terminal ack here, from the producer thread, so
  // push-style front ends (src/net/) can resolve the in-flight offer
  // instead of leaking it until drain timeout.
  if (on_ack_ && victim.has_value())
    on_ack_(ServeResult{victim->stream_index, victim->tenant, idx, 0, kNoBin},
            AckKind::kDropped);
  if (traced)
    tracer.complete("serve.enqueue", "serve", trace_start,
                    tracer.now_ns() - trace_start,
                    {{"shard", static_cast<std::uint64_t>(idx)}});
  return SubmitStatus::kAccepted;
}

std::size_t ShardRouter::degraded_shards() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_)
    if (shard->degraded.load(std::memory_order_acquire)) ++n;
  return n;
}

void ShardRouter::mark_degraded(Shard& shard, const std::string& reason) {
  // Worker-thread only. Reason before flag (release): a producer that sees
  // degraded==true may read the reason from stats after stop().
  shard.stats.degraded = true;
  shard.stats.degrade_reason = reason;
  shard.degraded.store(true, std::memory_order_release);
  g_degraded_shards.add(1.0);
  obs::Tracer::global().instant(
      "serve.shard_degraded", "serve",
      {{"shard", static_cast<std::uint64_t>(shard.stats.shard)}});
}

void ShardRouter::worker_loop(Shard& shard) {
  // Drain the whole queue: every offer drained is appended with deferred
  // durability, then ONE commit() — one write(2), and one fsync under
  // kEvery — covers them all, and only after it returns are the results
  // recorded (the ack). The queue capacity bounds the work at risk between
  // commits, not throughput — a slow disk simply yields fuller batches.
  const std::size_t idx = shard.stats.shard;
  ServeMetrics::ShardInstruments& ins = metrics_.shard(idx);
  obs::Tracer& tracer = obs::Tracer::global();
  // Non-applied terminal outcomes carry stream_index + tenant + shard only.
  const AckCallback& ack_cb = on_ack_;
  const auto notify = [&](std::uint64_t stream_index,
                          const std::string& tenant, AckKind kind) {
    if (ack_cb) ack_cb(ServeResult{stream_index, tenant, idx, 0, kNoBin}, kind);
  };
  std::deque<ServeRequest> batch;
  // Where each request the session placed sits in the batch, with its
  // placement: acked from there once the commit returns.
  struct Placed {
    std::size_t index;
    std::uint64_t seq;
    BinId bin;
  };
  std::vector<Placed> placed;
  for (;;) {
    const std::size_t drained = shard.queue->pop_batch(batch);
    if (drained == 0) break;
    // Degraded: keep draining so kBlock producers that raced past the
    // front-door check never wedge on a full queue, but ack nothing —
    // every discarded request is counted, not silently lost.
    if (shard.degraded.load(std::memory_order_relaxed)) {
      shard.stats.degraded_dropped += drained;
      g_degraded_dropped.add(drained);
      for (const ServeRequest& req : batch)
        notify(req.stream_index, req.tenant, AckKind::kDropped);
      continue;
    }
    ins.batch_size->record(drained);
    g_batches.add();
    // One clock read per batch, not per offer: queue-wait and ack latency
    // share the batch's drain/ack instants, which keeps the instrumented
    // hot path within the disabled-overhead budget (see bench_obs_overhead).
    const std::uint64_t drained_ns = mono_now_ns();
    placed.clear();
    const std::uint64_t skipped_before = shard.stats.skipped;
    const std::uint64_t invalid_before = shard.stats.invalid;
    // Index (not range) loop so the degrade path below knows exactly which
    // requests never reached the session: batch[processed..) plus
    // everything appended-but-uncommitted in `placed`.
    std::size_t processed = 0;
    try {
    {
      obs::TraceSpan drain_span(
          tracer, "serve.drain", "serve",
          {{"shard", static_cast<std::uint64_t>(idx)},
           {"batch", static_cast<std::uint64_t>(drained)}});
      obs::ScopedTimer append_timer(*ins.wal_append_us);
      for (; processed < batch.size(); ++processed) {
        ServeRequest& req = batch[processed];
        if (config_.worker_delay_us > 0)
          std::this_thread::sleep_for(
              std::chrono::microseconds(config_.worker_delay_us));
        if (req.admit_ns != 0 && drained_ns > req.admit_ns)
          ins.queue_wait_us->record((drained_ns - req.admit_ns) / 1000);
        if (req.stream_index != 0)
          tracer.flow_step("serve.offer", "serve", req.stream_index,
                           {{"shard", static_cast<std::uint64_t>(idx)}});
        // Resume de-duplication: the WAL already holds this position of
        // THIS tenant's stream. The mark is per tenant, not per shard —
        // independent tenants hash onto the same shard with uncoordinated
        // id spaces, so a shard-global high-water mark would silently ack
        // kSkipped offers that were never placed.
        if (config_.resume && req.stream_index != 0 &&
            req.stream_index <= shard.session->last_stream_index(req.tenant)) {
          ++shard.stats.skipped;
          g_skipped.add();
          notify(req.stream_index, req.tenant, AckKind::kSkipped);
          continue;
        }
        try {
          const std::uint64_t seq = shard.session->seq();
          const BinId bin = shard.session->offer_deferred(
              req.arrival, req.departure, req.size, req.stream_index,
              req.tenant);
          placed.push_back(Placed{processed, seq, bin});
        } catch (const std::invalid_argument&) {
          ++shard.stats.invalid;  // bad request, not a shard failure
          notify(req.stream_index, req.tenant, AckKind::kInvalid);
        }
      }
    }
    {
      obs::TraceSpan commit_span(
          tracer, "serve.commit", "serve",
          {{"shard", static_cast<std::uint64_t>(idx)},
           {"batch", static_cast<std::uint64_t>(placed.size())}});
      obs::ScopedTimer commit_timer(*ins.commit_us);
      shard.session->commit();
    }
    } catch (const std::exception& e) {
      // A WAL append/sync failure poisoned the session (in-memory state
      // and durable log may disagree). Flip the shard to degraded: nothing
      // in this batch was acked, so dropping it keeps the contract — an
      // un-acked offer may be lost, an acked one never is. Healthy shards
      // are untouched; the process keeps serving.
      mark_degraded(shard, e.what());
      const std::uint64_t handled =
          (shard.stats.skipped - skipped_before) +
          (shard.stats.invalid - invalid_before);
      const std::uint64_t dropped = drained - handled;
      shard.stats.degraded_dropped += dropped;
      g_degraded_dropped.add(dropped);
      // Terminal acks for everything the failure swallowed: appended but
      // never committed (placed), plus the thrower and everything after it
      // (batch[processed..)). Together they are exactly `dropped` requests.
      for (const Placed& p : placed)
        notify(batch[p.index].stream_index, batch[p.index].tenant,
               AckKind::kDropped);
      for (std::size_t j = processed; j < batch.size(); ++j)
        notify(batch[j].stream_index, batch[j].tenant, AckKind::kDropped);
      continue;
    }
    // The ack instant: the commit made every offer in the batch durable
    // per the fsync policy.
    const std::uint64_t ack_ns = mono_now_ns();
    {
      obs::TraceSpan ack_span(
          tracer, "serve.ack", "serve",
          {{"shard", static_cast<std::uint64_t>(idx)},
           {"batch", static_cast<std::uint64_t>(placed.size())}});
      for (const Placed& p : placed) {
        ServeRequest& req = batch[p.index];
        const ServeResult result{req.stream_index, std::move(req.tenant), idx,
                                 p.seq, p.bin};
        if (req.admit_ns != 0 && ack_ns > req.admit_ns) {
          const std::uint64_t us = (ack_ns - req.admit_ns) / 1000;
          ins.ack_us->record(us);
          metrics_.tenant_ack(result.tenant).record(us);
        }
        if (result.stream_index != 0)
          tracer.flow_end("serve.offer", "serve", result.stream_index,
                          {{"shard", static_cast<std::uint64_t>(idx)}});
        if (ack_cb) ack_cb(result, AckKind::kApplied);
      }
    }
    shard.stats.applied += placed.size();
  }
  // Queue closed and drained: finalize. Costs/open-bin counts are part of
  // the stats contract, so compute them before the WAL handle goes away.
  if (shard.degraded.load(std::memory_order_relaxed)) {
    // Poisoned durability path: in-memory totals are not trustworthy and
    // the final sync may fail again. Best-effort close, cost stays 0.
    try {
      shard.session->close();
    } catch (const std::exception&) {
    }
  } else {
    try {
      if (config_.final_checkpoint) shard.session->checkpoint_now();
      shard.stats.open_bins = shard.session->session().open_bins();
      shard.stats.final_cost = shard.session->finish();
      shard.session->close();
    } catch (const std::exception& e) {
      // The final checkpoint or WAL close failed. Every acked record is
      // already durable (acks wait for their batch's commit), so no ack is
      // broken; still a degraded shard, as its files may end short of
      // memory.
      mark_degraded(shard, e.what());
    }
  }
  shard.stats.ack_latency = metrics_.ack_interval(idx);
  shard.stats.shed = shard.queue->shed_count();
  shard.stats.queue_peak = shard.queue->peak();
  shard.stats.wal_records = shard.session->seq();
  shard.stats.last_stream_index = shard.session->last_stream_index();
  shard.stats.recovery = shard.session->recovery();
}

void ShardRouter::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->queue->close();
  // I/O failures were absorbed as per-shard degradation inside the worker
  // loop; anything escaping a worker future here is an unexpected bug and
  // still propagates.
  std::exception_ptr first_error;
  for (auto& shard : shards_) {
    try {
      if (shard->done.valid()) shard->done.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  pool_->stop();
  if (first_error) std::rethrow_exception(first_error);
}

const ShardStats& ShardRouter::stats(std::size_t shard) const {
  if (!stopped_.load(std::memory_order_acquire))
    throw std::logic_error("serve: stats before stop");
  return shards_.at(shard)->stats;
}

Cost ShardRouter::total_cost() const {
  if (!stopped_.load(std::memory_order_acquire))
    throw std::logic_error("serve: total_cost before stop");
  Cost total = 0.0;
  for (const auto& shard : shards_) total += shard->stats.final_cost;
  return total;
}

}  // namespace cdbp::serve
