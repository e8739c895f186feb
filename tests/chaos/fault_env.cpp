#include "chaos/fault_env.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

namespace cdbp::io {

namespace {

// splitmix64: the chaos profile's per-operation hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

/// Handle wrapper: every data-path operation funnels back into the owning
/// env so it is counted, fault-checked, and reflected in the durable image.
class FaultFile final : public File {
 public:
  FaultFile(FaultInjectingEnv* env, std::unique_ptr<File> base,
            std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  ~FaultFile() override {
    if (env_ != nullptr) env_->forget_file(this);
    int err = 0;
    (void)base_->close(err);
  }
  FaultFile(const FaultFile&) = delete;
  FaultFile& operator=(const FaultFile&) = delete;

  std::int64_t read(void* buf, std::size_t n, int& err) noexcept override {
    if (dead()) {
      err = EIO;
      return -1;
    }
    return env_->file_read(path_, *base_, buf, n, err);
  }

  std::int64_t write(const void* buf, std::size_t n,
                     int& err) noexcept override {
    if (dead()) {
      err = EIO;
      return -1;
    }
    return env_->file_write(path_, *base_, buf, n, err);
  }

  int sync(int& err) noexcept override {
    if (dead()) {
      err = EIO;
      return -1;
    }
    return env_->file_sync(path_, *base_, err);
  }

  int truncate(std::uint64_t size, int& err) noexcept override {
    if (dead()) {
      err = EIO;
      return -1;
    }
    return env_->file_truncate(path_, *base_, size, err);
  }

  std::int64_t size(int& err) noexcept override {
    // Metadata read: never a fault point.
    return base_->size(err);
  }

  int close(int& err) noexcept override {
    if (env_ != nullptr) {
      env_->forget_file(this);
      env_ = nullptr;
    }
    return base_->close(err);
  }

  /// The simulated machine rebooted: the handle's kernel state is gone.
  void kill() noexcept { dead_.store(true, std::memory_order_relaxed); }
  /// The env is being destroyed; stop calling back into it.
  void orphan() noexcept {
    env_ = nullptr;
    kill();
  }

 private:
  [[nodiscard]] bool dead() const noexcept {
    return env_ == nullptr || dead_.load(std::memory_order_relaxed);
  }

  FaultInjectingEnv* env_;
  std::unique_ptr<File> base_;
  std::string path_;
  std::atomic<bool> dead_{false};
};

FaultInjectingEnv::FaultInjectingEnv(Env& base) : base_(base) {}

FaultInjectingEnv::~FaultInjectingEnv() {
  std::lock_guard<std::mutex> lock(mu_);
  for (FaultFile* f : open_files_) f->orphan();
  open_files_.clear();
}

std::string FaultInjectingEnv::live_read_locked(const std::string& path,
                                                bool& ok) const {
  ok = false;
  int err = 0;
  std::unique_ptr<File> f = base_.open(path, OpenMode::kRead, err);
  if (!f) return {};
  std::string out;
  char buf[1 << 16];
  for (;;) {
    int rerr = 0;
    const std::int64_t r = f->read(buf, sizeof(buf), rerr);
    if (r < 0) {
      if (transient_errno(rerr)) continue;
      return {};
    }
    if (r == 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ok = true;
  return out;
}

FaultInjectingEnv::Node& FaultInjectingEnv::adopt_locked(
    const std::string& path) {
  auto it = nodes_.find(path);
  if (it != nodes_.end()) return it->second;
  // First touch: anything already on disk predates the env and is assumed
  // fully durable (recovery tests attach a fresh env to surviving files).
  Node n;
  bool ok = false;
  std::string content = live_read_locked(path, ok);
  if (ok) {
    n.durable_entry = true;
    n.has_durable_data = true;
    n.durable_data = std::move(content);
  }
  return nodes_.emplace(path, std::move(n)).first->second;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::next_op_locked(
    FaultOp op, const std::string& path) {
  FaultDecision d;
  const std::uint64_t idx = op_index_++;
  std::uint64_t delay_us = 0;

  if (powered_off_) {
    d.fail = true;
    d.err = EIO;
  }

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    FaultRule& r = rules_[i];
    if ((r.ops & static_cast<unsigned>(op)) == 0) continue;
    if (!r.path_contains.empty() &&
        path.find(r.path_contains) == std::string::npos)
      continue;
    const std::uint64_t m = rule_matches_[i]++;
    if (r.kind == FaultKind::kLatency) {
      if (m == r.after || (r.repeat && m >= r.after)) delay_us += r.param;
      continue;
    }
    if (d.fail || d.write_limit != UINT64_MAX) continue;  // already decided
    switch (r.kind) {
      case FaultKind::kEintr:
      case FaultKind::kTransientFsync:
        if (m >= r.after &&
            (r.repeat ||
             m < r.after + std::max<std::uint64_t>(r.param, 1))) {
          d.fail = true;
          d.err = EINTR;
        }
        break;
      case FaultKind::kEagain:
        if (m >= r.after &&
            (r.repeat ||
             m < r.after + std::max<std::uint64_t>(r.param, 1))) {
          d.fail = true;
          d.err = EAGAIN;
        }
        break;
      case FaultKind::kShortWrite:
        if (m == r.after || (r.repeat && m >= r.after))
          d.write_limit = std::max<std::uint64_t>(r.param, 1);
        break;
      case FaultKind::kEnospc:
        // Sticky from the trigger point: the disk stays full.
        if (m == r.after && r.param > 0) {
          d.write_limit = r.param;
        } else if (m >= r.after && (r.param == 0 || m > r.after)) {
          d.fail = true;
          d.err = ENOSPC;
        }
        break;
      case FaultKind::kEio:
        if (m == r.after || (r.repeat && m >= r.after)) {
          d.fail = true;
          d.err = EIO;
        }
        break;
      case FaultKind::kStickyFsync:
        if (m == r.after || (r.repeat && m >= r.after)) {
          adopt_locked(path).sticky_fsync_fail = true;
          d.fail = true;
          d.err = EIO;
        }
        break;
      case FaultKind::kPowerCut:
        if (m >= r.after) {
          powered_off_ = true;
          d.fail = true;
          d.err = EIO;
        }
        break;
      case FaultKind::kLatency:
        break;  // handled above
    }
  }

  if (chaos_ && !d.fail && d.write_limit == UINT64_MAX) {
    const ChaosProfile& c = *chaos_;
    if (op == kOpWrite &&
        u01(mix64(c.seed ^ (idx * 2 + 1))) < c.short_write_rate) {
      d.halve_write = true;
    } else if ((op == kOpWrite || op == kOpRead || op == kOpFsync ||
                op == kOpOpen) &&
               u01(mix64(c.seed ^ (idx * 3 + 2))) < c.eintr_rate) {
      d.fail = true;
      d.err = EINTR;
    }
    if (u01(mix64(c.seed ^ (idx * 5 + 3))) < c.latency_rate)
      delay_us += c.latency_us;
  }

  d.delay_us = delay_us;
  const bool faulted =
      d.fail || d.write_limit != UINT64_MAX || d.halve_write;
  if (faulted) ++faults_;
  if (record_history_) history_.push_back({idx, op, path, faulted});
  return d;
}

FaultInjectingEnv::FaultDecision FaultInjectingEnv::next_op(
    FaultOp op, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_locked(op, path);
}

bool FaultInjectingEnv::fails(const FaultDecision& d, int& err) {
  if (d.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
  if (d.fail) err = d.err;
  return d.fail;
}

void FaultInjectingEnv::capture_durable_locked(const std::string& path) {
  Node& n = adopt_locked(path);
  bool ok = false;
  std::string content = live_read_locked(path, ok);
  if (!ok) return;
  n.has_durable_data = true;
  n.durable_data = std::move(content);
  n.pending_data_valid = false;
  n.pending_data.clear();
}

std::unique_ptr<File> FaultInjectingEnv::open(const std::string& path,
                                              OpenMode mode, int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopt_locked(path);
    d = next_op_locked(kOpOpen, path);
  }
  if (fails(d, err)) return nullptr;
  std::unique_ptr<File> base = base_.open(path, mode, err);
  if (!base) return nullptr;
  auto f = std::make_unique<FaultFile>(this, std::move(base), path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_files_.push_back(f.get());
  }
  return f;
}

int FaultInjectingEnv::rename(const std::string& from, const std::string& to,
                              int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopt_locked(from);
    adopt_locked(to);
    d = next_op_locked(kOpRename, from + " -> " + to);
  }
  if (fails(d, err)) return -1;
  if (base_.rename(from, to, err) != 0) return -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Node& a = nodes_[from];
    Node& b = nodes_[to];
    // The inode now visible at `to` carries `from`'s last-synced content;
    // it becomes `to`'s durable content only at the next parent-dir fsync.
    // Until then a crash reverts both names to their old durable state.
    if (a.has_durable_data) {
      b.pending_data_valid = true;
      b.pending_data = a.durable_data;
    } else if (a.pending_data_valid) {
      b.pending_data_valid = true;
      b.pending_data = a.pending_data;
    } else {
      b.pending_data_valid = false;
      b.pending_data.clear();
    }
    a.pending_data_valid = false;
    a.pending_data.clear();
  }
  return 0;
}

int FaultInjectingEnv::unlink(const std::string& path, int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopt_locked(path);
    d = next_op_locked(kOpUnlink, path);
  }
  if (fails(d, err)) return -1;
  // The durable node state is kept: until the parent dir is fsynced a crash
  // resurrects the entry with its last-synced content.
  return base_.unlink(path, err);
}

int FaultInjectingEnv::mkdir(const std::string& path, int& err) {
  const FaultDecision d = next_op(kOpMkdir, path);
  if (fails(d, err)) return -1;
  return base_.mkdir(path, err);
}

int FaultInjectingEnv::sync_dir(const std::string& dir, int& err) {
  const FaultDecision d = next_op(kOpDirFsync, dir);
  if (fails(d, err)) return -1;
  if (base_.sync_dir(dir, err) != 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, node] : nodes_) {
    if (parent_dir(path) != dir) continue;
    const bool live = base_.exists(path);
    node.durable_entry = live;
    if (live) {
      if (node.pending_data_valid) {
        node.has_durable_data = true;
        node.durable_data = std::move(node.pending_data);
      }
    } else {
      node.has_durable_data = false;
      node.durable_data.clear();
    }
    node.pending_data_valid = false;
    node.pending_data.clear();
  }
  return 0;
}

bool FaultInjectingEnv::exists(const std::string& path) {
  return base_.exists(path);
}

std::int64_t FaultInjectingEnv::file_size(const std::string& path) {
  return base_.file_size(path);
}

std::vector<std::string> FaultInjectingEnv::list_dir(const std::string& dir) {
  return base_.list_dir(dir);
}

int FaultInjectingEnv::net_accept(int listen_fd, int& err) {
  const FaultDecision d =
      next_op(kOpNetAccept, "net:" + std::to_string(listen_fd));
  if (fails(d, err)) return -1;
  return base_.net_accept(listen_fd, err);
}

std::int64_t FaultInjectingEnv::net_read(int fd, void* buf, std::size_t n,
                                         int& err) noexcept {
  const FaultDecision d = next_op(kOpNetRead, "net:" + std::to_string(fd));
  if (fails(d, err)) return -1;
  return base_.net_read(fd, buf, n, err);
}

std::int64_t FaultInjectingEnv::net_write(int fd, const void* buf,
                                          std::size_t n, int& err) noexcept {
  const FaultDecision d = next_op(kOpNetWrite, "net:" + std::to_string(fd));
  if (fails(d, err)) return -1;
  // kShortWrite / kEnospc map to a short send: the kernel accepts only the
  // capped prefix and the caller's flush loop must cope, exactly the torn
  // TCP-write case. Sockets are not tracked in the durable image.
  std::size_t allow = n;
  if (d.halve_write) allow = std::max<std::size_t>(1, n / 2);
  if (d.write_limit < allow)
    allow = std::max<std::size_t>(1, static_cast<std::size_t>(d.write_limit));
  return base_.net_write(fd, buf, allow, err);
}

std::int64_t FaultInjectingEnv::file_write(const std::string& path, File& base,
                                           const void* buf, std::size_t n,
                                           int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopt_locked(path);
    d = next_op_locked(kOpWrite, path);
    if (!d.fail && disk_budget_) {
      if (*disk_budget_ == 0) {
        d.fail = true;
        d.err = ENOSPC;
        ++faults_;
      } else if (*disk_budget_ < n) {
        d.write_limit = std::min<std::uint64_t>(d.write_limit, *disk_budget_);
        ++faults_;
      }
    }
  }
  if (fails(d, err)) return -1;
  std::size_t allow = n;
  if (d.halve_write) allow = std::max<std::size_t>(1, n / 2);
  if (d.write_limit < allow)
    allow = std::max<std::size_t>(1, static_cast<std::size_t>(d.write_limit));
  // Persist exactly `allow` bytes through the base file (looping over any
  // genuine short writes below us) so the short-write fault is precise.
  const char* p = static_cast<const char*>(buf);
  std::size_t left = allow;
  while (left > 0) {
    int werr = 0;
    const std::int64_t w = base.write(p, left, werr);
    if (w < 0) {
      if (transient_errno(werr)) continue;
      err = werr;
      return -1;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  if (disk_budget_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (disk_budget_)
      *disk_budget_ -= std::min<std::uint64_t>(*disk_budget_, allow);
  }
  return static_cast<std::int64_t>(allow);
}

std::int64_t FaultInjectingEnv::file_read(const std::string& path, File& base,
                                          void* buf, std::size_t n, int& err) {
  const FaultDecision d = next_op(kOpRead, path);
  if (fails(d, err)) return -1;
  return base.read(buf, n, err);
}

int FaultInjectingEnv::file_sync(const std::string& path, File& base,
                                 int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    d = next_op_locked(kOpFsync, path);
    if (!d.fail && adopt_locked(path).sticky_fsync_fail) {
      d.fail = true;
      d.err = EIO;
      ++faults_;
    }
  }
  if (fails(d, err)) return -1;
  if (base.sync(err) != 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  capture_durable_locked(path);
  return 0;
}

int FaultInjectingEnv::file_truncate(const std::string& path, File& base,
                                     std::uint64_t size, int& err) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopt_locked(path);
    d = next_op_locked(kOpTruncate, path);
  }
  if (fails(d, err)) return -1;
  // Live-only: the shorter length becomes durable at the next fsync.
  return base.truncate(size, err);
}

void FaultInjectingEnv::forget_file(FaultFile* f) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(open_files_.begin(), open_files_.end(), f);
  if (it != open_files_.end()) open_files_.erase(it);
}

void FaultInjectingEnv::add_rule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(rule));
  rule_matches_.push_back(0);
}

void FaultInjectingEnv::clear_rules() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  rule_matches_.clear();
  chaos_.reset();
}

void FaultInjectingEnv::set_disk_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_budget_ = bytes;
}

void FaultInjectingEnv::clear_disk_budget() {
  std::lock_guard<std::mutex> lock(mu_);
  disk_budget_.reset();
}

void FaultInjectingEnv::arm_power_cut(std::uint64_t after_ops) {
  FaultRule r;
  r.ops = kOpAll;
  r.after = after_ops;
  r.kind = FaultKind::kPowerCut;
  add_rule(std::move(r));
}

void FaultInjectingEnv::enable_chaos(const ChaosProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  chaos_ = profile;
}

void FaultInjectingEnv::set_record_history(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  record_history_ = on;
  if (!on) history_.clear();
}

std::vector<OpRecord> FaultInjectingEnv::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

std::uint64_t FaultInjectingEnv::ops_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_index_;
}

std::uint64_t FaultInjectingEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

bool FaultInjectingEnv::powered_off() const {
  std::lock_guard<std::mutex> lock(mu_);
  return powered_off_;
}

std::uint64_t FaultInjectingEnv::durable_bytes(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end() || !it->second.has_durable_data) return 0;
  return it->second.durable_data.size();
}

void FaultInjectingEnv::simulate_power_loss() {
  std::lock_guard<std::mutex> lock(mu_);
  for (FaultFile* f : open_files_) f->kill();
  open_files_.clear();
  for (auto& [path, node] : nodes_) {
    if (node.durable_entry) {
      int err = 0;
      std::unique_ptr<File> f = base_.open(path, OpenMode::kTruncate, err);
      if (f) {
        const std::string& data = node.durable_data;
        const char* p = data.data();
        std::size_t left = data.size();
        while (left > 0) {
          int werr = 0;
          const std::int64_t w = f->write(p, left, werr);
          if (w <= 0) {
            if (w < 0 && transient_errno(werr)) continue;
            break;
          }
          p += w;
          left -= static_cast<std::size_t>(w);
        }
        int cerr = 0;
        (void)f->close(cerr);
      }
    } else {
      int err = 0;
      (void)base_.unlink(path, err);
    }
    node.pending_data_valid = false;
    node.pending_data.clear();
    node.sticky_fsync_fail = false;
  }
  // The cut was consumed by this reboot: an armed kPowerCut rule would
  // otherwise re-fire on the very next op (its match count is already past
  // `after`) and the machine could never come back up.
  for (std::size_t i = rules_.size(); i-- > 0;) {
    if (rules_[i].kind == FaultKind::kPowerCut) {
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
      rule_matches_.erase(rule_matches_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    }
  }
  powered_off_ = false;
}

}  // namespace cdbp::io
