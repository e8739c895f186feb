// FaultInjectingEnv: a deterministic, seeded io::Env wrapper that can
// schedule short writes, ENOSPC-after-N-bytes, EINTR storms, transient and
// sticky fsync failures, torn renames, injected latency, and simulated power
// loss at an exactly chosen operation — so the crash-consistency claims made
// by docs/SERVING.md are checked by the chaos matrices (chaos/chaos_matrix.h,
// chaos/net_chaos.h) instead of ad-hoc test knobs. It lives in cdbp_chaos,
// which is built for the tests and E18 only and is never installed; the
// production seam is io::Env (core/io_env.h).
//
// The simulated-power-loss model tracked by FaultInjectingEnv is pessimal:
//  - file data persists only up to the last successful fsync of that file;
//  - a file created (or renamed into place) persists only after the parent
//    directory has been fsynced; an fsynced-but-never-dirsynced file
//    reappears empty at best and is gone at worst (we model: gone unless the
//    entry was durable, empty if the entry was durable but data never
//    synced);
//  - a rename whose directory was not fsynced reverts: the old name
//    reappears with its last-synced content, the new name reverts to *its*
//    last durable state (possibly absent) — this is the torn-rename model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/io_env.h"

namespace cdbp::io {

/// Bitmask naming the primitive operations a fault rule can attach to.
/// `close`, `exists`, `file_size`, and `list_dir` are deliberately not fault
/// points: faulting metadata reads adds no durability coverage, and a
/// faulting close would turn stack unwinding into std::terminate.
enum FaultOp : unsigned {
  kOpOpen = 1u << 0,
  kOpRead = 1u << 1,
  kOpWrite = 1u << 2,
  kOpFsync = 1u << 3,
  kOpRename = 1u << 4,
  kOpUnlink = 1u << 5,
  kOpTruncate = 1u << 6,
  kOpDirFsync = 1u << 7,
  kOpMkdir = 1u << 8,
  // Network path (src/net/). Counted with path "net:<fd>" ("net:listen" /
  // "net:connect" before an fd exists) so rules can target the socket plane
  // without also matching WAL files. Readiness polling (epoll) is *not* a
  // fault point: the reactor only learns "maybe ready", and every
  // observable failure mode is reachable through accept/read/write.
  kOpNetAccept = 1u << 9,
  kOpNetRead = 1u << 10,
  kOpNetWrite = 1u << 11,
  kOpAll = (1u << 12) - 1,
};

enum class FaultKind {
  kShortWrite,      // write persists min(param, n) bytes and returns short
  kEnospc,          // write persists min(param, n) bytes, then fails ENOSPC
  kEintr,           // op fails EINTR; param = storm length (matches faulted)
  kEagain,          // op fails EAGAIN; param = storm length
  kTransientFsync,  // fsync fails EINTR param times, then succeeds
  kStickyFsync,     // fsync fails EIO and poisons this path: every later
                    // fsync of it fails too; the dirty bytes are dropped
                    // (durable image not advanced) — the fsync-gate model
  kEio,             // op fails EIO (once, or every match with repeat=true)
  kLatency,         // op delayed param microseconds, then runs normally
  kPowerCut,        // this op fails EIO and all later ops fail EIO until
                    // simulate_power_loss() "reboots" the environment
};

/// One scheduled fault. Rules are matched in insertion order against every
/// counted operation whose kind is in `ops` and whose path contains
/// `path_contains`; the `after`-th match (0-based) triggers the fault.
/// Storm kinds fault all matches in [after, after + param).
struct FaultRule {
  unsigned ops = kOpAll;
  std::string path_contains;  // empty = any path
  std::uint64_t after = 0;
  FaultKind kind = FaultKind::kEio;
  std::uint64_t param = 0;
  bool repeat = false;  // fire on every match >= after, not just the first
};

/// Background random-fault profile for chaos soaks. Faults drawn from it are
/// deterministic in (seed, operation index): same seed → same schedule.
/// Only *recoverable* noise is drawn here (short writes, EINTR, latency);
/// hard faults are scheduled as explicit rules by the chaos matrices so the
/// expected outcome stays checkable.
struct ChaosProfile {
  std::uint64_t seed = 1;
  double short_write_rate = 0.0;  // fraction of writes cut short
  double eintr_rate = 0.0;        // fraction of read/write/fsync ops EINTR'd
  double latency_rate = 0.0;      // fraction of ops delayed
  std::uint32_t latency_us = 50;
};

/// One counted operation, for test introspection (`set_record_history`).
struct OpRecord {
  std::uint64_t index = 0;
  FaultOp op = kOpWrite;
  std::string path;
  bool faulted = false;
};

class FaultFile;

/// Deterministic fault-injecting Env wrapping a real filesystem (normally
/// Env::posix()). Thread-safe: all state is guarded by one mutex, since the
/// serve plane calls it from every shard worker and listener event loop.
///
/// Fault scheduling is by *operation index*: every open/read/write/fsync/
/// rename/unlink/truncate/dir-fsync/mkdir that flows through the env is
/// counted (metadata reads are not), and rules trigger on the N-th matching
/// op. Runs that issue the same operations get the same counts, so a sweep
/// over `after = 0..ops_seen()` visits every fault point exactly once.
///
/// simulate_power_loss() rewrites the real filesystem to the tracked durable
/// image (see the file-top comment for the model), invalidates all open
/// handles (further use fails EIO), clears sticky-fsync poisoning, and
/// restores power after a kPowerCut. Callers must quiesce their own threads
/// first; files already on disk when the env first touches them are adopted
/// as fully durable.
class FaultInjectingEnv final : public Env {
 public:
  explicit FaultInjectingEnv(Env& base = Env::posix());
  ~FaultInjectingEnv() override;

  FaultInjectingEnv(const FaultInjectingEnv&) = delete;
  FaultInjectingEnv& operator=(const FaultInjectingEnv&) = delete;

  // Env interface.
  std::unique_ptr<File> open(const std::string& path, OpenMode mode,
                             int& err) override;
  int rename(const std::string& from, const std::string& to,
             int& err) override;
  int unlink(const std::string& path, int& err) override;
  int mkdir(const std::string& path, int& err) override;
  int sync_dir(const std::string& dir, int& err) override;
  bool exists(const std::string& path) override;
  std::int64_t file_size(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;

  // Socket plane: accept/read/write are counted fault points (path
  // "net:<fd>"); listen/connect/close/bound_port pass straight through.
  // Sockets are not part of the durable image — a power cut kills them
  // (every op fails EIO until simulate_power_loss()) but leaves no residue.
  // kShortWrite/kEnospc map to a short send; kEagain/kEintr/kEio/kLatency
  // behave as on files; fsync kinds never match (sockets have no fsync).
  int net_accept(int listen_fd, int& err) override;
  std::int64_t net_read(int fd, void* buf, std::size_t n,
                        int& err) noexcept override;
  std::int64_t net_write(int fd, const void* buf, std::size_t n,
                         int& err) noexcept override;

  // Fault scheduling.
  void add_rule(FaultRule rule);
  void clear_rules();
  /// Global ENOSPC-after-N-bytes: cumulative bytes accepted across all
  /// writes; once exhausted, writes complete partially then fail ENOSPC.
  void set_disk_budget(std::uint64_t bytes);
  void clear_disk_budget();
  /// Shorthand for add_rule({kOpAll, "", after_ops, kPowerCut}).
  void arm_power_cut(std::uint64_t after_ops);
  void enable_chaos(const ChaosProfile& profile);

  // Introspection.
  void set_record_history(bool on);
  [[nodiscard]] std::vector<OpRecord> history() const;
  [[nodiscard]] std::uint64_t ops_seen() const;
  [[nodiscard]] std::uint64_t faults_injected() const;
  [[nodiscard]] bool powered_off() const;
  /// Bytes of `path` covered by its last successful fsync (0 if never).
  [[nodiscard]] std::uint64_t durable_bytes(const std::string& path) const;

  /// Drops everything not durable (see model above), restores power, and
  /// invalidates open handles. The real directory afterwards contains
  /// exactly what a machine reboot would have preserved.
  void simulate_power_loss();

 private:
  friend class FaultFile;

  struct Node {
    bool durable_entry = false;  // parent dir fsynced while entry existed
    bool has_durable_data = false;
    std::string durable_data;  // content as of last successful file fsync
    bool pending_data_valid = false;
    std::string pending_data;  // synced content renamed onto this path but
                               // not yet made durable by a dir fsync
    bool sticky_fsync_fail = false;
  };

  struct FaultDecision {
    bool fail = false;
    int err = 0;
    std::uint64_t write_limit = UINT64_MAX;  // short-write byte cap
    bool halve_write = false;                // chaos-profile short write
    std::uint64_t delay_us = 0;              // injected latency
  };

  // All _locked members require mu_ held; next_op takes it.
  Node& adopt_locked(const std::string& path);
  FaultDecision next_op_locked(FaultOp op, const std::string& path);
  FaultDecision next_op(FaultOp op, const std::string& path);
  /// Sleeps out `d`'s injected latency; true, with `err` set, when the
  /// operation is to fail.
  static bool fails(const FaultDecision& d, int& err);
  void capture_durable_locked(const std::string& path);
  [[nodiscard]] std::string live_read_locked(const std::string& path,
                                             bool& ok) const;

  // File-op backends called by FaultFile.
  std::int64_t file_write(const std::string& path, File& base,
                          const void* buf, std::size_t n, int& err);
  std::int64_t file_read(const std::string& path, File& base, void* buf,
                         std::size_t n, int& err);
  int file_sync(const std::string& path, File& base, int& err);
  int file_truncate(const std::string& path, File& base, std::uint64_t size,
                    int& err);
  void forget_file(FaultFile* f);

  Env& base_;
  mutable std::mutex mu_;
  std::map<std::string, Node> nodes_;
  std::vector<FaultRule> rules_;
  std::vector<std::uint64_t> rule_matches_;  // parallel to rules_
  std::optional<std::uint64_t> disk_budget_;
  std::optional<ChaosProfile> chaos_;
  std::vector<FaultFile*> open_files_;
  std::vector<OpRecord> history_;
  bool record_history_ = false;
  bool powered_off_ = false;
  std::uint64_t op_index_ = 0;
  std::uint64_t faults_ = 0;
};

}  // namespace cdbp::io
