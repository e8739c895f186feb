// Pluggable I/O environment for every durability-critical path in the serve
// plane (WAL segments, manifests, checkpoints, the stats exporter).
//
// The production implementation (`Env::posix()`) is a thin shim over the
// POSIX calls the code used to make directly. The point of the indirection is
// that a test can pass its own `io::Env`: the deterministic fault-injecting
// one in tests/chaos schedules short writes, ENOSPC, EINTR storms, fsync
// failures, torn renames and power loss at a chosen operation, so the
// crash-consistency claims made by docs/SERVING.md are checked by a chaos
// matrix (docs/FAULTS.md) instead of ad-hoc knobs in the library.
//
// Error model: `File`/`Env` primitives are non-throwing and report failures
// POSIX-style (negative return + errno out-parameter). The free helpers below
// (`write_all`, `sync_file`, `read_file`, ...) layer the policy on top:
// genuinely transient errors (EINTR/EAGAIN) are retried with bounded backoff
// (a fixed budget: 128 retries, backoff doubling from 20 us to 2 ms);
// everything else throws `std::runtime_error` so callers keep their existing
// poison-on-failure semantics. fsync failure is deliberately *not* retried
// after it has been reported (the "fsync-gate" lesson: a later successful
// fsync says nothing about the dirty pages the failed one dropped) — EINTR on
// fsync is retried because the kernel reports it before doing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cdbp::io {

// ---------------------------------------------------------------------------
// Interfaces

enum class OpenMode {
  kRead,      // O_RDONLY, file must exist
  kWrite,     // O_WRONLY, file must exist (used for in-place truncation)
  kAppend,    // O_WRONLY | O_CREAT | O_APPEND
  kTruncate,  // O_WRONLY | O_CREAT | O_TRUNC
};

/// An open file handle. POSIX semantics: `read`/`write` may be short, return
/// -1 with `err` set on failure; `read` returns 0 at EOF. `close` is
/// idempotent and never a fault point.
class File {
 public:
  virtual ~File() = default;
  virtual std::int64_t read(void* buf, std::size_t n, int& err) noexcept = 0;
  virtual std::int64_t write(const void* buf, std::size_t n,
                             int& err) noexcept = 0;
  virtual int sync(int& err) noexcept = 0;
  virtual int truncate(std::uint64_t size, int& err) noexcept = 0;
  virtual std::int64_t size(int& err) noexcept = 0;
  virtual int close(int& err) noexcept = 0;
};

/// Virtual filesystem. All paths are plain strings; implementations must
/// treat byte-identical strings as the same file (the serve plane always
/// builds a given path the same way, so no canonicalization is attempted).
class Env {
 public:
  virtual ~Env() = default;

  virtual std::unique_ptr<File> open(const std::string& path, OpenMode mode,
                                     int& err) = 0;
  virtual int rename(const std::string& from, const std::string& to,
                     int& err) = 0;
  virtual int unlink(const std::string& path, int& err) = 0;
  virtual int mkdir(const std::string& path, int& err) = 0;
  virtual int sync_dir(const std::string& dir, int& err) = 0;

  // Metadata reads: never fault points.
  virtual bool exists(const std::string& path) = 0;
  /// -1 if the file does not exist or cannot be stat'ed.
  virtual std::int64_t file_size(const std::string& path) = 0;
  /// Entry names (not full paths); empty if the directory is missing.
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;

  // -------------------------------------------------------------------------
  // Socket plane (src/net/). Same non-throwing POSIX error model as the file
  // primitives: -1 + errno out-parameter on failure. All sockets are created
  // non-blocking; `net_read`/`net_write` return -1/EAGAIN when the kernel
  // would block, `net_read` returns 0 on orderly peer shutdown. The base
  // implementations are the real syscalls, so every Env subclass serves real
  // TCP; a test Env may override accept/read/write to make them fault
  // points.

  /// TCP listener bound to host:port (port 0 = kernel-assigned ephemeral).
  /// Returns the non-blocking listening fd, or -1.
  virtual int net_listen(const std::string& host, std::uint16_t port,
                         int backlog, int& err);
  /// Begins a non-blocking connect; returns the fd immediately (connection
  /// may still be in progress — poll for writability), or -1.
  virtual int net_connect(const std::string& host, std::uint16_t port,
                          int& err);
  /// Accepts one pending connection as a non-blocking fd; -1/EAGAIN when the
  /// backlog is empty.
  virtual int net_accept(int listen_fd, int& err);
  virtual std::int64_t net_read(int fd, void* buf, std::size_t n,
                                int& err) noexcept;
  virtual std::int64_t net_write(int fd, const void* buf, std::size_t n,
                                 int& err) noexcept;
  /// Idempotent; never a fault point (mirrors File::close).
  virtual int net_close(int fd) noexcept;
  /// Local port an fd is bound to (resolves port-0 listens); 0 on error.
  virtual std::uint16_t net_bound_port(int fd, int& err);

  /// The shared stateless production environment.
  static Env& posix();
};

/// Resolves a null Env to the production environment: every config struct in
/// the serve plane carries an `io::Env*` that defaults to nullptr.
[[nodiscard]] inline Env& env_or_posix(Env* env) {
  return env != nullptr ? *env : Env::posix();
}

/// Directory part of `path` ("." when the path has no slash). Used both by
/// callers that fsync a parent directory after rename/creat/unlink and by a
/// test Env that ties directory-entry durability to dir fsyncs.
[[nodiscard]] std::string parent_dir(const std::string& path);

// ---------------------------------------------------------------------------
// Throwing helpers. Each retries *transient* errors only (EINTR/EAGAIN),
// within the fixed budget of the file comment, then throws.

[[nodiscard]] bool transient_errno(int err) noexcept;

/// Opens `path`, retrying transient failures; throws std::runtime_error
/// (message includes path + strerror) on hard failure.
[[nodiscard]] std::unique_ptr<File> open_file(Env& env, const std::string& path,
                                              OpenMode mode);

/// Writes all `n` bytes, looping over short writes and retrying transient
/// errors; throws on hard failure (e.g. ENOSPC) or when the file stalls
/// (accepts 0 bytes).
void write_all(File& f, const void* data, std::size_t n,
               const std::string& path);

/// fsync with EINTR/EAGAIN retry. A reported fsync *failure* (EIO, ENOSPC)
/// throws immediately and must be treated as sticky by the caller: the
/// kernel may have dropped the dirty pages, so retrying the fsync would
/// falsely report durability.
void sync_file(File& f, const std::string& path);

/// ftruncate with transient retry; throws on hard failure.
void truncate_file(File& f, std::uint64_t size, const std::string& path);

/// Opens `path` for reading, retrying transient failures. Returns nullptr
/// if the file does not exist; throws on any other error.
[[nodiscard]] std::unique_ptr<File> open_existing(Env& env,
                                                  const std::string& path);

/// One read of up to `n` bytes, retrying transient errors. Returns the byte
/// count (0 = EOF); throws on a hard error (EIO), which is never EOF.
[[nodiscard]] std::size_t read_some(File& f, void* buf, std::size_t n,
                                    const std::string& path);

/// Reads the whole file into `out`. Returns false (out empty) if the file
/// does not exist; throws on any other error.
[[nodiscard]] bool read_file(Env& env, const std::string& path,
                             std::string& out);

/// Fsyncs the parent directory of `path` (makes renames/creates/unlinks of
/// that entry durable). Throws on hard failure.
void sync_parent_dir(Env& env, const std::string& path);

}  // namespace cdbp::io
