// Child processes for bench_suite: the `cdbp` server and tools run as real
// separate processes (fork + exec), and the simulator reps run in forked
// children so each has its own peak-RSS high-water mark.
//
// Every child is reaped on every path: Server's destructor SIGKILLs and
// waits, and every wait has a deadline after which the child is killed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cdbp::bench_suite {

struct ExitInfo {
  bool exited = false;  ///< exited normally (as opposed to a signal)
  int code = -1;        ///< exit code when exited, else the signal
  double peak_rss_mib = 0.0;  ///< the child's ru_maxrss from wait4
};

/// A long-running child with stdout on a pipe and stderr to a file.
class Server {
 public:
  /// Starts argv[0] with the given arguments. Throws on fork/exec failure.
  Server(const std::vector<std::string>& argv, const std::string& stderr_path);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Reads stdout until a line starting with `prefix` arrives; returns the
  /// line, or nullopt on EOF or when `timeout_ms` passes.
  std::optional<std::string> wait_for_line(const std::string& prefix,
                                            std::uint64_t timeout_ms);

  /// Sends `sig` and reaps the child, escalating to SIGKILL after
  /// `timeout_ms`. Idempotent: later calls return the first result.
  ExitInfo stop(int sig, std::uint64_t timeout_ms = 10000);

  /// The running child's peak resident set so far (VmHWM), in MiB; 0 when
  /// it cannot be read.
  [[nodiscard]] double peak_rss_mib() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
  std::optional<ExitInfo> exit_;
};

struct CommandResult {
  ExitInfo exit;
  std::string out;  ///< captured stdout
  std::string err;  ///< captured stderr
};

/// Runs a command to completion with stdout/stderr captured through files
/// under `scratch_dir`. The child is killed when `timeout_ms` passes.
CommandResult run_command(const std::vector<std::string>& argv,
                          const std::string& scratch_dir,
                          std::uint64_t timeout_ms);

struct ForkResult {
  bool ok = false;
  std::vector<double> values;  ///< what fn returned, bit-exact
  double peak_rss_mib = 0.0;   ///< the child's peak RSS
  std::string error;
};

/// Runs `fn` in a forked child and returns its doubles over a pipe. The
/// caller must hold no threads (fork copies only the calling thread).
ForkResult run_forked(const std::function<std::vector<double>()>& fn,
                      std::uint64_t timeout_ms);

}  // namespace cdbp::bench_suite
