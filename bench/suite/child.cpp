#include "child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "spans.h"

namespace cdbp::bench_suite {

namespace {

ExitInfo to_exit_info(int status, const struct rusage& ru) {
  ExitInfo info;
  info.exited = WIFEXITED(status);
  info.code = info.exited ? WEXITSTATUS(status) : WTERMSIG(status);
  info.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return info;
}

/// Waits for `pid`, killing it once `timeout_ms` has passed.
ExitInfo reap(pid_t pid, std::uint64_t timeout_ms) {
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000ULL;
  for (;;) {
    int status = 0;
    struct rusage ru {};
    const pid_t r = ::wait4(pid, &status, WNOHANG, &ru);
    if (r == pid) return to_exit_info(status, ru);
    if (r < 0 && errno != EINTR) return ExitInfo{};
    if (now_ns() > deadline) {
      ::kill(pid, SIGKILL);
      while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
      }
      return to_exit_info(status, ru);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// fork + exec with stdout/stderr redirected. Only async-signal-safe calls
/// run between fork and exec, so a threaded parent is fine here.
pid_t spawn(const std::vector<std::string>& args, int out_fd, int err_fd) {
  if (args.empty()) throw std::invalid_argument("spawn: empty argv");
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, 0);
    ::dup2(out_fd, 1);
    ::dup2(err_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

int open_out_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  return fd;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Server::Server(const std::vector<std::string>& argv,
               const std::string& stderr_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int err_fd = open_out_file(stderr_path);
  try {
    pid_ = spawn(argv, fds[1], err_fd);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(err_fd);
    throw;
  }
  ::close(fds[1]);
  ::close(err_fd);
  out_fd_ = fds[0];
}

Server::~Server() { stop(SIGKILL, 10000); }

std::optional<std::string> Server::wait_for_line(const std::string& prefix,
                                                 std::uint64_t timeout_ms) {
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000ULL;
  for (;;) {
    for (std::size_t nl; (nl = buffered_.find('\n')) != std::string::npos;) {
      std::string line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    const std::uint64_t now = now_ns();
    if (out_fd_ < 0 || now >= deadline) return std::nullopt;
    struct pollfd p {out_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000ULL) + 1;
    if (::poll(&p, 1, wait_ms) < 0 && errno != EINTR) return std::nullopt;
    if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
    char buf[4096];
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got == 0) return std::nullopt;  // EOF: the child exited
    if (got > 0) buffered_.append(buf, static_cast<std::size_t>(got));
  }
}

ExitInfo Server::stop(int sig, std::uint64_t timeout_ms) {
  if (exit_) return *exit_;
  if (pid_ > 0) {
    ::kill(pid_, sig);
    exit_ = reap(pid_, timeout_ms);
  } else {
    exit_ = ExitInfo{};
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return *exit_;
}

double Server::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

CommandResult run_command(const std::vector<std::string>& argv,
                          const std::string& scratch_dir,
                          std::uint64_t timeout_ms) {
  const std::string out_path = scratch_dir + "/cmd.out";
  const std::string err_path = scratch_dir + "/cmd.err";
  const int out_fd = open_out_file(out_path);
  const int err_fd = open_out_file(err_path);
  pid_t pid = -1;
  try {
    pid = spawn(argv, out_fd, err_fd);
  } catch (...) {
    ::close(out_fd);
    ::close(err_fd);
    throw;
  }
  ::close(out_fd);
  ::close(err_fd);
  CommandResult r;
  r.exit = reap(pid, timeout_ms);
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  return r;
}

ForkResult run_forked(const std::function<std::vector<double>()>& fn,
                      std::uint64_t timeout_ms) {
  ForkResult result;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    result.error = "pipe failed";
    return result;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    result.error = "fork failed";
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::string payload;
    try {
      const std::vector<double> values = fn();
      payload.assign(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(double));
    } catch (const std::exception& e) {
      payload = std::string("error: ") + e.what();
      code = 2;
    } catch (...) {
      payload = "error: unknown exception";
      code = 2;
    }
    for (std::size_t off = 0; off < payload.size();) {
      const ssize_t put = ::write(fds[1], payload.data() + off, payload.size() - off);
      if (put <= 0) ::_exit(3);
      off += static_cast<std::size_t>(put);
    }
    ::_exit(code);  // skip the parent's atexit handlers and destructors
  }
  ::close(fds[1]);
  std::string payload;
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000ULL;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) break;
    struct pollfd p {fds[0], POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000ULL) + 1;
    if (::poll(&p, 1, wait_ms) < 0 && errno != EINTR) break;
    if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
    char buf[4096];
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got <= 0) break;
    payload.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  const ExitInfo exit = reap(pid, 1000);
  result.peak_rss_mib = exit.peak_rss_mib;
  if (!exit.exited || exit.code != 0) {
    result.error = exit.exited && exit.code == 2
                       ? payload
                       : "child failed (status " + std::to_string(exit.code) + ")";
    return result;
  }
  if (payload.size() % sizeof(double) != 0) {
    result.error = "child returned a torn payload";
    return result;
  }
  result.values.resize(payload.size() / sizeof(double));
  std::memcpy(result.values.data(), payload.data(), payload.size());
  result.ok = true;
  return result;
}

}  // namespace cdbp::bench_suite
