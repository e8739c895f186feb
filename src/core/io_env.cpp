#include "core/io_env.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

namespace cdbp::io {

namespace {

[[noreturn]] void throw_errno(const char* what, const std::string& path,
                              int err) {
  throw std::runtime_error(std::string(what) + " failed for '" + path +
                           "': " + std::strerror(err));
}

// The transient-retry budget (docs/FAULTS.md): 128 retries, backoff
// doubling from 20 us to 2 ms, about 0.25 s in all.
constexpr std::uint32_t kMaxTransientRetries = 128;
constexpr std::uint64_t kBackoffInitialUs = 20;
constexpr std::uint64_t kBackoffMaxUs = 2000;

/// Runs `op(err)` until it returns true, retrying transient errors within
/// the budget; any other error, or a spent budget, throws `what` on `path`.
template <typename Op>
void retry_transient(const char* what, const std::string& path, Op&& op) {
  for (std::uint32_t retries = 0;; ++retries) {
    int err = 0;
    if (op(err)) return;
    if (!transient_errno(err) || retries == kMaxTransientRetries)
      throw_errno(what, path, err);
    const std::uint64_t us = std::min(
        kBackoffMaxUs, kBackoffInitialUs << std::min(retries, 16u));
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

}  // namespace

std::string parent_dir(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  if (pos == std::string::npos) return ".";
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

bool transient_errno(int err) noexcept {
  return err == EINTR || err == EAGAIN;  // EWOULDBLOCK is EAGAIN on Linux
}

// ---------------------------------------------------------------------------
// Throwing helpers (the retry budget lives here, not in the Env primitives)

std::unique_ptr<File> open_file(Env& env, const std::string& path,
                                OpenMode mode) {
  std::unique_ptr<File> f;
  retry_transient("open", path, [&](int& err) {
    f = env.open(path, mode, err);
    return f != nullptr;
  });
  return f;
}

void write_all(File& f, const void* data, std::size_t n,
               const std::string& path) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = n;
  while (left > 0) {
    std::int64_t w = 0;
    retry_transient("write", path, [&](int& err) {
      w = f.write(p, left, err);
      return w >= 0;
    });
    if (w == 0)
      throw std::runtime_error("write accepted 0 bytes for '" + path + "'");
    p += w;
    left -= static_cast<std::size_t>(w);
  }
}

void sync_file(File& f, const std::string& path) {
  // EINTR before the flush started is retryable; a *reported* fsync
  // failure is not — the kernel may already have dropped the dirty pages.
  retry_transient("fsync", path, [&](int& err) { return f.sync(err) == 0; });
}

void truncate_file(File& f, std::uint64_t size, const std::string& path) {
  retry_transient("truncate", path,
                  [&](int& err) { return f.truncate(size, err) == 0; });
}

std::unique_ptr<File> open_existing(Env& env, const std::string& path) {
  std::unique_ptr<File> f;
  // ENOENT stays "missing" even when transient noise preceded it: a
  // retried open must not turn an absent file into a hard error.
  retry_transient("open", path, [&](int& err) {
    f = env.open(path, OpenMode::kRead, err);
    return f != nullptr || err == ENOENT;
  });
  return f;
}

std::size_t read_some(File& f, void* buf, std::size_t n,
                      const std::string& path) {
  std::int64_t r = 0;
  retry_transient("read", path, [&](int& err) {
    r = f.read(buf, n, err);
    return r >= 0;
  });
  return static_cast<std::size_t>(r);
}

bool read_file(Env& env, const std::string& path, std::string& out) {
  out.clear();
  const std::unique_ptr<File> f = open_existing(env, path);
  if (!f) return false;
  char buf[1 << 16];
  while (const std::size_t r = read_some(*f, buf, sizeof(buf), path))
    out.append(buf, r);
  int cerr = 0;
  (void)f->close(cerr);
  return true;
}

void sync_parent_dir(Env& env, const std::string& path) {
  const std::string dir = parent_dir(path);
  retry_transient("fsync (directory)", dir,
                  [&](int& err) { return env.sync_dir(dir, err) == 0; });
}

// ---------------------------------------------------------------------------
// PosixEnv

namespace {

class PosixFile final : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    int err = 0;
    (void)close(err);
  }
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  std::int64_t read(void* buf, std::size_t n, int& err) noexcept override {
    const ::ssize_t r = ::read(fd_, buf, n);
    if (r < 0) {
      err = errno;
      return -1;
    }
    return static_cast<std::int64_t>(r);
  }

  std::int64_t write(const void* buf, std::size_t n,
                     int& err) noexcept override {
    const ::ssize_t w = ::write(fd_, buf, n);
    if (w < 0) {
      err = errno;
      return -1;
    }
    return static_cast<std::int64_t>(w);
  }

  int sync(int& err) noexcept override {
    if (::fsync(fd_) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

  int truncate(std::uint64_t size, int& err) noexcept override {
    if (::ftruncate(fd_, static_cast<::off_t>(size)) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

  std::int64_t size(int& err) noexcept override {
    struct ::stat st{};
    if (::fstat(fd_, &st) != 0) {
      err = errno;
      return -1;
    }
    return static_cast<std::int64_t>(st.st_size);
  }

  int close(int& err) noexcept override {
    if (fd_ < 0) return 0;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

 private:
  int fd_;
};

class PosixEnv final : public Env {
 public:
  std::unique_ptr<File> open(const std::string& path, OpenMode mode,
                             int& err) override {
    int flags = O_CLOEXEC;
    switch (mode) {
      case OpenMode::kRead:
        flags |= O_RDONLY;
        break;
      case OpenMode::kWrite:
        flags |= O_WRONLY;
        break;
      case OpenMode::kAppend:
        flags |= O_WRONLY | O_CREAT | O_APPEND;
        break;
      case OpenMode::kTruncate:
        flags |= O_WRONLY | O_CREAT | O_TRUNC;
        break;
    }
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      err = errno;
      return nullptr;
    }
    return std::make_unique<PosixFile>(fd);
  }

  int rename(const std::string& from, const std::string& to,
             int& err) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

  int unlink(const std::string& path, int& err) override {
    if (::unlink(path.c_str()) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

  int mkdir(const std::string& path, int& err) override {
    if (::mkdir(path.c_str(), 0755) != 0) {
      err = errno;
      return -1;
    }
    return 0;
  }

  int sync_dir(const std::string& dir, int& err) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      err = errno;
      return -1;
    }
    int rc = 0;
    if (::fsync(fd) != 0) {
      err = errno;
      rc = -1;
    }
    ::close(fd);
    return rc;
  }

  bool exists(const std::string& path) override {
    struct ::stat st{};
    return ::stat(path.c_str(), &st) == 0;
  }

  std::int64_t file_size(const std::string& path) override {
    struct ::stat st{};
    if (::stat(path.c_str(), &st) != 0) return -1;
    return static_cast<std::int64_t>(st.st_size);
  }

  std::vector<std::string> list_dir(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }
};

}  // namespace

Env& Env::posix() {
  static PosixEnv env;
  return env;
}

// ---------------------------------------------------------------------------
// Socket plane: the base-class implementations are the real syscalls, shared
// by every Env (PosixEnv inherits them; a test Env may count an op and then
// delegate here). IPv4 only — the serve plane's listener is a
// loopback/test front end first, and "0.0.0.0"/"127.0.0.1"/"localhost" cover
// every deployment the CLI exposes.

namespace {

bool parse_ipv4(const std::string& host, std::uint16_t port,
                ::sockaddr_in& out) noexcept {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    out.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  const char* addr = (host == "localhost") ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, addr, &out.sin_addr) == 1;
}

int new_tcp_socket(int& err) noexcept {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = errno;
    return -1;
  }
  // The wire protocol is many small frames (a ~56-byte offer, a ~29-byte
  // ack); Nagle + delayed ACK turns a partially filled batch into a ~40ms
  // stall, which is death for a request/response plane. Throughput relies
  // on application-level batching (write buffers), not the kernel's.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int Env::net_listen(const std::string& host, std::uint16_t port, int backlog,
                    int& err) {
  ::sockaddr_in addr{};
  if (!parse_ipv4(host, port, addr)) {
    err = EINVAL;
    return -1;
  }
  const int fd = new_tcp_socket(err);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const ::sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    err = errno;
    ::close(fd);
    return -1;
  }
  return fd;
}

int Env::net_connect(const std::string& host, std::uint16_t port, int& err) {
  ::sockaddr_in addr{};
  if (!parse_ipv4(host, port, addr)) {
    err = EINVAL;
    return -1;
  }
  const int fd = new_tcp_socket(err);
  if (fd < 0) return -1;
  for (;;) {
    if (::connect(fd, reinterpret_cast<const ::sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    if (errno == EINPROGRESS) return fd;  // completes asynchronously
    if (errno == EINTR) continue;
    err = errno;
    ::close(fd);
    return -1;
  }
}

int Env::net_accept(int listen_fd, int& err) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    err = errno;
    return -1;
  }
  // Accepted sockets don't reliably inherit options: disable Nagle here
  // too (see new_tcp_socket for why small frames need it off).
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::int64_t Env::net_read(int fd, void* buf, std::size_t n,
                           int& err) noexcept {
  const ::ssize_t r = ::recv(fd, buf, n, 0);
  if (r < 0) {
    err = errno;
    return -1;
  }
  return static_cast<std::int64_t>(r);
}

std::int64_t Env::net_write(int fd, const void* buf, std::size_t n,
                            int& err) noexcept {
  const ::ssize_t w = ::send(fd, buf, n, MSG_NOSIGNAL);
  if (w < 0) {
    err = errno;
    return -1;
  }
  return static_cast<std::int64_t>(w);
}

int Env::net_close(int fd) noexcept {
  if (fd < 0) return 0;
  return ::close(fd);
}

std::uint16_t Env::net_bound_port(int fd, int& err) {
  ::sockaddr_in addr{};
  ::socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &len) != 0) {
    err = errno;
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace cdbp::io
