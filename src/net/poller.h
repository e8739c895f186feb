// Readiness multiplexer for the listener's event loops and the load
// generator: one epoll instance, level-triggered.
//
// Deliberately NOT routed through io::Env: the poller only reports "maybe
// ready", so faulting it adds no failure mode that faulting the subsequent
// accept/read/write (which ARE io::Env fault points) doesn't already cover.
#pragma once

#include <cstddef>
#include <vector>

namespace cdbp::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error/hangup — the owner should read until EOF/error and close.
  bool broken = false;
};

class Poller {
 public:
  /// Throws std::runtime_error if epoll_create1 fails.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and appends ready fds to `out`
  /// (cleared first). Returns the number of events; EINTR returns 0.
  std::size_t wait(std::vector<PollEvent>& out, int timeout_ms);

 private:
  int epfd_ = -1;
};

}  // namespace cdbp::net
