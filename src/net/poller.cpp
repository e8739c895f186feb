#include "net/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cdbp::net {

namespace {

std::uint32_t ep_mask(bool want_read, bool want_write) {
  std::uint32_t m = 0;
  if (want_read) m |= EPOLLIN;
  if (want_write) m |= EPOLLOUT;
  return m;
}

void ctl(int epfd, int op, int fd, bool want_read, bool want_write,
         const char* what) {
  ::epoll_event ev{};
  ev.events = ep_mask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, op, fd, &ev) != 0)
    throw std::runtime_error(std::string("net: epoll_ctl(") + what +
                             ") failed");
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0)
    throw std::runtime_error(std::string("net: epoll_create1 failed: ") +
                             std::strerror(errno));
}

Poller::~Poller() { ::close(epfd_); }

void Poller::add(int fd, bool want_read, bool want_write) {
  ctl(epfd_, EPOLL_CTL_ADD, fd, want_read, want_write, "ADD");
}

void Poller::modify(int fd, bool want_read, bool want_write) {
  ctl(epfd_, EPOLL_CTL_MOD, fd, want_read, want_write, "MOD");
}

void Poller::remove(int fd) {
  ::epoll_event ev{};
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

std::size_t Poller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  out.clear();
  ::epoll_event evs[128];
  const int n = ::epoll_wait(epfd_, evs, 128, timeout_ms);
  for (int i = 0; i < n; ++i) {
    PollEvent e;
    e.fd = evs[i].data.fd;
    e.readable = (evs[i].events & EPOLLIN) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.broken = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return out.size();
}

}  // namespace cdbp::net
