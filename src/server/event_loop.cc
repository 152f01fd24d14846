#include "server/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "util/net.h"

namespace mrl {
namespace server {

using net::StatusFromErrno;

Result<EventLoop> EventLoop::Create() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return StatusFromErrno("epoll_create1");
  const int wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    const Status status = StatusFromErrno("eventfd");
    ::close(epoll_fd);
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the null-data sentinel callers test for
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    const Status status = StatusFromErrno("epoll_ctl(wakeup)");
    ::close(wake_fd);
    ::close(epoll_fd);
    return status;
  }
  return EventLoop(epoll_fd, wake_fd);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

EventLoop::EventLoop(EventLoop&& other) noexcept
    : epoll_fd_(std::exchange(other.epoll_fd_, -1)),
      wake_fd_(std::exchange(other.wake_fd_, -1)) {}

EventLoop& EventLoop::operator=(EventLoop&& other) noexcept {
  if (this != &other) {
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = std::exchange(other.epoll_fd_, -1);
    wake_fd_ = std::exchange(other.wake_fd_, -1);
  }
  return *this;
}

Status EventLoop::Add(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return StatusFromErrno("epoll_ctl(ADD)");
  }
  return Status::OK();
}

Status EventLoop::Modify(int fd, std::uint32_t events, void* data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = data;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return StatusFromErrno("epoll_ctl(MOD)");
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::Wait(epoll_event* events, int max_events, int timeout_ms) {
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, max_events, timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return -1;
  }
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  // The counter saturating (EAGAIN) still leaves it readable: the waiter
  // is already due to wake. Short writes cannot happen on an eventfd.
  [[maybe_unused]] const ssize_t w =
      ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::ConsumeWake() {
  std::uint64_t value = 0;
  const ssize_t r = ::read(wake_fd_, &value, sizeof(value));
  return r == static_cast<ssize_t>(sizeof(value)) && value != 0;
}

}  // namespace server
}  // namespace mrl
