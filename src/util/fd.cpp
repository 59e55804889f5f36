#include "util/fd.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

namespace tdp {

void UniqueFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

EpollSet::EpollSet() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

bool EpollSet::add(int member) const {
  if (!fd_.valid() || member < 0) return false;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = member;
  return ::epoll_ctl(fd_.get(), EPOLL_CTL_ADD, member, &event) == 0;
}

void EpollSet::remove(int member) const {
  if (!fd_.valid() || member < 0) return;
  ::epoll_ctl(fd_.get(), EPOLL_CTL_DEL, member, nullptr);
}

int EventSource::fd() {
  if (!set_) {
    EpollSet set;
    UniqueFd wake(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (set.fd() < 0 || !wake.valid() || !set.add(wake.get())) return -1;
    wake_fd_.store(wake.get(), std::memory_order_release);
    wake_ = std::move(wake);
    set_.emplace(std::move(set));
  }
  return set_->fd();
}

void EventSource::add(int member) const {
  if (set_) set_->add(member);
}

void EventSource::remove(int member) const {
  if (set_) set_->remove(member);
}

void EventSource::queued() {
  if (set_) pending_.store(true, std::memory_order_release);
}

void EventSource::signal() {
  if (!pending_.exchange(false, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated: the fd is readable already.
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_.load(std::memory_order_acquire), &one, sizeof(one));
  // Raised after the write: a clear() that misses it leaves one spurious
  // wake-up, never a descriptor stuck readable.
  raised_.store(true, std::memory_order_release);
}

void EventSource::clear() {
  if (!raised_.exchange(false, std::memory_order_acq_rel)) return;
  std::uint64_t count = 0;
  // Non-semaphore mode: one read resets the counter.
  [[maybe_unused]] ssize_t n =
      ::read(wake_fd_.load(std::memory_order_acquire), &count, sizeof(count));
}

int wait_readable(std::span<const int> fds, int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (int fd : fds) {
    if (fd >= 0) pfds.push_back({fd, POLLIN, 0});
  }
  const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  return ready > 0 ? ready : 0;
}

}  // namespace tdp
