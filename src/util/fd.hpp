// fd.hpp - owned descriptors and the parts of the Section 3.3 event fd.
//
// The paper gives each daemon one descriptor to poll: "asynchronous events
// simply cause activity on a descriptor, so the daemon would return from
// the poll". Every layer that can have work builds that descriptor from
// these parts:
//   * EpollSet      - an epoll instance over the layer's sources. The set's
//                     own descriptor polls readable while any member does,
//                     so sets nest: the AttrClient and process-backend sets
//                     are members of the TdpSession set;
//   * EventSource   - an EpollSet plus an eventfd the layer signals when it
//                     queued work no kernel object reports (a queued
//                     callback, a queued process event);
//   * wait_readable - a bounded poll over a few such descriptors, the one
//                     wait every daemon loop uses.
#pragma once

#include <atomic>
#include <initializer_list>
#include <optional>
#include <span>

namespace tdp {

/// RAII file descriptor (Core Guidelines R.1).
class UniqueFd {
 public:
  UniqueFd() noexcept = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  int release() noexcept {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// A level-triggered epoll set; fd() polls readable while any member does.
class EpollSet {
 public:
  EpollSet();  ///< invalid (fd() == -1) if the kernel refuses an epoll fd

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Adds `member` for readability; false (and no change) if it is < 0 or
  /// the kernel refuses it.
  bool add(int member) const;

  /// Removes `member`. Call before closing a member: a registration lives
  /// as long as any duplicate of the descriptor does.
  void remove(int member) const;

 private:
  UniqueFd fd_;
};

/// The descriptor a layer hands to a daemon's poll loop: an EpollSet over
/// the layer's kernel sources plus an eventfd for work the layer queued
/// itself. The owner builds it on demand and marks queued work under its
/// own lock; the eventfd is written only after that lock is released and
/// read empty before the owner drains, so no wake-up is lost and none is
/// written under a lock. Methods marked "owner's lock" need it held; the
/// others need it released.
class EventSource {
 public:
  /// Owner's lock. Builds the set on the first call; its descriptor, or -1
  /// if the kernel refuses an epoll or eventfd (then nothing is built).
  int fd();
  /// Owner's lock. True once fd() has built the set.
  [[nodiscard]] bool built() const noexcept { return set_.has_value(); }

  /// Owner's lock. Set membership; no-ops until built.
  void add(int member) const;
  void remove(int member) const;

  /// Owner's lock. Work was queued: the next signal() makes fd() readable.
  /// A no-op until built.
  void queued();
  /// Owner's lock. The owner took its whole queue: nothing left to signal.
  void taken() { pending_.store(false, std::memory_order_relaxed); }

  /// Makes fd() readable if work was queued since the last signal.
  void signal();
  /// Call before taking the owner's lock to drain: makes fd() unreadable
  /// (until the next signal) if it was signalled.
  void clear();

  /// Declared before a LockGuard on the owner's lock: signal() runs once
  /// the guard has released it, on every return path.
  struct SignalAtExit {
    EventSource& source;
    ~SignalAtExit() { source.signal(); }
  };

 private:
  std::optional<EpollSet> set_;
  UniqueFd wake_;
  std::atomic<int> wake_fd_{-1};  ///< wake_, for signal()/clear()
  std::atomic<bool> pending_{false};  ///< queued since the last signal
  std::atomic<bool> raised_{false};   ///< written since the last clear
};

/// Waits up to `timeout_ms` (<0 forever) until one of `fds` polls readable;
/// entries < 0 are skipped, and with none left this just waits out the
/// timeout. Returns the number of ready descriptors, 0 on timeout or EINTR.
int wait_readable(std::span<const int> fds, int timeout_ms);
inline int wait_readable(std::initializer_list<int> fds, int timeout_ms) {
  return wait_readable(std::span<const int>(fds.begin(), fds.size()), timeout_ms);
}

}  // namespace tdp
