// posix_backend.hpp - real fork/exec/ptrace/waitpid process control.
//
// The create-paused implementation reproduces the paper's semantics
// exactly: "the process will be stopped just after the execution of the
// exec call" (Section 3.1). Mechanism: the child calls
// ptrace(PTRACE_TRACEME) and execs; the kernel delivers a SIGTRAP stop at
// exec; the parent then PTRACE_DETACHes with SIGSTOP, leaving the child a
// plain stopped process that any entity may later SIGCONT — no lingering
// tracer relationship, so the run-time tool is free to attach with its own
// mechanism (Paradyn would use ptrace/"/proc"; our MiniParadyn goes
// through the RM as Section 2.3 prescribes).
//
// The ablation mode kPausedBeforeExec instead raises SIGSTOP in the child
// before exec: the paper notes tools like Vampir need tracing started
// "before the application starts execution", and the difference between
// the two stop points is observable (libraries not yet loaded) — our tests
// assert it via /proc/<pid>/comm.
//
// Child state changes reach the RM on a descriptor (event_fd): one pidfd
// per managed child, readable once it exits, plus an eventfd for events a
// control call queued, all in one epoll set. A pidfd does not report
// stops and continues, so a third-party SIGSTOP/SIGCONT is seen at the
// next poll_events() the RM's bounded wait runs anyway.
#pragma once

#include <map>

#include "proc/backend.hpp"
#include "util/fd.hpp"
#include "util/sync.hpp"

namespace tdp::proc {

class PosixProcessBackend final : public ProcessBackend {
 public:
  PosixProcessBackend() = default;
  ~PosixProcessBackend() override;

  Result<Pid> create_process(const CreateOptions& options) override;
  Status attach(Pid pid) override;
  Status continue_process(Pid pid) override;
  Status pause_process(Pid pid) override;
  Status kill_process(Pid pid) override;
  Result<ProcessInfo> info(Pid pid) override;
  std::vector<ProcessEvent> poll_events() override;
  Result<ProcessInfo> wait_terminal(Pid pid, int timeout_ms) override;
  std::size_t managed_count() override;
  /// Built on the first call (backends nobody polls pay nothing); the
  /// number never changes. -1 if the kernel refuses an epoll or eventfd.
  [[nodiscard]] int event_fd() const override;

 private:
  struct Managed {
    ProcessInfo info;
    bool reaped = false;  ///< waitpid has collected the terminal status
    UniqueFd pidfd;       ///< in events_ until the child is reaped; -1 if none
  };

  /// Reaps pending waitpid statuses for `pid` without blocking; updates the
  /// registry and queues events. Caller holds mutex_.
  void drain_status_locked(Pid pid) TDP_REQUIRES(mutex_);

  /// Queues one event for poll_events() and marks event_fd() for signalling.
  void queue_event_locked(const ProcessEvent& event) TDP_REQUIRES(mutex_);

  /// Takes a child's pidfd out of events_ and closes it.
  void drop_pidfd_locked(Managed& managed) TDP_REQUIRES(mutex_);

  Result<Managed*> find_locked(Pid pid) TDP_REQUIRES(mutex_);

  /// event_fd(): the live children's pidfds plus the wake-up for queued
  /// events. fd()/add/remove/queued/taken run under mutex_, signal and
  /// clear after it is released (EventSource's own atomics).
  mutable EventSource events_;

  mutable Mutex mutex_{"PosixBackend::mutex_"};
  std::map<Pid, Managed> managed_ TDP_GUARDED_BY(mutex_);
  std::vector<ProcessEvent> pending_events_ TDP_GUARDED_BY(mutex_);
};

}  // namespace tdp::proc
