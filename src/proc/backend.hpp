// backend.hpp - the process-control interface the RM localizes.
//
// Section 2.3: "the responsibility for controlling an application process
// and for monitoring its status belongs to the RM; process management
// operations are localized and encapsulated in the RM." A ProcessBackend
// is that encapsulation: exactly one backend instance owns each process,
// which "eliminates confusing race conditions — two different processes
// will never attempt conflicting control operations."
//
// Section 3 lists the OS interfaces this hides (fork/exec, /proc, ptrace on
// Unix; CreateProcess/WaitForSingleObject on Windows); the guideline "TDP
// provides its own set of interfaces that are OS neutral" is why everything
// above this header is backend-agnostic.
#pragma once

#include "proc/process.hpp"

namespace tdp::proc {

class ProcessBackend {
 public:
  virtual ~ProcessBackend() = default;

  ProcessBackend() = default;
  ProcessBackend(const ProcessBackend&) = delete;
  ProcessBackend& operator=(const ProcessBackend&) = delete;

  /// Launches a process per `options.mode` (Section 3.1's
  /// tdp_create_process with run/paused option). Returns its Pid.
  virtual Result<Pid> create_process(const CreateOptions& options) = 0;

  /// Takes control of an already-managed process and leaves it stopped
  /// (the tool-attach steps of Section 2.2: obtain control, pause).
  /// No-op when the process is already paused/stopped.
  virtual Status attach(Pid pid) = 0;

  /// tdp_continue_process: resumes a paused/stopped process.
  virtual Status continue_process(Pid pid) = 0;

  /// Pauses a running process (tool operation routed through the RM).
  virtual Status pause_process(Pid pid) = 0;

  /// Forcibly terminates the process.
  virtual Status kill_process(Pid pid) = 0;

  /// Current snapshot; kNotFound for unmanaged pids.
  virtual Result<ProcessInfo> info(Pid pid) = 0;

  /// Collects state changes since the last call (stop/continue observations
  /// and terminal events). Non-blocking.
  virtual std::vector<ProcessEvent> poll_events() = 0;

  /// Blocks until `pid` reaches a terminal state or `timeout_ms` passes
  /// (<0 = forever). Returns the final info.
  virtual Result<ProcessInfo> wait_terminal(Pid pid, int timeout_ms) = 0;

  /// Descriptor that polls readable when poll_events() has news, for the
  /// RM to fold into its event fd (Section 3.3); -1 when this backend
  /// cannot provide one, and its callers poll on a bounded tick instead.
  [[nodiscard]] virtual int event_fd() const { return -1; }

  /// Number of processes currently managed and not yet reaped.
  virtual std::size_t managed_count() = 0;

  // --- checkpointing (Condor's standard-universe capability; Section 4.1
  // mentions the pool "including checkpointing and remote file access") ---

  /// Captures an opaque, transferable checkpoint of a live process.
  /// Backends without checkpoint support return kUnsupported (the POSIX
  /// backend does: real process checkpointing needs Condor's libckpt).
  virtual Result<std::string> checkpoint(Pid pid) {
    (void)pid;
    return make_error(ErrorCode::kUnsupported,
                      "this backend cannot checkpoint processes");
  }

  /// Recreates a process from a checkpoint, resuming where it left off.
  /// The new process starts paused-at-exec so a tool can re-attach first.
  virtual Result<Pid> restore(const std::string& checkpoint,
                              const CreateOptions& options) {
    (void)checkpoint;
    (void)options;
    return make_error(ErrorCode::kUnsupported,
                      "this backend cannot restore checkpoints");
  }
};

}  // namespace tdp::proc
