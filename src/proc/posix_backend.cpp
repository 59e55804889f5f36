#include "proc/posix_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/ptrace.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/clock.hpp"
#include "util/log.hpp"

namespace tdp::proc {

namespace {

const log::Logger kLog("posix_proc");

/// Wait bound for a child without a pidfd (the kernel refused one).
constexpr int kTickMs = 2;

/// A descriptor readable once `pid` exits; -1 if the kernel has no
/// pidfd_open (Linux < 5.3) or refuses it.
UniqueFd open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return UniqueFd(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)));
#else
  (void)pid;
  return UniqueFd();
#endif
}

Status errno_status(ErrorCode code, const char* what) {
  return make_error(code, std::string(what) + ": " + std::strerror(errno));
}

/// Child-side setup after fork; only async-signal-safe calls allowed.
/// On any failure, writes errno to err_fd and _exits.
[[noreturn]] void child_exec(const CreateOptions& options, int err_fd) {
  auto fail = [err_fd](int saved_errno) {
    // In pre-exec-stop mode the parent has already closed the pipe's read
    // end; the report write must not kill us with SIGPIPE before the
    // deliberate _exit(127). Safe: this process exits on the next line,
    // so the ignored disposition never leaks into an exec'd image.
    ::signal(SIGPIPE, SIG_IGN);
    [[maybe_unused]] ssize_t n = ::write(err_fd, &saved_errno, sizeof(saved_errno));
    _exit(127);
  };

  if (!options.working_dir.empty() && ::chdir(options.working_dir.c_str()) != 0) {
    fail(errno);
  }

  auto redirect = [&](const std::string& path, int target_fd, int flags) -> bool {
    if (path.empty()) return true;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return false;
    if (::dup2(fd, target_fd) < 0) return false;
    ::close(fd);
    return true;
  };
  if (!redirect(options.stdin_path, STDIN_FILENO, O_RDONLY)) fail(errno);
  if (!redirect(options.stdout_path, STDOUT_FILENO, O_WRONLY | O_CREAT | O_TRUNC)) {
    fail(errno);
  }
  if (!redirect(options.stderr_path, STDERR_FILENO, O_WRONLY | O_CREAT | O_TRUNC)) {
    fail(errno);
  }

  std::vector<char*> argv;
  argv.reserve(options.argv.size() + 1);
  for (const auto& arg : options.argv) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  for (const auto& kv : options.env) {
    // const_cast is safe: putenv keeps the pointer, and the child execs or
    // exits immediately.
    ::putenv(const_cast<char*>(kv.c_str()));
  }

  if (options.mode == CreateMode::kPaused) {
    if (::ptrace(PTRACE_TRACEME, 0, nullptr, nullptr) != 0) fail(errno);
  } else if (options.mode == CreateMode::kPausedBeforeExec) {
    ::kill(::getpid(), SIGSTOP);  // stop here; exec happens on SIGCONT
  }

  ::execvp(argv[0], argv.data());
  fail(errno);
  _exit(127);  // unreachable; satisfies [[noreturn]] (fail is a lambda)
}

}  // namespace

PosixProcessBackend::~PosixProcessBackend() {
  // Last-resort cleanup: kill and reap everything still alive so tests and
  // daemons never leak stopped children.
  LockGuard lock(mutex_);
  for (auto& [pid, managed] : managed_) {
    if (!is_terminal(managed.info.state)) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      ::kill(static_cast<pid_t>(pid), SIGCONT);  // SIGKILL needs the process runnable
    }
    if (!managed.reaped) {
      int status = 0;
      ::waitpid(static_cast<pid_t>(pid), &status, 0);
    }
  }
}

Result<Pid> PosixProcessBackend::create_process(const CreateOptions& options) {
  if (options.argv.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "argv must not be empty");
  }

  int err_pipe[2] = {-1, -1};
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    return errno_status(ErrorCode::kInternal, "pipe2");
  }

  pid_t child = ::fork();
  if (child < 0) {
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    return errno_status(ErrorCode::kResourceExhausted, "fork");
  }
  if (child == 0) {
    ::close(err_pipe[0]);
    child_exec(options, err_pipe[1]);  // never returns
  }
  ::close(err_pipe[1]);

  // For kPaused we must observe the exec-stop before reading the error
  // pipe: a successful exec closes the pipe (CLOEXEC) and stops the child.
  ProcessState initial_state = ProcessState::kRunning;
  if (options.mode == CreateMode::kPaused) {
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(child, &status, WUNTRACED);
    } while (rc < 0 && errno == EINTR);
    if (rc == child && WIFSTOPPED(status)) {
      // SIGTRAP = exec-stop under TRACEME. Detach leaving a plain SIGSTOP.
      ::ptrace(PTRACE_DETACH, child, nullptr, reinterpret_cast<void*>(SIGSTOP));
      initial_state = ProcessState::kPausedAtExec;
    } else {
      // Child exited before exec (exec failure path handled below).
      initial_state = ProcessState::kFailed;
    }
  } else if (options.mode == CreateMode::kPausedBeforeExec) {
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(child, &status, WUNTRACED);
    } while (rc < 0 && errno == EINTR);
    initial_state = (rc == child && WIFSTOPPED(status)) ? ProcessState::kPausedAtExec
                                                        : ProcessState::kFailed;
  }

  // Check for exec failure: the child writes errno before _exit(127). In
  // kPausedBeforeExec mode exec has not happened yet (the child is stopped
  // with the pipe still open), so reading would block; exec failures in
  // that mode surface later as exit code 127.
  if (options.mode != CreateMode::kPausedBeforeExec) {
    int child_errno = 0;
    ssize_t nread;
    do {
      nread = ::read(err_pipe[0], &child_errno, sizeof(child_errno));
    } while (nread < 0 && errno == EINTR);
    ::close(err_pipe[0]);

    if (nread == static_cast<ssize_t>(sizeof(child_errno))) {
      int status = 0;
      ::waitpid(child, &status, 0);  // reap the _exit(127)
      return make_error(ErrorCode::kInvalidArgument,
                        "exec failed for '" + options.argv[0] +
                            "': " + std::strerror(child_errno));
    }
  } else {
    ::close(err_pipe[0]);
  }

  Managed managed;
  managed.info.pid = child;
  managed.info.state = initial_state;
  managed.info.executable = options.argv[0];
  // A terminal child may already be reaped, its pid free for reuse.
  if (!is_terminal(initial_state)) managed.pidfd = open_pidfd(child);
  LockGuard lock(mutex_);
  events_.add(managed.pidfd.get());
  managed_[child] = std::move(managed);
  kLog.debug("created pid ", child, " state=", process_state_name(initial_state));
  return static_cast<Pid>(child);
}

Result<PosixProcessBackend::Managed*> PosixProcessBackend::find_locked(Pid pid) {
  auto it = managed_.find(pid);
  if (it == managed_.end()) {
    return make_error(ErrorCode::kNotFound, "pid not managed: " + std::to_string(pid));
  }
  return &it->second;
}

Status PosixProcessBackend::attach(Pid pid) {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  auto found = find_locked(pid);
  if (!found.is_ok()) return found.status();
  Managed* managed = found.value();
  drain_status_locked(pid);
  if (is_terminal(managed->info.state)) {
    return make_error(ErrorCode::kInvalidState, "cannot attach: process is terminal");
  }
  if (managed->info.state == ProcessState::kPausedAtExec ||
      managed->info.state == ProcessState::kStopped) {
    return Status::ok();  // already under control and paused
  }
  if (::kill(static_cast<pid_t>(pid), SIGSTOP) != 0) {
    return errno_status(ErrorCode::kInternal, "kill(SIGSTOP)");
  }
  managed->info.state = ProcessState::kStopped;
  queue_event_locked({pid, ProcessState::kStopped, 0, 0});
  return Status::ok();
}

Status PosixProcessBackend::continue_process(Pid pid) {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  auto found = find_locked(pid);
  if (!found.is_ok()) return found.status();
  Managed* managed = found.value();
  drain_status_locked(pid);
  if (is_terminal(managed->info.state)) {
    return make_error(ErrorCode::kInvalidState, "cannot continue: process is terminal");
  }
  if (::kill(static_cast<pid_t>(pid), SIGCONT) != 0) {
    return errno_status(ErrorCode::kInternal, "kill(SIGCONT)");
  }
  if (managed->info.state != ProcessState::kRunning) {
    managed->info.state = ProcessState::kRunning;
    queue_event_locked({pid, ProcessState::kRunning, 0, 0});
  }
  return Status::ok();
}

Status PosixProcessBackend::pause_process(Pid pid) {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  auto found = find_locked(pid);
  if (!found.is_ok()) return found.status();
  Managed* managed = found.value();
  drain_status_locked(pid);
  if (is_terminal(managed->info.state)) {
    return make_error(ErrorCode::kInvalidState, "cannot pause: process is terminal");
  }
  if (::kill(static_cast<pid_t>(pid), SIGSTOP) != 0) {
    return errno_status(ErrorCode::kInternal, "kill(SIGSTOP)");
  }
  if (managed->info.state == ProcessState::kRunning) {
    managed->info.state = ProcessState::kStopped;
    queue_event_locked({pid, ProcessState::kStopped, 0, 0});
  }
  return Status::ok();
}

Status PosixProcessBackend::kill_process(Pid pid) {
  LockGuard lock(mutex_);
  auto found = find_locked(pid);
  if (!found.is_ok()) return found.status();
  Managed* managed = found.value();
  if (is_terminal(managed->info.state)) return Status::ok();
  if (::kill(static_cast<pid_t>(pid), SIGKILL) != 0) {
    return errno_status(ErrorCode::kInternal, "kill(SIGKILL)");
  }
  // A stopped process must be continued for SIGKILL delivery... actually
  // SIGKILL terminates stopped processes directly, but be defensive:
  ::kill(static_cast<pid_t>(pid), SIGCONT);
  return Status::ok();
}

Result<ProcessInfo> PosixProcessBackend::info(Pid pid) {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  auto found = find_locked(pid);
  if (!found.is_ok()) return found.status();
  drain_status_locked(pid);
  return found.value()->info;
}

void PosixProcessBackend::queue_event_locked(const ProcessEvent& event) {
  pending_events_.push_back(event);
  events_.queued();
}

void PosixProcessBackend::drop_pidfd_locked(Managed& managed) {
  // Out of the set first: a duplicate held by wait_terminal would keep the
  // registration (and its readiness) alive past the close.
  events_.remove(managed.pidfd.get());
  managed.pidfd.reset();
}

int PosixProcessBackend::event_fd() const {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  if (!events_.built()) {
    if (events_.fd() < 0) return -1;
    for (const auto& [pid, managed] : managed_) events_.add(managed.pidfd.get());
    // Events queued before anyone asked for the descriptor are news too.
    if (!pending_events_.empty()) events_.queued();
  }
  return events_.fd();
}

void PosixProcessBackend::drain_status_locked(Pid pid) {
  auto it = managed_.find(pid);
  if (it == managed_.end() || it->second.reaped) return;
  Managed& managed = it->second;

  while (true) {
    int status = 0;
    pid_t rc = ::waitpid(static_cast<pid_t>(pid), &status,
                         WNOHANG | WUNTRACED | WCONTINUED);
    if (rc == 0) return;  // no pending change
    if (rc < 0) {
      if (errno == EINTR) continue;
      // ECHILD: someone else reaped; keep last known state. Its pidfd
      // would report the exit forever with nothing left to collect.
      drop_pidfd_locked(managed);
      return;
    }
    if (WIFEXITED(status)) {
      managed.info.state = ProcessState::kExited;
      managed.info.exit_code = WEXITSTATUS(status);
      managed.reaped = true;
      drop_pidfd_locked(managed);
      queue_event_locked({pid, ProcessState::kExited, managed.info.exit_code, 0});
      return;
    }
    if (WIFSIGNALED(status)) {
      managed.info.state = ProcessState::kSignalled;
      managed.info.term_signal = WTERMSIG(status);
      managed.reaped = true;
      drop_pidfd_locked(managed);
      queue_event_locked({pid, ProcessState::kSignalled, 0, managed.info.term_signal});
      return;
    }
    if (WIFSTOPPED(status) && managed.info.state == ProcessState::kRunning) {
      managed.info.state = ProcessState::kStopped;
      queue_event_locked({pid, ProcessState::kStopped, 0, 0});
    } else if (WIFCONTINUED(status) &&
               (managed.info.state == ProcessState::kStopped ||
                managed.info.state == ProcessState::kPausedAtExec)) {
      managed.info.state = ProcessState::kRunning;
      queue_event_locked({pid, ProcessState::kRunning, 0, 0});
    }
  }
}

std::vector<ProcessEvent> PosixProcessBackend::poll_events() {
  // Clear first: an event queued after this re-signals, and one queued
  // before it is in the batch swapped out below.
  events_.clear();
  LockGuard lock(mutex_);
  for (auto& [pid, managed] : managed_) {
    if (!managed.reaped) drain_status_locked(pid);
  }
  std::vector<ProcessEvent> out;
  out.swap(pending_events_);
  // Everything queued so far is returned; nothing is left to signal.
  events_.taken();
  return out;
}

Result<ProcessInfo> PosixProcessBackend::wait_terminal(Pid pid, int timeout_ms) {
  const EventSource::SignalAtExit signal{events_};
  const Clock& wall = RealClock::instance();
  const bool has_deadline = timeout_ms >= 0;
  const Micros deadline = wall.now_micros() + static_cast<Micros>(timeout_ms) * 1000;
  // A duplicate of the child's pidfd, so the one polled below stays valid
  // if another thread reaps the child and closes the original meanwhile.
  UniqueFd exited;
  while (true) {
    {
      LockGuard lock(mutex_);
      auto found = find_locked(pid);
      if (!found.is_ok()) return found.status();
      drain_status_locked(pid);
      if (is_terminal(found.value()->info.state)) return found.value()->info;
      if (!exited.valid() && found.value()->pidfd.valid()) {
        exited.reset(::fcntl(found.value()->pidfd.get(), F_DUPFD_CLOEXEC, 0));
      }
    }
    events_.signal();
    int wait = -1;
    if (has_deadline) {
      const Micros now = wall.now_micros();
      if (now >= deadline) {
        return make_error(ErrorCode::kTimeout, "process did not terminate in time");
      }
      wait = static_cast<int>((deadline - now + 999) / 1000);
    }
    // Without a pidfd the exit is only seen by polling: bound the wait.
    if (!exited.valid()) wait = wait < 0 ? kTickMs : std::min(wait, kTickMs);
    wait_readable({exited.get()}, wait);
  }
}

std::size_t PosixProcessBackend::managed_count() {
  LockGuard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [pid, managed] : managed_) {
    if (!managed.reaped) ++count;
  }
  return count;
}

}  // namespace tdp::proc
