// attach_mode.cpp - the Figure 3B scenario: the application is ALREADY
// running under the resource manager when the user decides to attach a
// tool to it. Contrast with quickstart.cpp (create mode).
//
// Run:  ./attach_mode
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"
#include "net/tcp.hpp"
#include "paradyn/paradynd.hpp"
#include "proc/posix_backend.hpp"
#include "util/fd.hpp"

using namespace tdp;

int main() {
  auto transport = std::make_shared<net::TcpTransport>();

  attr::AttrServer lass("LASS", transport);
  auto lass_address = lass.start("127.0.0.1:0");
  if (!lass_address.is_ok()) return 1;

  // The RM has been running this application for a while (Figure 3B: "the
  // application is already running and controlled by the resource manager").
  InitOptions rm_options;
  rm_options.role = Role::kResourceManager;
  rm_options.lass_address = lass_address.value();
  rm_options.transport = transport;
  rm_options.backend = std::make_shared<proc::PosixProcessBackend>();
  auto rm = TdpSession::init(std::move(rm_options));
  if (!rm.is_ok()) return 1;

  proc::CreateOptions app;
  app.argv = {"/bin/sleep", "3"};
  app.mode = proc::CreateMode::kRun;  // running normally, no tool yet
  auto pid = rm.value()->create_process(app);
  if (!pid.is_ok()) return 1;
  rm.value()->put(attr::attrs::kExecutableName, "/bin/sleep");
  std::printf("[RM] application running for a while already (pid %lld)\n",
              static_cast<long long>(pid.value()));

  std::atomic<bool> rm_stop{false};
  std::thread rm_loop([&] {
    // Block on the session's one descriptor (Section 3.3): it wakes for a
    // tool's request and for a child's exit. The bound is for rm_stop.
    const int fd = rm.value()->event_fd();
    while (!rm_stop.load()) {
      wait_readable({fd}, 10);
      rm.value()->service_events();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::printf("[user] decides to profile the running application...\n");

  // "At a later time, a RT tool would like to attach to the application
  // process": the daemon is configured with the pid directly (attach mode)
  // instead of blocking on the attribute space.
  paradyn::ParadyndConfig tool_config;
  tool_config.lass_address = lass_address.value();
  tool_config.transport = transport;
  tool_config.attach_pid = pid.value();  // <- Figure 3B's difference
  tool_config.sample_quantum_micros = 20'000;
  paradyn::Paradynd daemon(std::move(tool_config));

  Status status = daemon.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "attach failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("[RT] attached to pid %lld mid-execution, instrumentation in, "
              "application continued\n",
              static_cast<long long>(daemon.app_pid()));

  status = daemon.run(/*timeout_ms=*/20'000);
  if (!status.is_ok()) {
    std::fprintf(stderr, "monitoring failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("[RT] application exited; profile collected:\n");
  const auto& metrics = daemon.local_metrics();
  for (const std::string& focus : metrics.foci(paradyn::Metric::kCpuTime)) {
    // Module-level foci only: exactly two '/' as in "/Code/<module>".
    if (std::count(focus.begin(), focus.end(), '/') != 2) continue;
    if (focus.rfind("/Code/", 0) != 0) continue;
    std::printf("   %-24s %.0f us\n", focus.c_str(),
                metrics.value(paradyn::Metric::kCpuTime, focus));
  }

  daemon.stop();
  rm_stop.store(true);
  rm_loop.join();
  rm.value()->exit();
  lass.stop();
  std::printf("[done] attach-mode session complete\n");
  return 0;
}
