// quickstart.cpp - the smallest complete TDP program: one process plays
// the RM, another session plays the RT, and a real /bin/sleep plays the
// application. The output narrates the Figure 3A create-mode sequence:
//
//   RM: tdp_init -> create application PAUSED -> publish pid
//   RT: tdp_init -> blocking tdp_get("pid") -> tdp_attach ->
//       (tool initialization here) -> tdp_continue_process
//
// Run:  ./quickstart
#include <cstdio>
#include <memory>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"
#include "net/tcp.hpp"
#include "proc/posix_backend.hpp"
#include "util/fd.hpp"

using namespace tdp;

namespace {

void check(const Status& status, const char* what) {
  if (!status.is_ok()) {
    std::fprintf(stderr, "FAILED %s: %s\n", what, status.to_string().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  auto transport = std::make_shared<net::TcpTransport>();

  // In a deployment the RM starts the LASS on each execution host
  // (Section 2.1); here we host it ourselves on an ephemeral port.
  attr::AttrServer lass("LASS", transport);
  auto lass_address = lass.start("127.0.0.1:0");
  check(lass_address.status(), "starting LASS");
  std::printf("[setup] LASS listening on %s\n", lass_address.value().c_str());

  // --- the RM side (what a batch system's starter does) ---
  InitOptions rm_options;
  rm_options.role = Role::kResourceManager;
  rm_options.lass_address = lass_address.value();
  rm_options.transport = transport;
  rm_options.backend = std::make_shared<proc::PosixProcessBackend>();
  auto rm = TdpSession::init(std::move(rm_options));
  check(rm.status(), "RM tdp_init");
  std::printf("[RM] tdp_init done\n");

  proc::CreateOptions app;
  app.argv = {"/bin/sleep", "2"};
  app.mode = proc::CreateMode::kPaused;  // stopped just after exec
  auto pid = rm.value()->create_process(app);
  check(pid.status(), "tdp_create_process(paused)");
  std::printf("[RM] created /bin/sleep paused at exec, pid %lld\n",
              static_cast<long long>(pid.value()));

  check(rm.value()->put(attr::attrs::kPid, std::to_string(pid.value())),
        "tdp_put(pid)");
  std::printf("[RM] published pid into the attribute space\n");

  // The RM's central poll loop runs on its own thread, serving the tool's
  // control requests (Section 2.3: all process control goes through the RM).
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

  // --- the RT side (what a tool daemon does) ---
  InitOptions rt_options;
  rt_options.role = Role::kTool;
  rt_options.lass_address = lass_address.value();
  rt_options.transport = transport;
  auto rt = TdpSession::init(std::move(rt_options));
  check(rt.status(), "RT tdp_init");
  std::printf("[RT] tdp_init done\n");

  auto pid_value = rt.value()->get(attr::attrs::kPid, /*timeout_ms=*/5000);
  check(pid_value.status(), "tdp_get(pid)");
  const proc::Pid app_pid = std::stoll(pid_value.value());
  std::printf("[RT] got pid %lld from the attribute space\n",
              static_cast<long long>(app_pid));

  check(rt.value()->attach(app_pid), "tdp_attach");
  std::printf("[RT] attached; application is paused before main()\n");
  std::printf("[RT] ... tool initialization would happen here ...\n");

  check(rt.value()->continue_process(app_pid), "tdp_continue_process");
  std::printf("[RT] continued the application\n");

  // Watch the application run to completion through the RM's published
  // state stream.
  while (true) {
    auto info = rt.value()->process_info(app_pid);
    if (info.is_ok() && proc::is_terminal(info->state)) {
      std::printf("[RT] application %s (exit code %d)\n",
                  proc::process_state_name(info->state), info->exit_code);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  check(rt.value()->exit(), "RT tdp_exit");
  rm_stop.store(true);
  rm_loop.join();
  check(rm.value()->exit(), "RM tdp_exit");
  lass.stop();
  std::printf("[done] the Figure 3A sequence completed successfully\n");
  return 0;
}
