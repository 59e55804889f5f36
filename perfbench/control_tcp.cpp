// control_tcp - the tool-routed control round trip of Section 2.3 over
// TCP: a LASS AttrServer, an RM TdpSession on a PosixProcessBackend and
// two tool TdpSessions. Each tool alternates pause and continue on its own
// long-lived child, a closed loop of one call at a time. The RM loop thread
// follows the documented contract: poll(event_fd(), 2 ms), then one
// service_events().
//
// Unit op: one tool pause_process/continue_process call -> return. The
// codec, the attribute-space server and the RM event loop do the work;
// condor and paradyn are not involved.
#include <poll.h>
#include <pthread.h>

#include <atomic>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "bench.hpp"
#include "core/tdp.hpp"
#include "decorators.hpp"
#include "net/tcp.hpp"
#include "proc/posix_backend.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tdp;
using Scope = Tracer::Scope;

constexpr int kTools = 2;
constexpr int kMinOps = 360;  ///< per tool per round
constexpr int kMaxOps = 440;
constexpr int kWarmupOps = 40;
constexpr int kTickMs = 2;

Nanos thread_cpu_of(std::thread& thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0;
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The RM's event loop and what it saw while `measuring` was set.
struct RmLoop {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  // Written by the loop thread only; read after it is joined.
  double wakeups = 0;
  double timed_out_with_work = 0;
  double busy_ns = 0;
  double busy_calls = 0;

  void run(TdpSession& rm) {
    pollfd pfd{rm.event_fd(), POLLIN, 0};
    while (!stop.load(std::memory_order_acquire)) {
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, kTickMs);
      const Nanos start = now_ns();
      int handled = 0;
      {
        Scope span("core.service_events");
        handled = rm.service_events();
      }
      if (!measuring.load(std::memory_order_relaxed)) continue;
      ++wakeups;
      if (ready == 0 && handled > 0) ++timed_out_with_work;
      if (handled > 0) {
        busy_ns += static_cast<double>(now_ns() - start);
        ++busy_calls;
      }
    }
  }
};

}  // namespace

Report run_control_tcp(const RunOptions& options) {
  Report report;
  Samples samples;
  TracedTotals totals;
  Rng rng(options.seed);
  Tracer& tracer = Tracer::instance();
  std::atomic<std::int64_t> next_trace{1};

  samples.rss_mb = run_rounds(options.seconds, [&](int round) {
    const bool warmup = round == 0;
    const bool traced = options.trace && !warmup && round % 2 == 0;
    std::vector<int> ops(kTools);
    for (int& n : ops) {
      n = warmup ? kWarmupOps
                 : kMinOps + static_cast<int>(rng.next_below(kMaxOps - kMinOps + 1));
    }

    // --- set-up: LASS, RM, children, tools ---
    const Nanos setup_start = now_ns();
    std::shared_ptr<net::Transport> transport = std::make_shared<net::TcpTransport>();
    if (traced) transport = std::make_shared<TimingTransport>(transport);
    attr::AttrServer lass("LASS", transport);
    auto address = lass.start("127.0.0.1:0");
    if (!report.check(address.is_ok(), "LASS did not start")) return false;
    std::shared_ptr<proc::ProcessBackend> backend = std::make_shared<proc::PosixProcessBackend>();
    if (traced) backend = std::make_shared<TimingBackend>(backend, "");

    InitOptions rm_options;
    rm_options.role = Role::kResourceManager;
    rm_options.lass_address = address.value();
    rm_options.transport = transport;
    rm_options.backend = backend;
    auto rm = TdpSession::init(std::move(rm_options));
    if (!report.check(rm.is_ok(), "RM tdp_init failed")) return false;

    std::vector<proc::Pid> children;
    // However the round ends, no child outlives it.
    struct Reaper {
      std::vector<proc::Pid>& pids;
      proc::ProcessBackend& backend;
      ~Reaper() {
        for (proc::Pid pid : pids) {
          backend.kill_process(pid);
          backend.wait_terminal(pid, 2'000);
          unregister_child(pid);
        }
      }
    } reaper{children, *backend};
    for (int t = 0; t < kTools; ++t) {
      proc::CreateOptions child;
      child.argv = {"/bin/sleep", "3600"};
      child.mode = proc::CreateMode::kRun;
      auto pid = rm.value()->create_process(child);
      if (!report.check(pid.is_ok(), "could not create a child")) return false;
      children.push_back(pid.value());
      register_child(static_cast<long>(pid.value()));
    }

    RmLoop loop;
    std::thread rm_thread([&] { loop.run(*rm.value()); });
    struct Joiner {
      RmLoop& loop;
      std::thread& thread;
      void join() {
        loop.stop.store(true, std::memory_order_release);
        if (thread.joinable()) thread.join();
      }
      ~Joiner() { join(); }
    } joiner{loop, rm_thread};

    std::vector<std::unique_ptr<TdpSession>> tools;
    for (int t = 0; t < kTools; ++t) {
      InitOptions tool_options;
      tool_options.role = Role::kTool;
      tool_options.lass_address = address.value();
      tool_options.transport = transport;
      auto tool = TdpSession::init(std::move(tool_options));
      if (!report.check(tool.is_ok(), "tool tdp_init failed")) return false;
      tools.push_back(std::move(tool).value());
    }
    const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

    // --- the ops: each tool a closed loop on its own child ---
    tracer.set_enabled(traced);
    loop.measuring.store(true, std::memory_order_relaxed);
    const Nanos rm_cpu_start = thread_cpu_of(rm_thread);
    const CpuTimes cpu_start = process_cpu();
    const Nanos phase_start = now_ns();
    std::vector<std::vector<double>> latency(kTools);
    std::vector<int> failures(kTools, 0);
    std::vector<std::string> first_error(kTools);
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < kTools; ++t) {
        threads.emplace_back([&, t] {
          TdpSession& tool = *tools[static_cast<std::size_t>(t)];
          const proc::Pid pid = children[static_cast<std::size_t>(t)];
          auto& lat = latency[static_cast<std::size_t>(t)];
          lat.reserve(static_cast<std::size_t>(ops[static_cast<std::size_t>(t)]));
          for (int k = 0; k < ops[static_cast<std::size_t>(t)]; ++k) {
            Tracer::set_trace(next_trace.fetch_add(1, std::memory_order_relaxed));
            const Nanos start = now_ns();
            Status status;
            {
              Scope root("e2e.op");
              status = k % 2 == 0 ? tool.pause_process(pid) : tool.continue_process(pid);
            }
            lat.push_back(static_cast<double>(now_ns() - start) / 1e6);
            if (!status.is_ok()) {
              if (failures[static_cast<std::size_t>(t)]++ == 0) {
                first_error[static_cast<std::size_t>(t)] = status.to_string();
              }
            }
          }
          Tracer::set_trace(0);
        });
      }
      for (auto& thread : threads) thread.join();
    }
    const double phase_wall = static_cast<double>(now_ns() - phase_start) / 1e9;
    const CpuTimes cpu_end = process_cpu();
    const Nanos rm_cpu = thread_cpu_of(rm_thread) - rm_cpu_start;
    loop.measuring.store(false, std::memory_order_relaxed);
    tracer.set_enabled(false);

    // --- checks ---
    std::uint64_t round_ops = 0;
    for (int t = 0; t < kTools; ++t) {
      const auto idx = static_cast<std::size_t>(t);
      round_ops += static_cast<std::uint64_t>(ops[idx]);
      report.attempted += static_cast<std::uint64_t>(ops[idx]);
      report.failed += static_cast<std::uint64_t>(failures[idx]);
      report.check(failures[idx] == 0, "tool " + std::to_string(t) + ": " +
                                           std::to_string(failures[idx]) +
                                           " control calls failed, first: " + first_error[idx]);
      // The published state must end at the last op: paused after a pause,
      // running after a continue. The RM publishes it on a later turn.
      const proc::ProcessState expected = ops[idx] % 2 == 1 ? proc::ProcessState::kStopped
                                                            : proc::ProcessState::kRunning;
      proc::ProcessState seen = proc::ProcessState::kCreated;
      const Nanos deadline = now_ns() + 1'000'000'000;
      while (now_ns() < deadline) {
        auto info = tools[idx]->process_info(children[idx]);
        if (info.is_ok()) seen = info->state;
        if (seen == expected) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      report.check(seen == expected, "tool " + std::to_string(t) + ": child published as " +
                                         proc::process_state_name(seen) + " after its last op, not " +
                                         proc::process_state_name(expected));
    }

    // The RM loop's counters are read only once it has stopped.
    joiner.join();
    if (!warmup) {
      std::vector<double> round_latency;
      for (const auto& lat : latency) round_latency.insert(round_latency.end(), lat.begin(), lat.end());
      if (traced) {
        totals.ops += round_ops;
        totals.wakeups += loop.wakeups;
        totals.timed_out_with_work += loop.timed_out_with_work;
        totals.service_busy_ns += loop.busy_ns;
        totals.service_busy_calls += loop.busy_calls;
        totals.rm_cpu_ns += static_cast<double>(rm_cpu);
        totals.traced_latency_ms.insert(totals.traced_latency_ms.end(), round_latency.begin(),
                                        round_latency.end());
      } else {
        samples.latency_ms.insert(samples.latency_ms.end(), round_latency.begin(),
                                  round_latency.end());
        samples.add_round(setup_s, phase_wall, cpu_end.self_s - cpu_start.self_s, round_ops);
      }
    }

    // --- teardown (the children die in the Reaper) ---
    for (auto& tool : tools) tool->exit();
    return report.correct;
  });

  add_end_to_end(report, samples,
                 {"control_rtt_p50_us", "control_rtt_tail_us", "control_ops_per_s",
                  "cpu_per_control_op_us", "us"});
  if (options.trace) {
    totals.untraced_latency_ms = samples.latency_ms;
    add_layers(report, totals, options);
  }
  return report;
}

}  // namespace perfbench
