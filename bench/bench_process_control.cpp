// bench_process_control (exp S7, §2.3) - the single-point-of-responsibility
// design: all control ops route through the RM. Measures the cost of that
// indirection (RM-routed vs direct backend call) and demonstrates the
// race-freedom it buys: many tools issuing conflicting pause/continue
// against one process never produce an illegal state transition, because
// one RM serializes them.
#include <benchmark/benchmark.h>
#include <poll.h>

#include <thread>

#include "bench_util.hpp"
#include "core/tdp.hpp"

namespace {

using namespace tdp;
using bench::AttrSpaceFixture;

struct ControlFixture {
  AttrSpaceFixture space = AttrSpaceFixture::inproc("ctl");
  std::shared_ptr<proc::SimProcessBackend> backend =
      std::make_shared<proc::SimProcessBackend>();
  std::unique_ptr<TdpSession> rm;
  proc::Pid pid = 0;
  std::thread pump;
  std::atomic<bool> stop{false};

  /// `with_pump` starts the RM poll loop; only the tool-routed variants
  /// need it. The direct variants must NOT run it: every pause/continue
  /// emits a state event, and a pump would publish millions of them into
  /// the attribute space — measuring the flood, not the call.
  explicit ControlFixture(bool with_pump) {
    InitOptions options;
    options.role = Role::kResourceManager;
    options.lass_address = space.address;
    options.transport = space.transport;
    options.backend = backend;
    rm = TdpSession::init(std::move(options)).value();
    proc::CreateOptions app;
    app.argv = {"app"};
    app.sim_work_units = 1'000'000'000;
    pid = rm->create_process(app).value();
    if (with_pump) {
      // The Section 3.3 daemon loop: block on the session's event fd, then
      // service. The 1 ms bound only lets the loop notice `stop` promptly.
      pump = std::thread([this] {
        pollfd pfd{rm->event_fd(), POLLIN, 0};
        while (!stop.load(std::memory_order_acquire)) {
          ::poll(&pfd, 1, 1);
          rm->service_events();
        }
      });
    }
  }

  ~ControlFixture() {
    stop.store(true, std::memory_order_release);
    if (pump.joinable()) pump.join();
  }

  /// Discards queued backend events (direct variants drain periodically so
  /// neither memory nor a later pump pays for the bench loop's history).
  void drain_events() { backend->poll_events(); }

  std::unique_ptr<TdpSession> tool() {
    InitOptions options;
    options.role = Role::kTool;
    options.lass_address = space.address;
    options.transport = space.transport;
    return TdpSession::init(std::move(options)).value();
  }
};

void BM_Control_DirectBackendCall(benchmark::State& state) {
  // Baseline: what pause/continue costs without any protocol (the RM's own
  // privileged path).
  bench::silence_logs();
  ControlFixture fixture(/*with_pump=*/false);
  std::int64_t i = 0;
  for (auto _ : state) {
    fixture.backend->pause_process(fixture.pid);
    fixture.backend->continue_process(fixture.pid);
    if (++i % 4096 == 0) fixture.drain_events();
  }
  fixture.drain_events();
}
BENCHMARK(BM_Control_DirectBackendCall)->Unit(benchmark::kMicrosecond);

void BM_Control_RmSessionCall(benchmark::State& state) {
  // The RM's TdpSession call (thin wrapper over the backend).
  bench::silence_logs();
  ControlFixture fixture(/*with_pump=*/false);
  std::int64_t i = 0;
  for (auto _ : state) {
    fixture.rm->pause_process(fixture.pid);
    fixture.rm->continue_process(fixture.pid);
    if (++i % 4096 == 0) fixture.drain_events();
  }
  fixture.drain_events();
}
BENCHMARK(BM_Control_RmSessionCall)->Unit(benchmark::kMicrosecond);

void BM_Control_ToolRoutedThroughRm(benchmark::State& state) {
  // The Section 2.3 path: tool -> attribute space -> RM -> backend ->
  // reply. This is the price of race-freedom.
  bench::silence_logs();
  ControlFixture fixture(/*with_pump=*/true);
  auto tool = fixture.tool();
  for (auto _ : state) {
    tool->pause_process(fixture.pid);
    tool->continue_process(fixture.pid);
  }
}
BENCHMARK(BM_Control_ToolRoutedThroughRm)->Unit(benchmark::kMicrosecond);

void BM_Control_ContendedToolOps(benchmark::State& state) {
  // N tools hammer pause/continue on the same process concurrently. The
  // serialized-RM design guarantees every op lands on a consistent state;
  // we count ops completed and verify the event stream afterwards.
  bench::silence_logs();
  const int ntools = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ControlFixture fixture(/*with_pump=*/true);
    std::vector<std::unique_ptr<TdpSession>> tools;
    for (int i = 0; i < ntools; ++i) tools.push_back(fixture.tool());
    state.ResumeTiming();

    constexpr int kOpsPerTool = 10;
    std::vector<std::thread> threads;
    for (int i = 0; i < ntools; ++i) {
      TdpSession* tool = tools[static_cast<std::size_t>(i)].get();
      threads.emplace_back([tool, &fixture] {
        for (int op = 0; op < kOpsPerTool; ++op) {
          tool->pause_process(fixture.pid);
          tool->continue_process(fixture.pid);
        }
      });
    }
    for (auto& thread : threads) thread.join();

    state.PauseTiming();
    // Verify the legality invariant: the backend's event stream must be a
    // legal walk (the sim backend enforces it; an illegal op would have
    // errored and the count would show).
    proc::ProcessState last = proc::ProcessState::kCreated;
    bool legal = true;
    for (const auto& event : fixture.backend->poll_events()) {
      if (last != proc::ProcessState::kCreated &&
          !proc::valid_transition(last, event.state)) {
        legal = false;
      }
      last = event.state;
    }
    if (!legal) state.SkipWithError("illegal transition observed");
    state.ResumeTiming();
  }
  state.counters["tools"] = ntools;
  state.SetItemsProcessed(state.iterations() * ntools * 20);
}
BENCHMARK(BM_Control_ContendedToolOps)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
