// jobs_sim - the monitored job lifecycle on the virtual cluster:
// InProcTransport, SimProcessBackend, InProcParadynLauncher and an
// in-process Paradyn Frontend. Four machines, four job slots; one loop
// thread turns submit / negotiate / sim step / pump and refills a slot
// when its job ends. Every job is monitored; its sim_work_units are drawn
// from the seed.
//
// Unit op: a job, submit -> terminal state observed. Schedd, matchmaker,
// starter and the in-process attribute space do the work; there is no
// codec, no TCP and no fork.
//
// Runnable by hand, but not a BENCHMARK.json workload: the program fails its
// per-job report check now and then. A short job can finish, and its starter
// stop the LASS, while the in-process paradynd is still in its startup
// handshake; that daemon's start() then fails and it never reports.
#include <optional>
#include <thread>

#include "bench.hpp"
#include "condor/pool.hpp"
#include "decorators.hpp"
#include "net/inproc.hpp"
#include "paradyn/frontend.hpp"
#include "paradyn/inproc_tool.hpp"
#include "proc/sim_backend.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tdp;
using Scope = Tracer::Scope;

constexpr int kJobsPerRound = 400;
constexpr int kWarmupJobs = 40;
constexpr int kMachines = 4;
constexpr std::size_t kSlots = 4;
constexpr std::int64_t kMinWork = 5;
constexpr std::int64_t kMaxWork = 40;
constexpr Nanos kRoundTimeout = 120'000'000'000;

struct InFlight {
  condor::JobId id = 0;
  Nanos start = 0;
  std::int64_t trace = 0;
};

}  // namespace

Report run_jobs_sim(const RunOptions& options) {
  Report report;
  Samples samples;
  TracedTotals totals;
  Rng rng(options.seed);
  Tracer& tracer = Tracer::instance();
  std::int64_t next_trace = 1;

  samples.rss_mb = run_rounds(options.seconds, [&](int round) {
    const bool warmup = round == 0;
    const bool traced = options.trace && !warmup && round % 2 == 0;
    const int njobs = warmup ? kWarmupJobs : kJobsPerRound;
    std::vector<std::int64_t> work(static_cast<std::size_t>(njobs));
    for (auto& units : work) {
      units = kMinWork + static_cast<std::int64_t>(
                             rng.next_below(static_cast<std::uint64_t>(kMaxWork - kMinWork + 1)));
    }

    // --- set-up: front-end, tool launcher, pool ---
    const Nanos setup_start = now_ns();
    std::shared_ptr<net::Transport> transport = net::InProcTransport::create();
    if (traced) transport = std::make_shared<TimingTransport>(transport);
    paradyn::Frontend frontend(transport);
    auto frontend_address = frontend.start("inproc://frontend");
    if (!report.check(frontend_address.is_ok(), "front-end did not start")) return false;
    paradyn::InProcParadynLauncher::Options launcher_options;
    launcher_options.transport = transport;
    launcher_options.frontend_address = frontend_address.value();
    paradyn::InProcParadynLauncher launcher(launcher_options);
    std::optional<TimingLauncher> timing_launcher;
    if (traced) timing_launcher.emplace(launcher);
    std::vector<std::shared_ptr<proc::SimProcessBackend>> sims;
    std::optional<condor::Pool> pool;
    {
      condor::PoolConfig config;
      config.transport = transport;
      config.use_real_files = false;
      config.tool_launcher = traced ? static_cast<condor::ToolLauncher*>(&*timing_launcher)
                                    : &launcher;
      config.backend_factory = [traced, &sims](const std::string&) {
        auto sim = std::make_shared<proc::SimProcessBackend>();
        sims.push_back(sim);
        std::shared_ptr<proc::ProcessBackend> backend = sim;
        if (traced) backend = std::make_shared<TimingBackend>(backend, "");
        return backend;
      };
      pool.emplace(std::move(config));
    }
    for (int m = 0; m < kMachines; ++m) {
      const std::string name = "node" + std::to_string(m);
      pool->add_machine(name, condor::Pool::default_machine_ad(name));
    }
    const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

    // --- the jobs: a closed loop over kSlots slots ---
    tracer.set_enabled(traced);
    const CpuTimes cpu_start = process_cpu();
    const Nanos phase_start = now_ns();
    std::vector<InFlight> flight;
    std::vector<double> latency_ms;
    std::vector<double> negotiate_ns;
    int submitted = 0;
    int finished = 0;
    std::uint64_t turns = 0;
    while (finished < njobs) {
      while (flight.size() < kSlots && submitted < njobs) {
        condor::JobDescription job;
        job.executable = "sim_app";
        job.suspend_job_at_exec = true;
        job.tool_daemon.present = true;
        job.tool_daemon.cmd = "paradynd";
        job.tool_daemon.args = "-a%pid";
        job.sim_work_units = work[static_cast<std::size_t>(submitted)];
        InFlight entry;
        entry.trace = next_trace++;
        entry.start = now_ns();
        Tracer::set_trace(entry.trace);
        {
          Scope span("condor.submit");
          entry.id = pool->submit(job);
        }
        flight.push_back(entry);
        ++submitted;
      }
      Tracer::set_trace(0);
      const Nanos negotiate_start = now_ns();
      {
        Scope span("condor.negotiate");
        pool->negotiate();
      }
      negotiate_ns.push_back(static_cast<double>(now_ns() - negotiate_start));
      {
        Scope span("proc.step");
        for (auto& sim : sims) sim->step(1);
      }
      int ended = 0;
      {
        Scope span("condor.pump");
        ended = pool->pump();
      }
      ++turns;
      // A job can only end inside pump(); look at every slot now and then
      // anyway, so a job that fails elsewhere is still seen.
      if (ended > 0 || turns % 64 == 0) {
        for (std::size_t i = 0; i < flight.size();) {
          auto record = pool->schedd().job(flight[i].id);
          if (record.is_ok() && !condor::job_status_terminal(record->status)) {
            ++i;
            continue;
          }
          const Nanos end = now_ns();
          tracer.record_root("e2e.job", flight[i].start, end, flight[i].trace);
          latency_ms.push_back(static_cast<double>(end - flight[i].start) / 1e6);
          ++report.attempted;
          ++finished;
          const bool ok = record.is_ok() && record->status == condor::JobStatus::kCompleted &&
                          record->exit_code == 0;
          if (!ok) {
            ++report.failed;
            report.check(false, "job " + std::to_string(flight[i].trace) +
                                    " did not complete with exit 0");
          }
          flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      if (now_ns() - phase_start > kRoundTimeout) {
        report.check(false, "round " + std::to_string(round) + " did not finish its jobs");
        report.failed += static_cast<std::uint64_t>(njobs - finished);
        report.attempted += static_cast<std::uint64_t>(njobs - finished);
        break;
      }
    }
    const double phase_wall = static_cast<double>(now_ns() - phase_start) / 1e9;
    const CpuTimes cpu_end = process_cpu();
    tracer.set_enabled(false);

    // --- checks ---
    launcher.join_all();
    const Nanos deadline = now_ns() + 2'000'000'000;
    while (frontend.finished_pids().size() < static_cast<std::size_t>(njobs) &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::size_t reported = frontend.finished_pids().size();
    // A job whose tool daemon never reported lost its monitoring: a failed op.
    if (reported < static_cast<std::size_t>(njobs)) {
      report.failed += static_cast<std::uint64_t>(njobs) - reported;
    }
    report.check(launcher.daemons_launched() == static_cast<std::size_t>(njobs),
                 std::to_string(launcher.daemons_launched()) + " tool daemons for " +
                     std::to_string(njobs) + " monitored jobs");
    report.check(reported == static_cast<std::size_t>(njobs),
                 "round " + std::to_string(round) + ": " + std::to_string(reported) +
                     " paradynd final reports for " + std::to_string(njobs) + " jobs");
    const auto stats = pool->matchmaker().stats();
    report.check(stats.matches == static_cast<std::uint64_t>(njobs),
                 "matchmaker made " + std::to_string(stats.matches) + " matches for " +
                     std::to_string(njobs) + " jobs");

    if (!warmup) {
      if (traced) {
        totals.ops += static_cast<std::uint64_t>(njobs);
        totals.monitored_jobs += static_cast<std::uint64_t>(njobs);
        totals.reports += static_cast<double>(frontend.reports_received());
        totals.evaluations += static_cast<double>(stats.evaluations);
        totals.turns += static_cast<double>(turns);
        const std::size_t tenth = std::max<std::size_t>(1, negotiate_ns.size() / 10);
        const std::vector<double> first(negotiate_ns.begin(), negotiate_ns.begin() + tenth);
        const std::vector<double> last(negotiate_ns.end() - tenth, negotiate_ns.end());
        if (mean(first) > 0) totals.negotiate_growth.push_back(mean(last) / mean(first));
        totals.traced_latency_ms.insert(totals.traced_latency_ms.end(), latency_ms.begin(),
                                        latency_ms.end());
      } else {
        samples.latency_ms.insert(samples.latency_ms.end(), latency_ms.begin(),
                                  latency_ms.end());
        samples.add_round(setup_s, phase_wall,
                          (cpu_end.self_s - cpu_start.self_s) +
                              (cpu_end.children_s - cpu_start.children_s),
                          static_cast<std::uint64_t>(njobs));
      }
    }

    frontend.stop();
    pool.reset();
    return report.correct;
  });

  add_end_to_end(report, samples,
                 {"job_turnaround_p50_ms", "job_turnaround_tail_ms", "jobs_per_s",
                  "cpu_per_job_ms", "ms"});
  if (options.trace) {
    totals.untraced_latency_ms = samples.latency_ms;
    add_layers(report, totals, options);
  }
  return report;
}

}  // namespace perfbench
