// lifecycle_posix - the monitored job lifecycle (Figures 4 and 6) on real
// processes: TcpTransport, PosixProcessBackend and the built paradynd
// executable. One job is in flight at a time, driven by
// Pool::run_to_completion; half the jobs of a round are monitored
// (+SuspendJobAtExec and a +ToolDaemon* paradynd), half are plain, in an
// order drawn from the seed.
//
// Unit op: a job, submit -> terminal state observed. The end-to-end
// latency is the monitored jobs' turnaround; plain jobs give the baseline
// that shows what TDP monitoring costs.
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "condor/pool.hpp"
#include "decorators.hpp"
#include "net/tcp.hpp"
#include "paradyn/frontend.hpp"
#include "proc/posix_backend.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace tdp;
using Scope = Tracer::Scope;

constexpr int kJobsPerRound = 80;
constexpr int kWarmupJobs = 8;
constexpr int kMachines = 2;
constexpr int kJobTimeoutMs = 30'000;

/// Monitored/plain flags for one round: equal counts, seeded order.
std::vector<bool> job_mix(int jobs, Rng& rng) {
  std::vector<bool> monitored(static_cast<std::size_t>(jobs), false);
  for (int i = 0; i < jobs / 2; ++i) monitored[static_cast<std::size_t>(i)] = true;
  for (std::size_t i = monitored.size(); i > 1; --i) {
    std::vector<bool>::swap(monitored[i - 1], monitored[rng.next_below(i)]);
  }
  return monitored;
}

condor::JobDescription make_job(bool monitored, const std::string& paradynd) {
  condor::JobDescription job;
  job.executable = "/bin/true";
  if (monitored) {
    job.suspend_job_at_exec = true;
    job.tool_daemon.present = true;
    job.tool_daemon.cmd = paradynd;
    job.tool_daemon.args = "-zunix -l1 -a%pid";
    // paradynd's own output goes to files, never to this program's stdout.
    job.tool_daemon.output = "daemon.out";
    job.tool_daemon.error = "daemon.err";
  }
  return job;
}

}  // namespace

Report run_lifecycle_posix(const RunOptions& options) {
  Report report;
  Samples samples;
  TracedTotals totals;
  std::vector<double> plain_ms;
  Rng rng(options.seed);
  Tracer& tracer = Tracer::instance();
  std::int64_t next_trace = 1;

  samples.rss_mb = run_rounds(options.seconds, [&](int round) {
    const bool warmup = round == 0;
    const bool traced = options.trace && !warmup && round % 2 == 0;
    const int njobs = warmup ? kWarmupJobs : kJobsPerRound;
    const std::vector<bool> mix = job_mix(njobs, rng);
    const int monitored_jobs = njobs / 2;

    const std::string dir = options.work_dir + "/round-" + std::to_string(round);
    std::filesystem::create_directories(dir + "/submit");
    std::filesystem::create_directories(dir + "/scratch");

    // --- set-up: front-end and pool ---
    const Nanos setup_start = now_ns();
    std::shared_ptr<net::Transport> transport = std::make_shared<net::TcpTransport>();
    if (traced) transport = std::make_shared<TimingTransport>(transport);
    paradyn::Frontend frontend(transport);
    auto frontend_address = frontend.start("127.0.0.1:0");
    if (!report.check(frontend_address.is_ok(), "front-end did not start")) return false;
    std::optional<condor::Pool> pool;
    {
      condor::PoolConfig config;
      config.transport = transport;
      config.submit_dir = dir + "/submit";
      config.scratch_base = dir + "/scratch";
      config.frontend_host = frontend.host();
      config.frontend_port = frontend.port();
      config.frontend_port2 = frontend.port2();
      config.lass_listen_pattern = "127.0.0.1:0";
      const std::string tool = options.paradynd_path;
      config.backend_factory = [traced, tool](const std::string&) {
        std::shared_ptr<proc::ProcessBackend> backend =
            std::make_shared<proc::PosixProcessBackend>();
        if (traced) backend = std::make_shared<TimingBackend>(backend, tool);
        return backend;
      };
      pool.emplace(std::move(config));
    }
    for (int m = 0; m < kMachines; ++m) {
      const std::string name = "exec" + std::to_string(m);
      pool->add_machine(name, condor::Pool::default_machine_ad(name, 2048));
    }
    const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

    // --- the jobs ---
    const std::uint64_t launches_before = tracer.counters().tool_launches.load();
    tracer.set_enabled(traced);
    const CpuTimes cpu_start = process_cpu();
    const Nanos phase_start = now_ns();
    std::vector<double> monitored_ms;
    std::vector<double> round_plain_ms;
    for (int i = 0; i < njobs; ++i) {
      const bool monitored = mix[static_cast<std::size_t>(i)];
      const condor::JobDescription job = make_job(monitored, options.paradynd_path);
      const std::int64_t trace_id = next_trace++;
      Tracer::set_trace(trace_id);
      const Nanos start = now_ns();
      Result<condor::JobRecord> record = make_error(ErrorCode::kInternal, "not run");
      {
        Scope root("e2e.job");
        condor::JobId id = 0;
        {
          Scope span("condor.submit");
          id = pool->submit(job);
        }
        Scope span("condor.rtc");
        record = pool->run_to_completion(id, kJobTimeoutMs);
      }
      const double ms = static_cast<double>(now_ns() - start) / 1e6;
      ++report.attempted;
      const bool ok = record.is_ok() && record->status == condor::JobStatus::kCompleted &&
                      record->exit_code == 0;
      if (!ok) {
        ++report.failed;
        report.check(false, "job " + std::to_string(trace_id) + " did not complete with exit 0: " +
                                (record.is_ok() ? std::string(condor::job_status_name(record->status)) +
                                                      " " + record->failure_reason
                                                : record.status().to_string()));
      }
      (monitored ? monitored_ms : round_plain_ms).push_back(ms);
    }
    const double phase_wall = static_cast<double>(now_ns() - phase_start) / 1e9;
    const CpuTimes cpu_end = process_cpu();
    tracer.set_enabled(false);
    Tracer::set_trace(0);

    // --- checks ---
    // Each monitored job's paradynd sends a final report before it exits;
    // the front-end's receive thread may still be handling the last one.
    const Nanos deadline = now_ns() + 2'000'000'000;
    while (frontend.finished_pids().size() < static_cast<std::size_t>(monitored_jobs) &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::size_t finished = frontend.finished_pids().size();
    // A job whose tool daemon never reported lost its monitoring: a failed op.
    if (finished < static_cast<std::size_t>(monitored_jobs)) {
      report.failed += static_cast<std::uint64_t>(monitored_jobs) - finished;
    }
    report.check(finished == static_cast<std::size_t>(monitored_jobs),
                 "round " + std::to_string(round) + ": " + std::to_string(finished) +
                     " paradynd final reports for " + std::to_string(monitored_jobs) +
                     " monitored jobs");
    report.check(frontend.reports_received() >= static_cast<std::size_t>(monitored_jobs),
                 "fewer front-end reports than monitored jobs");
    const auto stats = pool->matchmaker().stats();
    report.check(stats.matches == static_cast<std::uint64_t>(njobs),
                 "matchmaker made " + std::to_string(stats.matches) + " matches for " +
                     std::to_string(njobs) + " jobs");
    if (traced) {
      const std::uint64_t launches = tracer.counters().tool_launches.load() - launches_before;
      report.check(launches == static_cast<std::uint64_t>(monitored_jobs),
                   std::to_string(launches) + " tool launches for " +
                       std::to_string(monitored_jobs) + " monitored jobs");
    }

    if (!warmup) {
      if (traced) {
        totals.ops += static_cast<std::uint64_t>(njobs);
        totals.monitored_jobs += static_cast<std::uint64_t>(monitored_jobs);
        totals.reports += static_cast<double>(frontend.reports_received());
        totals.evaluations += static_cast<double>(stats.evaluations);
        totals.traced_latency_ms.insert(totals.traced_latency_ms.end(), monitored_ms.begin(),
                                        monitored_ms.end());
      } else {
        samples.latency_ms.insert(samples.latency_ms.end(), monitored_ms.begin(),
                                  monitored_ms.end());
        plain_ms.insert(plain_ms.end(), round_plain_ms.begin(), round_plain_ms.end());
        samples.add_round(setup_s, phase_wall,
                          (cpu_end.self_s - cpu_start.self_s) +
                              (cpu_end.children_s - cpu_start.children_s),
                          static_cast<std::uint64_t>(njobs));
      }
    }

    frontend.stop();
    pool.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return report.correct;
  });

  add_end_to_end(report, samples,
                 {"job_turnaround_p50_ms", "job_turnaround_tail_ms", "jobs_per_s",
                  "cpu_per_job_ms", "ms"});
  const double plain_p50 = percentile(plain_ms, 50).value;
  report.add(report.detail, "plain_turnaround_p50_ms", plain_p50, "ms");
  report.add(report.detail, "plain_turnaround_n", static_cast<double>(plain_ms.size()), "count");
  if (options.trace) {
    totals.untraced_latency_ms = samples.latency_ms;
    totals.monitor_gap_ms = percentile(samples.latency_ms, 50).value - plain_p50;
    add_layers(report, totals, options);
  }
  return report;
}

}  // namespace perfbench
