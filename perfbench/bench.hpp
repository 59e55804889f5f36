// bench.hpp - shared pieces of the end-to-end benchmark: run options, the
// report every workload fills, clocks, and the sample statistics.
//
// Every workload runs in rounds. A round builds a fresh deployment (the
// set-up that setup_s times), drives a fixed number of jobs or control ops
// through it, checks the outputs and tears it down. Rounds repeat until the
// run's time budget is spent, so a faster program runs more rounds rather
// than longer ones: per-job cost grows with queue history (the schedd scans
// every job ever submitted), and a fixed round length keeps that history
// identical on every commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic wall clock.
Nanos now_ns();
/// CPU time of the calling thread.
Nanos thread_cpu_ns();

/// User+sys CPU of this process, and of its reaped children, in seconds.
struct CpuTimes {
  double self_s = 0;
  double children_s = 0;
};
CpuTimes process_cpu();
/// RSS high-water mark of this process image (VmHWM, which unlike
/// ru_maxrss does not carry over the parent's RSS across exec), in MB.
double peak_rss_mb();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory (submit/scratch dirs live here).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
  /// Absolute path of the built paradynd executable.
  std::string paradynd_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  std::uint64_t attempted = 0;  ///< jobs submitted or control calls made
  std::uint64_t failed = 0;     ///< of those, not Completed/exit 0 or not ok
  bool correct = true;          ///< false once any check failed
  std::vector<std::string> errors;
  /// The end-to-end set every workload reports (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  /// The same figures under their workload-specific names, for the reader.
  std::vector<Metric> detail;
  /// Per-layer figures (traced run; BENCHMARK.json per_layer).
  std::vector<Metric> layers;

  /// Records a failed check; returns `ok`.
  bool check(bool ok, const std::string& what);
  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit) {
    to.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One timing percentile: the value, which percentile it is, the sample
/// count and how many samples lie beyond it.
struct Percentile {
  double pct = 0;
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `samples`.
Percentile percentile(std::vector<double> samples, double pct);
/// The tail: `preferred` when at least ten samples lie beyond it, else the
/// highest lower rung of {99, 95, 90, 75, 50} that has ten.
Percentile tail(const std::vector<double>& samples, double preferred);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Long-lived children the benchmark itself asked for; a fatal signal
/// kills them before the process dies (normal exits reap them through the
/// process backend). Async-signal-safe.
void register_child(long pid);
void unregister_child(long pid);
void install_signal_cleanup();

/// Empties the program's process-wide span buffer (util/telemetry), which
/// keeps up to 64k finished spans. Every round starts from it empty: as it
/// fills, the process grows and each fork of a job or tool daemon costs
/// more, so without this a round's figures would depend on how many rounds
/// ran before it.
void reset_process_history();

/// Runs rounds until `seconds` have passed, and at least rounds 0 to
/// kFixedRounds, each from the same process history. The callback gets the
/// round index and returns false to stop; round 0 is a warm-up whose
/// figures the workload discards. Returns the RSS high-water mark after
/// round kFixedRounds, a fixed amount of work.
inline constexpr int kFixedRounds = 4;
template <class RoundFn>
double run_rounds(double seconds, RoundFn&& round) {
  const Nanos start = now_ns();
  const Nanos budget = static_cast<Nanos>(seconds * 1e9);
  double rss_mb = 0;
  for (int i = 0;; ++i) {
    if (i > kFixedRounds && now_ns() - start >= budget) break;
    reset_process_history();
    if (!round(i)) break;
    if (i == kFixedRounds) rss_mb = peak_rss_mb();
  }
  return rss_mb > 0 ? rss_mb : peak_rss_mb();
}

/// What the untraced rounds of a run measured. Rates are kept per round
/// and reported as their median, so a burst of load from outside the
/// benchmark moves one round, not the run's figure.
struct Samples {
  std::vector<double> latency_ms;  ///< the workload's unit op, one per op
  std::vector<double> setup_s;     ///< one per round
  std::vector<double> ops_per_s;   ///< per round, op phase only
  std::vector<double> cpu_per_op_ms;  ///< per round: process + reaped children
  double rss_mb = 0;               ///< see run_rounds()

  void add_round(double setup, double wall_s, double cpu_s, std::uint64_t ops) {
    setup_s.push_back(setup);
    if (ops == 0 || wall_s <= 0) return;
    ops_per_s.push_back(static_cast<double>(ops) / wall_s);
    cpu_per_op_ms.push_back(cpu_s * 1e3 / static_cast<double>(ops));
  }
};

/// The tail percentile every workload reports: one that stays steady from
/// run to run on a shared machine, not the highest with ten samples beyond
/// it. The control round trip is bimodal (one or two RM ticks) and its p95
/// and p99 flip between the modes with the machine's other load.
inline constexpr double kTailPct = 90;

/// A workload's own names for the common latency, rate and CPU figures,
/// and the time unit they read best in ("ms" or "us").
struct FigureNames {
  const char* p50;
  const char* tail;
  const char* rate;
  const char* cpu;
  const char* time_unit;
};

/// Fills report.end_to_end (the common set) from `samples`, and repeats
/// its figures in report.detail under `names`.
void add_end_to_end(Report& report, const Samples& samples, const FigureNames& names);

/// What the traced rounds counted from outside the spans.
struct TracedTotals {
  std::uint64_t ops = 0;             ///< jobs or control ops
  std::uint64_t monitored_jobs = 0;
  double reports = 0;                ///< Frontend::reports_received delta
  double evaluations = 0;            ///< Matchmaker evaluations delta
  double turns = 0;                  ///< loop turns (sim workload)
  std::vector<double> negotiate_growth;  ///< per round
  // The control workload's RM loop.
  double service_busy_ns = 0;        ///< service_events calls that handled >= 1
  double service_busy_calls = 0;
  double wakeups = 0;
  double timed_out_with_work = 0;
  double rm_cpu_ns = 0;
  // Primary latency (ms) of traced and of untraced rounds.
  std::vector<double> traced_latency_ms;
  std::vector<double> untraced_latency_ms;
  /// Monitored minus plain job p50 (lifecycle only), ms.
  double monitor_gap_ms = 0;
};

/// Fills report.layers with every per-layer metric (0 where the layer is
/// not on this workload's path), checks the codec round trip and the
/// process-state walks, and writes the spans to options.spans_path.
void add_layers(Report& report, const TracedTotals& totals, const RunOptions& options);

/// Human-readable result lines, then the traced metrics for the reader.
void print_detail(const std::string& workload, const Report& report);

// The three workloads (one translation unit each).
Report run_lifecycle_posix(const RunOptions& options);
Report run_jobs_sim(const RunOptions& options);
Report run_control_tcp(const RunOptions& options);

}  // namespace perfbench
