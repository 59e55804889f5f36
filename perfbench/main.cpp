// tdp_perfbench - end-to-end benchmark of the TDP reproduction.
//
//   tdp_perfbench --workload <lifecycle_posix|jobs_sim|control_tcp>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 --paradynd <path> --work-dir <dir> [--spans <file>]
//
// Prints one line per figure ("<workload> <name> <value> <unit>"), then, as
// its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, measured
// on the bare program; with --trace 1 they are the per-layer set, from a
// run whose odd and even rounds alternate between bare and decorated (the
// difference is trace.overhead_pct). Exits 1 when a correctness check
// failed. perfbench/run.py builds this program and runs it.
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kChildSlots = 64;
std::atomic<long> g_children[kChildSlots];

extern "C" void on_fatal_signal(int sig) {
  for (auto& slot : g_children) {
    const long pid = slot.load();
    if (pid > 0) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      ::kill(static_cast<pid_t>(pid), SIGCONT);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void register_child(long pid) {
  for (auto& slot : g_children) {
    long expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void unregister_child(long pid) {
  for (auto& slot : g_children) {
    long expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void install_signal_cleanup() {
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT}) ::signal(sig, on_fatal_signal);
}

}  // namespace perfbench

namespace {

void print_json(const perfbench::Report& report, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const auto& metrics = trace ? report.layers : report.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: tdp_perfbench --workload <lifecycle_posix|jobs_sim|control_tcp> "
               "--seed <n> --seconds <s> --trace <0|1> --paradynd <path> --work-dir <dir> "
               "[--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string work_root;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--paradynd") {
      options.paradynd_path = std::filesystem::absolute(value).string();
    } else if (key == "--work-dir") {
      work_root = value;
    } else if (key == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || work_root.empty() || options.seconds <= 0) return usage();
  if (options.workload == "lifecycle_posix" &&
      !std::filesystem::exists(options.paradynd_path)) {
    std::fprintf(stderr, "paradynd not found at '%s'\n", options.paradynd_path.c_str());
    return 2;
  }

  tdp::log::set_level(tdp::log::Level::kError);
  perfbench::install_signal_cleanup();

  // A fresh directory per run for submit and scratch directories, removed
  // at exit (the starter leaves a sandbox directory per real job).
  std::filesystem::create_directories(work_root);
  std::string pattern = std::filesystem::absolute(work_root).string() + "/run-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a run directory under %s\n", work_root.c_str());
    return 2;
  }
  options.work_dir = pattern;

  int code = 0;
  try {
    perfbench::Report report;
    if (options.workload == "lifecycle_posix") {
      report = perfbench::run_lifecycle_posix(options);
    } else if (options.workload == "jobs_sim") {
      report = perfbench::run_jobs_sim(options);
    } else if (options.workload == "control_tcp") {
      report = perfbench::run_control_tcp(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      code = 2;
    }
    if (code == 0) {
      perfbench::print_detail(options.workload, report);
      print_json(report, options.trace);
      code = report.correct ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    code = 1;
  }
  std::fflush(stdout);
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  return code;
}
