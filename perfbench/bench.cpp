#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "util/telemetry.hpp"

namespace perfbench {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Nanos thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {
double seconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}
}  // namespace

CpuTimes process_cpu() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {seconds(self), seconds(children)};
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

void reset_process_history() { tdp::telemetry::Tracer::instance().clear(); }

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
  return ok;
}

Percentile percentile(std::vector<double> samples, double pct) {
  Percentile result;
  result.pct = pct;
  result.n = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  return result;
}

Percentile tail(const std::vector<double>& samples, double preferred) {
  Percentile best = percentile(samples, preferred);
  for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (best.beyond >= 10) break;
    if (pct < preferred) best = percentile(samples, pct);
  }
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void print_detail(const std::string& workload, const Report& report) {
  for (const std::string& error : report.errors) {
    std::printf("%s CHECK FAILED: %s\n", workload.c_str(), error.c_str());
  }
  const double failed_ratio = report.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted);
  std::printf("%s %-32s %.6g ratio (%llu of %llu)\n", workload.c_str(), "failed_op_ratio",
              failed_ratio, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto* list : {&report.end_to_end, &report.detail, &report.layers}) {
    for (const Metric& m : *list) {
      std::printf("%s %-32s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

}  // namespace perfbench
