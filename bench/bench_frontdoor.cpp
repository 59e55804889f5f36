// bench_frontdoor - the PR 10 admission layer under sustained multi-tenant
// load: 100k jobs across 1k tenants pushed through the schedd's front door.
// Three gated numbers land in BENCH_frontdoor.json (scripts/ci.sh
// bench-frontdoor):
//
//   submit   - per-submit admission latency (token bucket + depth/quota
//              check + WRR enqueue) at the full tenant count; p99 is the
//              number an interactive submitter feels.
//   match    - one matchmaking cycle over a heterogeneous pool, indexed
//              candidate pruning vs the seed's full O(jobs x machines)
//              scan. The index must WIN (speedup > 1 in both wall time and
//              symmetric_match evaluations) or the gate fails - the refactor
//              only exists if it beats the scan it replaced.
//   shed     - a warn brownout over the fully loaded queue: shedding must
//              hit ONLY below-floor tenants (misdirected_shed == 0), and
//              WRR dispatch across the surviving equal-weight tenants must
//              stay fair (Jain index ~ 1).
//
// The console pass prices the primitives (admit, negotiate) so a
// regression can be localized without the JSON harness.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "classads/classad.hpp"
#include "condor/frontdoor.hpp"
#include "condor/matchmaker.hpp"
#include "condor/pool.hpp"
#include "condor/schedd.hpp"

namespace {

using namespace tdp;
using bench::LatencyRecorder;
using condor::FrontDoor;
using condor::JobDescription;
using condor::JobId;
using condor::Matchmaker;
using condor::Pool;
using condor::Schedd;

constexpr int kTenants = 1'000;
constexpr int kJobsPerTenant = 100;  // 100k jobs total
constexpr int kMachines = 500;
constexpr int kArches = 10;
constexpr int kMatchJobs = 2'000;

std::string tenant_name(int i) { return "t" + std::to_string(i); }

/// 1k tenant lines through the real parser (itself part of the workload):
/// even tenants are priority 0 (shed at the warn floor), odd survive.
condor::FrontDoorConfig bench_config() {
  std::vector<std::string> lines;
  lines.push_back("default: rate=1000000 burst=1000000 depth=200");
  lines.reserve(kTenants + 2);
  for (int i = 0; i < kTenants; ++i) {
    lines.push_back("tenant " + tenant_name(i) +
                    ": priority=" + (i % 2 == 0 ? "0" : "5"));
  }
  lines.push_back("brownout: warn-floor=1 critical-floor=5 exit-after=2");
  auto parsed = condor::parse_frontdoor_config(lines);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bench_frontdoor: config rejected: %s\n",
                 parsed.status().to_string().c_str());
    std::abort();
  }
  return std::move(parsed.value());
}

JobDescription tenant_job(int tenant, const std::string& requirements = "") {
  JobDescription job;
  job.executable = "simulated_app";
  job.custom_attributes["tenant"] = tenant_name(tenant);
  if (!requirements.empty()) job.requirements = requirements;
  return job;
}

classads::ClassAd machine_ad(int i) {
  const std::string name = "node" + std::to_string(i);
  classads::ClassAd ad = Pool::default_machine_ad(name, 512 * (i % 8 + 1));
  ad.insert_string(classads::ads::kArch,
                   "ARCH" + std::to_string(i % kArches));
  return ad;
}

std::vector<std::pair<JobId, classads::ClassAd>> match_jobs() {
  std::vector<std::pair<JobId, classads::ClassAd>> jobs;
  jobs.reserve(kMatchJobs);
  for (int i = 0; i < kMatchJobs; ++i) {
    // Each job wants one of the ten architectures plus a memory floor: the
    // index prunes ~90% of the pool before a single symmetric_match runs.
    JobDescription job = tenant_job(i % kTenants);
    job.requirements = "TARGET.Arch == \"ARCH" + std::to_string(i % kArches) +
                       "\" && TARGET.Memory >= 1024";
    jobs.emplace_back(i + 1, job.to_classad());
  }
  return jobs;
}

/// The seed's O(jobs x machines) negotiation cycle, the baseline the
/// indexed Matchmaker must beat: one symmetric_match per free machine per
/// job, in machine-name order, with the Matchmaker's tie-break (job rank,
/// then machine rank). Counts its evaluations like Matchmaker::Stats does.
struct FullScan {
  std::map<std::string, classads::ClassAd> machines;
  std::uint64_t evaluations = 0;

  std::vector<Matchmaker::Match> negotiate(
      const std::vector<std::pair<JobId, classads::ClassAd>>& jobs) {
    std::set<std::string> taken;
    std::vector<Matchmaker::Match> matches;
    for (const auto& [job_id, job_ad] : jobs) {
      if (taken.size() == machines.size()) break;
      const std::string* best = nullptr;
      double best_job_rank = 0.0, best_machine_rank = 0.0;
      for (const auto& [name, machine_ad] : machines) {
        if (taken.count(name) != 0) continue;
        ++evaluations;
        if (!classads::symmetric_match(job_ad, machine_ad)) continue;
        const double job_rank = classads::rank_of(job_ad, machine_ad);
        const double machine_rank = classads::rank_of(machine_ad, job_ad);
        if (best == nullptr || job_rank > best_job_rank ||
            (job_rank == best_job_rank && machine_rank > best_machine_rank)) {
          best = &name;
          best_job_rank = job_rank;
          best_machine_rank = machine_rank;
        }
      }
      if (best == nullptr) continue;
      matches.push_back({job_id, *best, best_job_rank, best_machine_rank});
      taken.insert(*best);
    }
    return matches;
  }
};

FullScan full_scan_pool() {
  FullScan scan;
  for (int i = 0; i < kMachines; ++i) {
    scan.machines.emplace("node" + std::to_string(i), machine_ad(i));
  }
  return scan;
}

// --- console pass: primitives -----------------------------------------------

void BM_FrontDoor_Admit(benchmark::State& state) {
  FrontDoor door(bench_config());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(door.admit(tenant_name(i++ % kTenants), 0, 0));
  }
}
BENCHMARK(BM_FrontDoor_Admit);

void BM_Matchmaker_CycleIndexed(benchmark::State& state) {
  Matchmaker matchmaker;
  for (int i = 0; i < kMachines; ++i) {
    matchmaker.advertise_machine("node" + std::to_string(i), machine_ad(i));
  }
  const auto jobs = match_jobs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(matchmaker.negotiate(jobs, {}).size());
  }
}
BENCHMARK(BM_Matchmaker_CycleIndexed)->Unit(benchmark::kMillisecond);

void BM_Matchmaker_CycleFullScan(benchmark::State& state) {
  FullScan full_scan = full_scan_pool();
  const auto jobs = match_jobs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_scan.negotiate(jobs).size());
  }
}
BENCHMARK(BM_Matchmaker_CycleFullScan)->Unit(benchmark::kMillisecond);

// --- machine-readable pass: BENCH_frontdoor.json -----------------------------

/// Jain fairness index over per-tenant dispatch counts: 1.0 = perfectly
/// even, 1/n = one tenant hogged everything.
double jain_index(const std::map<std::string, std::uint64_t>& counts) {
  double sum = 0, sum_sq = 0;
  for (const auto& [tenant, count] : counts) {
    const double c = static_cast<double>(count);
    sum += c;
    sum_sq += c * c;
  }
  if (sum_sq == 0) return 0;
  const double n = static_cast<double>(counts.size());
  return (sum * sum) / (n * sum_sq);
}

void emit_frontdoor_json() {
  bench::silence_logs();

  // -- submit: 100k admissions across 1k tenants --
  FrontDoor door(bench_config());
  Schedd schedd;
  schedd.set_front_door(&door);
  LatencyRecorder submit;
  int refused = 0;
  submit.measure(kTenants * kJobsPerTenant, [&](int i) {
    auto result = schedd.try_submit(tenant_job(i % kTenants));
    if (!result.is_ok()) ++refused;
  });
  if (refused != 0 || schedd.queue_size() != kTenants * kJobsPerTenant) {
    std::fprintf(stderr, "bench_frontdoor: %d submits refused (queue %zu)\n",
                 refused, schedd.queue_size());
    std::abort();
  }

  // -- shed: warn brownout over the loaded queue --
  schedd.on_health(health::Severity::kWarn);
  const std::size_t shed = schedd.shed_jobs();
  const std::size_t expected_shed =
      static_cast<std::size_t>(kTenants / 2) * kJobsPerTenant;
  // Shedding must only ever hit priority-below-floor (even) tenants.
  std::size_t misdirected = 0;
  for (JobId id = 1; id <= static_cast<JobId>(kTenants * kJobsPerTenant);
       ++id) {
    const auto record = schedd.job(id);
    if (record.is_ok() && record->shed && record->tenant.size() > 1 &&
        (record->tenant.back() - '0') % 2 != 0) {
      ++misdirected;
    }
  }
  // Survivor fairness: WRR rounds over the odd (equal-weight) tenants.
  std::map<std::string, std::uint64_t> dispatched;
  LatencyRecorder dispatch;
  dispatch.measure(10, [&](int) {
    for (const auto& [id, ad] : schedd.dispatch_ads(10'000)) {
      dispatched[schedd.job(id)->tenant]++;
    }
  });
  const double fairness = jain_index(dispatched);

  // -- match: one cycle, indexed vs the seed's full scan --
  Matchmaker indexed;
  for (int i = 0; i < kMachines; ++i) {
    indexed.advertise_machine("node" + std::to_string(i), machine_ad(i));
  }
  FullScan full_scan = full_scan_pool();
  const auto jobs = match_jobs();
  constexpr int kCycles = 20;
  LatencyRecorder indexed_cycles;
  indexed_cycles.measure(kCycles, [&](int) {
    benchmark::DoNotOptimize(indexed.negotiate(jobs, {}).size());
  });
  LatencyRecorder full_cycles;
  full_cycles.measure(kCycles, [&](int) {
    benchmark::DoNotOptimize(full_scan.negotiate(jobs).size());
  });
  const double indexed_ms = indexed_cycles.total_us() / kCycles / 1000.0;
  const double full_ms = full_cycles.total_us() / kCycles / 1000.0;
  const double evals_indexed =
      static_cast<double>(indexed.stats().evaluations) / kCycles;
  const double evals_full =
      static_cast<double>(full_scan.evaluations) / kCycles;
  const double speedup_time = indexed_ms > 0 ? full_ms / indexed_ms : 0;
  const double speedup_evals =
      evals_indexed > 0 ? evals_full / evals_indexed : 0;

  std::ofstream out("BENCH_frontdoor.json", std::ios::trunc);
  char row[512];
  out << "{\n  \"benchmark\": \"frontdoor\",\n";
  std::snprintf(row, sizeof(row),
                "  \"submit\": {\"jobs\": %d, \"tenants\": %d, "
                "\"ops_per_sec\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f},\n",
                kTenants * kJobsPerTenant, kTenants, submit.ops_per_sec(),
                submit.percentile_us(0.5), submit.percentile_us(0.99));
  out << row;
  std::snprintf(row, sizeof(row),
                "  \"match\": {\"machines\": %d, \"jobs_per_cycle\": %d, "
                "\"indexed_cycle_ms\": %.3f, \"full_cycle_ms\": %.3f, "
                "\"evals_indexed\": %.0f, \"evals_full\": %.0f, "
                "\"speedup_time\": %.2f, \"speedup_evals\": %.2f},\n",
                kMachines, kMatchJobs, indexed_ms, full_ms, evals_indexed,
                evals_full, speedup_time, speedup_evals);
  out << row;
  std::snprintf(row, sizeof(row),
                "  \"shed\": {\"shed_jobs\": %zu, \"expected_shed\": %zu, "
                "\"misdirected_shed\": %zu, \"survivor_jain\": %.4f}\n}\n",
                shed, expected_shed, misdirected, fairness);
  out << row;

  std::printf("frontdoor: submit p99 %.1fus over %d jobs/%d tenants; "
              "match cycle indexed %.2fms vs full %.2fms (%.1fx time, "
              "%.1fx evals); shed %zu/%zu, misdirected %zu, jain %.3f "
              "(BENCH_frontdoor.json)\n",
              submit.percentile_us(0.99), kTenants * kJobsPerTenant, kTenants,
              indexed_ms, full_ms, speedup_time, speedup_evals, shed,
              expected_shed, misdirected, fairness);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_frontdoor_json();
  return 0;
}
