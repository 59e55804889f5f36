// test_chaos_scale.cpp - the PR 5 daemon-death kill matrix re-run at 1000
// virtual hosts with the hierarchical CASS routing liveness (PR 7), plus
// the new scenario this PR adds: killing an *interior* MRNet comm node.
//
// The point of the port: recovery semantics must be IDENTICAL under tree
// aggregation. A startd kill is still requeued exactly once, the schedd
// still recovers from its journal, the control run still loses the job —
// at 1000 machines the only thing that changed is that the root attrspace
// absorbs O(fanout) liveness writes instead of 1000 per beat interval.
//
// The interior-kill scenario asserts the tree's own fault model: the dead
// comm node's subtree re-parents to the nearest live ancestor (observed as
// reparent_events), and NO false lease expiry fires for still-alive leaves
// — LeaseMonitor::observe starts tracking from the first beat, so machines
// arriving at their new parent are never presumed dead (DESIGN.md §14).
//
// Reading a failure here: orphan_requeues() > 0 with host_expiries() > 0
// means a live machine's lease expired (aggregation bug, usually a summary
// published before the children re-beat); reparent_events == 0 means the
// dead node's own summary lease never expired at its parent (pump ordering
// bug); a Watchdog abort means re-parenting livelocked.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos_util.hpp"
#include "condor/pool.hpp"
#include "proc/sim_backend.hpp"
#include "util/journal.hpp"
#include "util/lease.hpp"

namespace tdp {
namespace {

using chaos::Watchdog;
using chaos::Wire;
using condor::JobDescription;
using condor::JobId;
using condor::JobStatus;
using condor::Master;
using condor::Pool;
using condor::PoolConfig;

constexpr int kMachines = 1'000;
constexpr int kFanout = 8;

/// Wider than PR 5's fast_lease: a pump turn over 1000 machines takes real
/// milliseconds, and the lease must absorb that without false expiries.
lease::Config scale_lease() {
  lease::Config config;
  config.ttl_micros = 500'000;
  config.grace_micros = 250'000;
  config.beat_interval_micros = 50'000;
  return config;
}

struct ScaleCluster {
  std::shared_ptr<net::Transport> transport;
  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  std::map<std::string, std::unique_ptr<journal::Journal>> claim_journals;
  std::unique_ptr<journal::Journal> schedd_journal;
  std::unique_ptr<Pool> pool;
};

struct ScaleOptions {
  bool recovery = true;  ///< journals + leases; false = the control
  /// kMachines = the one-level tree: every startd beats at the root.
  int fanout = kFanout;
  int startd_restart_budget = 5;
};

ScaleCluster make_scale_cluster(const ScaleOptions& options) {
  ScaleCluster cluster;
  cluster.transport = chaos::make_base(Wire::kInProc);

  PoolConfig config;
  config.transport = cluster.transport;
  config.use_real_files = false;
  config.backend_factory = [&cluster](const std::string& machine) {
    auto backend = std::make_shared<proc::SimProcessBackend>();
    cluster.backends[machine] = backend;
    return backend;
  };
  if (options.recovery) {
    config.enable_liveness = true;
    config.startd_lease = scale_lease();
    config.cass_fanout = options.fanout;
    cluster.schedd_journal = journal::Journal::in_memory();
    config.schedd_journal = cluster.schedd_journal.get();
    config.startd_journal_factory =
        [&cluster](const std::string& machine) -> journal::Journal* {
      auto& slot = cluster.claim_journals[machine];
      if (!slot) slot = journal::Journal::in_memory();
      return slot.get();
    };
    config.restart_policy.restart_budget = options.startd_restart_budget;
    config.restart_policy.base_backoff_ms = 5;
    config.restart_policy.max_backoff_ms = 50;
  }
  cluster.pool = std::make_unique<Pool>(std::move(config));
  for (int i = 0; i < kMachines; ++i) {
    const std::string name = "vh" + std::to_string(i);
    cluster.pool->add_machine(name, Pool::default_machine_ad(name));
  }
  return cluster;
}

JobDescription sim_job(std::int64_t work_units) {
  JobDescription job;
  job.executable = "simulated_app";
  job.sim_work_units = work_units;
  return job;
}

template <typename Predicate>
bool drive(ScaleCluster& cluster, Predicate done, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    cluster.pool->negotiate();
    cluster.pool->pump();
    for (auto& [name, backend] : cluster.backends) backend->step(1);
    if (done()) return true;
  }
  return false;
}

bool job_terminal(ScaleCluster& cluster, JobId id) {
  auto record = cluster.pool->schedd().job(id);
  return record.is_ok() && condor::job_status_terminal(record->status);
}

/// Waits for kRunning then a seed-derived number of extra pump turns, so
/// each seed kills at a different claim/activate/monitor interleaving.
bool run_until_kill_point(ScaleCluster& cluster, JobId id, std::uint64_t seed) {
  const bool running = drive(
      cluster,
      [&] {
        auto record = cluster.pool->schedd().job(id);
        return record.is_ok() && record->status == JobStatus::kRunning;
      },
      60'000);
  if (!running) return false;
  int extra = static_cast<int>(5 + seed % 37);
  return drive(cluster,
               [&] { return --extra <= 0 || job_terminal(cluster, id); }, 60'000);
}

class ChaosScaleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosScaleTest, KillStartdJournalReplayRequeuesExactlyOnceAt1k) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleKillStartdJournal/seed=" + std::to_string(seed), 200'000);

  ScaleCluster cluster = make_scale_cluster({});
  const JobId id = cluster.pool->submit(sim_job(300));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  ASSERT_TRUE(drive(cluster, [&] { return job_terminal(cluster, id); }, 120'000))
      << "job never finished after its startd was killed";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  // Exactly-once requeue: identical to the flat-liveness PR 5 outcome.
  EXPECT_EQ(record->restarts, 1);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 1u);
  EXPECT_GE(cluster.pool->master().restart_count("startd@" + victim), 1u);
  // Proof the beats flowed through the tree: the root absorbed far fewer
  // liveness writes than the 1000 hosts sent.
  ASSERT_NE(cluster.pool->cass(), nullptr);
  EXPECT_LT(cluster.pool->root_liveness_writes(),
            cluster.pool->cass()->summary_publishes() + 1'000u);
}

TEST_P(ChaosScaleTest, KillStartdLeaseExpiryRequeuesWhenBudgetSpentAt1k) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleKillStartdLease/seed=" + std::to_string(seed), 200'000);

  ScaleOptions options;
  options.startd_restart_budget = 0;  // the master may never revive it
  ScaleCluster cluster = make_scale_cluster(options);
  const JobId id = cluster.pool->submit(sim_job(300));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  ASSERT_TRUE(drive(cluster, [&] { return job_terminal(cluster, id); }, 120'000))
      << "lease expiry through the aggregation tree never rescued the job";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  EXPECT_EQ(record->restarts, 1);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 1u);
  EXPECT_NE(record->matched_machine, victim);
  EXPECT_EQ(cluster.pool->master().health("startd@" + victim),
            Master::DaemonHealth::kHalted);
}

TEST_P(ChaosScaleTest, KillScheddQueueRecoversFromJournalAt1k) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleKillSchedd/seed=" + std::to_string(seed), 200'000);

  ScaleCluster cluster = make_scale_cluster({});
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(cluster.pool->submit(sim_job(120 + 40 * i)));
  }
  ASSERT_TRUE(run_until_kill_point(cluster, ids.front(), seed));

  cluster.pool->kill_schedd();
  EXPECT_EQ(cluster.pool->schedd().queue_size(), 0u);

  ASSERT_TRUE(drive(
      cluster,
      [&] {
        for (JobId id : ids) {
          if (!job_terminal(cluster, id)) return false;
        }
        return true;
      },
      120'000))
      << "queue never drained after the schedd was killed";

  for (JobId id : ids) {
    auto record = cluster.pool->schedd().job(id);
    ASSERT_TRUE(record.is_ok()) << "job " << id << " lost by recovery";
    EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  }
  EXPECT_GE(cluster.pool->master().restart_count("schedd"), 1u);
}

TEST_P(ChaosScaleTest, FlatAndTreeRecoverIdenticallyAt1k) {
  // The flat topology is the one-level tree (fanout >= machines): the SAME
  // startd kill with every startd beating straight at the root must
  // produce the SAME exactly-once requeue outcome as the deep tree — only
  // the root write volume may differ.
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleFlatControl/seed=" + std::to_string(seed), 200'000);

  ScaleOptions options;
  options.fanout = kMachines;
  ScaleCluster cluster = make_scale_cluster(options);
  const JobId id = cluster.pool->submit(sim_job(300));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());
  ASSERT_TRUE(drive(cluster, [&] { return job_terminal(cluster, id); }, 120'000));

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;
  EXPECT_EQ(record->restarts, 1);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 1u);
  // Flat: one level, so the root absorbed every beat of every host.
  ASSERT_NE(cluster.pool->cass(), nullptr);
  EXPECT_EQ(cluster.pool->cass()->overlay().depth(), 1);
  EXPECT_GE(cluster.pool->root_liveness_writes(),
            static_cast<std::uint64_t>(kMachines));
}

TEST_P(ChaosScaleTest, ControlWithoutRecoveryLosesTheJobAt1k) {
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleControlNoRecovery/seed=" + std::to_string(seed), 200'000);

  ScaleOptions options;
  options.recovery = false;
  ScaleCluster cluster = make_scale_cluster(options);
  const JobId id = cluster.pool->submit(sim_job(300));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim = running->matched_machine;
  ASSERT_TRUE(cluster.pool->kill_startd(victim).is_ok());

  // Without journals and leases nothing ever learns the processes are gone.
  EXPECT_FALSE(drive(cluster, [&] { return job_terminal(cluster, id); }, 1'500));

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_FALSE(condor::job_status_terminal(record->status));
  EXPECT_EQ(record->restarts, 0);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 0u);
}

TEST_P(ChaosScaleTest, KillInteriorCassNodeSubtreeReparentsNoFalseExpiry) {
  // The new scenario: murder a comm node of the aggregation tree itself.
  // Its subtree's beats are lost until the node's own summary lease expires
  // at its parent; then the children re-parent and fresh tracking starts
  // from their first beat — so no still-alive leaf is ever presumed dead.
  const std::uint64_t seed = GetParam();
  Watchdog dog("ScaleKillInterior/seed=" + std::to_string(seed), 200'000);

  ScaleCluster cluster = make_scale_cluster({});
  const JobId id = cluster.pool->submit(sim_job(600));
  ASSERT_TRUE(run_until_kill_point(cluster, id, seed));

  auto running = cluster.pool->schedd().job(id);
  ASSERT_TRUE(running.is_ok());
  const std::string victim_machine = running->matched_machine;
  ASSERT_NE(cluster.pool->cass(), nullptr);

  // Kill the interior node holding the BUSY machine's lease: the riskiest
  // subtree to orphan. (At 1000 hosts, fanout 8, a leaf's parent is always
  // interior, never the root.)
  const int victim_node = cluster.pool->cass()->interior_of(victim_machine);
  ASSERT_TRUE(cluster.pool->cass()->overlay().is_interior(victim_node));
  const std::uint64_t reparents_before = cluster.pool->cass()->reparent_events();
  ASSERT_TRUE(cluster.pool->kill_cass_node(victim_node).is_ok());
  // A second kill of the same node is a clean error, not UB.
  EXPECT_FALSE(cluster.pool->kill_cass_node(victim_node).is_ok());

  // Drive until the subtree re-parented AND the job completed.
  ASSERT_TRUE(drive(
      cluster,
      [&] {
        return cluster.pool->cass()->reparent_events() > reparents_before &&
               job_terminal(cluster, id);
      },
      120'000))
      << "subtree never re-parented (reparent_events="
      << cluster.pool->cass()->reparent_events() << ")";

  auto record = cluster.pool->schedd().job(id);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted) << record->failure_reason;

  // NO false expiries: every machine is still alive, so no lease may have
  // expired, no orphan requeued, no restart counted against the job.
  EXPECT_EQ(cluster.pool->cass()->host_expiries(), 0u);
  EXPECT_EQ(cluster.pool->orphan_requeues(), 0u);
  EXPECT_EQ(record->restarts, 0);

  // The orphaned machine's lease lives again at its new parent.
  drive(cluster, [&] {
    return cluster.pool->cass()->host_health(victim_machine) ==
           lease::Health::kAlive;
  }, 10'000);
  EXPECT_EQ(cluster.pool->cass()->host_health(victim_machine),
            lease::Health::kAlive);
  const int new_parent = cluster.pool->cass()->interior_of(victim_machine);
  EXPECT_NE(new_parent, victim_node);
  // Beats WERE dropped while the node was dead (real network semantics) —
  // and that loss was survivable.
  EXPECT_GT(cluster.pool->cass()->dropped_beats(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosScaleTest,
                         ::testing::ValuesIn(chaos::seeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tdp
