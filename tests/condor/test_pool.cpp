// End-to-end pool tests: the Figure 4 pipeline (submit -> match -> claim ->
// activate -> run -> complete) over both backends, without tool daemons.
#include "condor/pool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "attrspace/attr_store.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "proc/posix_backend.hpp"
#include "proc/sim_backend.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/health.hpp"
#include "util/lease.hpp"

namespace tdp::condor {
namespace {

/// Virtual-cluster pool: inproc transport + one SimProcessBackend per
/// machine, stepped from the test.
struct SimPool {
  std::shared_ptr<net::InProcTransport> transport = net::InProcTransport::create();
  std::map<std::string, std::shared_ptr<proc::SimProcessBackend>> backends;
  std::unique_ptr<Pool> pool;

  /// `configure` (if set) adjusts the config before the pool is built.
  explicit SimPool(int machines, std::string capsule_dir = "",
                   const std::function<void(PoolConfig&)>& configure = {}) {
    PoolConfig config;
    config.capsule_dir = std::move(capsule_dir);
    config.transport = transport;
    config.use_real_files = false;
    config.tool_wait_timeout_ms = 0;  // virtual time: no wall-clock faults
    config.backend_factory = [this](const std::string& machine) {
      auto backend = std::make_shared<proc::SimProcessBackend>();
      backends[machine] = backend;
      return backend;
    };
    if (configure) configure(config);
    pool = std::make_unique<Pool>(std::move(config));
    for (int i = 0; i < machines; ++i) {
      std::string name = "node" + std::to_string(i);
      pool->add_machine(name, Pool::default_machine_ad(name, 1024 * (i + 1)));
    }
  }

  void step_all(std::int64_t units = 1) {
    for (auto& [name, backend] : backends) backend->step(units);
  }
};

JobDescription sim_job(std::int64_t work = 3, int exit_code = 0) {
  JobDescription job;
  job.executable = "sim_app";
  job.sim_work_units = work;
  job.sim_exit_code = exit_code;
  return job;
}

TEST(PoolSim, SingleJobRunsToCompletion) {
  SimPool cluster(2);
  JobId id = cluster.pool->submit(sim_job(3));
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kRunning);
  EXPECT_EQ(cluster.pool->busy_count(), 1u);

  // Drive virtual time until done.
  for (int i = 0; i < 10 && !job_status_terminal(cluster.pool->schedd().job(id)->status); ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  auto record = cluster.pool->schedd().job(id);
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 0);
  EXPECT_EQ(cluster.pool->busy_count(), 0u);
}

TEST(PoolSim, NonZeroExitCodePropagates) {
  SimPool cluster(1);
  JobId id = cluster.pool->submit(sim_job(1, 42));
  cluster.pool->negotiate();
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kCompleted);
  EXPECT_EQ(cluster.pool->schedd().job(id)->exit_code, 42);
}

TEST(PoolSim, MoreJobsThanMachinesQueue) {
  SimPool cluster(2);
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(cluster.pool->submit(sim_job(2)));

  EXPECT_EQ(cluster.pool->negotiate(), 2);  // only 2 machines
  EXPECT_EQ(cluster.pool->schedd().count_with_status(JobStatus::kIdle), 3u);

  // Run everything down: repeatedly step, pump, renegotiate.
  for (int round = 0; round < 50; ++round) {
    cluster.step_all();
    cluster.pool->pump();
    cluster.pool->negotiate();
    if (cluster.pool->schedd().count_with_status(JobStatus::kCompleted) == 5u) break;
  }
  EXPECT_EQ(cluster.pool->schedd().count_with_status(JobStatus::kCompleted), 5u);
}

TEST(PoolSim, RequirementsRouteJobsToCapableMachines) {
  SimPool cluster(3);  // node0: 1024MB, node1: 2048MB, node2: 3072MB
  JobDescription picky = sim_job(1);
  picky.requirements = "TARGET.memory >= 3000";
  JobId id = cluster.pool->submit(picky);
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  EXPECT_EQ(cluster.pool->schedd().job(id)->matched_machine, "node2");
}

TEST(PoolSim, UnmatchableJobStaysIdle) {
  SimPool cluster(1);
  JobDescription impossible = sim_job(1);
  impossible.requirements = "TARGET.memory >= 999999";
  JobId id = cluster.pool->submit(impossible);
  EXPECT_EQ(cluster.pool->negotiate(), 0);
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kIdle);
}

TEST(PoolSim, MpiUniverseStagedStartup) {
  SimPool cluster(1);
  JobDescription mpi = sim_job(3);
  mpi.universe = Universe::kMpi;
  mpi.machine_count = 4;
  JobId id = cluster.pool->submit(mpi);
  ASSERT_EQ(cluster.pool->negotiate(), 1);

  Starter* starter = cluster.pool->startd("node0")->starter();
  ASSERT_NE(starter, nullptr);
  // No tool: rank 0 starts running immediately; remaining ranks appear on
  // the first pump.
  EXPECT_EQ(starter->ranks_created(), 1);
  cluster.pool->pump();
  EXPECT_EQ(starter->ranks_created(), 4);

  for (int i = 0; i < 20; ++i) {
    cluster.step_all();
    cluster.pool->pump();
    if (job_status_terminal(cluster.pool->schedd().job(id)->status)) break;
  }
  EXPECT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kCompleted);
}

TEST(PoolSim, AuxServiceDeathFailsJob) {
  SimPool cluster(1);
  JobDescription job = sim_job(1000);  // long job
  job.aux_services = {"mrnet_commnode -f4"};
  JobId id = cluster.pool->submit(job);
  ASSERT_EQ(cluster.pool->negotiate(), 1);

  Starter* starter = cluster.pool->startd("node0")->starter();
  ASSERT_NE(starter, nullptr);
  ASSERT_EQ(starter->aux_pids().size(), 1u);

  // Kill the auxiliary service mid-run: the RM must detect it.
  cluster.backends["node0"]->kill_process(starter->aux_pids()[0]);
  cluster.pool->pump();
  auto record = cluster.pool->schedd().job(id);
  EXPECT_EQ(record->status, JobStatus::kFailed);
  EXPECT_NE(record->failure_reason.find("auxiliary service"), std::string::npos);
}

TEST(PoolSim, MachineReusedAfterJobCompletes) {
  SimPool cluster(1);
  JobId first = cluster.pool->submit(sim_job(1));
  cluster.pool->negotiate();
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  ASSERT_EQ(cluster.pool->schedd().job(first)->status, JobStatus::kCompleted);

  JobId second = cluster.pool->submit(sim_job(1));
  EXPECT_EQ(cluster.pool->negotiate(), 1);
  for (int i = 0; i < 10; ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  EXPECT_EQ(cluster.pool->schedd().job(second)->status, JobStatus::kCompleted);
}

// --- flight recorder: on exactly when capsule_dir is set ---

/// Runs one sim job to completion on node0.
void run_one_job(SimPool& cluster) {
  JobId id = cluster.pool->submit(sim_job(2));
  ASSERT_EQ(cluster.pool->negotiate(), 1);
  for (int i = 0; i < 10 && !job_status_terminal(cluster.pool->schedd().job(id)->status); ++i) {
    cluster.step_all();
    cluster.pool->pump();
  }
  ASSERT_EQ(cluster.pool->schedd().job(id)->status, JobStatus::kCompleted);
}

TEST(PoolFlightRec, WithoutCapsuleDirEveryDaemonSharesTheDisabledRecorder) {
  SimPool cluster(1);
  run_one_job(cluster);
  const std::shared_ptr<flightrec::Recorder> off = flightrec::Recorder::disabled();
  for (const auto& [role, host] :
       {std::pair<const char*, const char*>{"schedd", "central"},
        {"master", "central"}, {"pool", "central"}, {"startd", "node0"},
        {"starter", "node0"}}) {
    EXPECT_EQ(cluster.pool->recorder(role, host), off) << role;
  }
  EXPECT_EQ(off->recorded(), 0u);
  EXPECT_EQ(cluster.pool->dump_capsule("startd", "node0", "test").code(),
            ErrorCode::kInvalidState);
}

TEST(PoolFlightRec, CapsuleDirTurnsRecordingOn) {
  const std::string dir = ::testing::TempDir() + "/pool_flightrec_capsules";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SimPool cluster(1, dir);
  run_one_job(cluster);
  const auto startd = cluster.pool->recorder("startd", "node0");
  EXPECT_NE(startd, flightrec::Recorder::disabled());
  EXPECT_GT(startd->recorded(), 0u);  // start, claim, activate, ...
  EXPECT_GT(cluster.pool->recorder("starter", "node0")->recorded(), 0u);
  ASSERT_TRUE(cluster.pool->dump_capsule("startd", "node0", "test").is_ok());
  auto capsule = flightrec::read_capsule(cluster.pool->capsule_path("startd", "node0"));
  ASSERT_TRUE(capsule.is_ok()) << capsule.status().to_string();
  EXPECT_EQ(capsule->role, "startd");
  EXPECT_FALSE(capsule->events.empty());
  std::filesystem::remove_all(dir);
}

// --- real backend (POSIX + real files) ---

class PoolPosixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each TEST_F as its own process, in
    // parallel, so a shared path would race remove_all against a sibling.
    submit_dir_ = ::testing::TempDir() + "/pool_submit_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(submit_dir_);
    std::filesystem::create_directories(submit_dir_);

    PoolConfig config;
    config.transport = net::InProcTransport::create();
    config.submit_dir = submit_dir_;
    config.scratch_base = ::testing::TempDir();
    config.use_real_files = true;
    config.backend_factory = [](const std::string&) {
      return std::make_shared<proc::PosixProcessBackend>();
    };
    pool_ = std::make_unique<Pool>(std::move(config));
    pool_->add_machine("exec1", Pool::default_machine_ad("exec1"));
  }

  std::string submit_dir_;
  std::unique_ptr<Pool> pool_;
};

TEST_F(PoolPosixTest, RealJobProducesOutputFile) {
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'echo job-output'";
  job.output = "outfile";
  JobId id = pool_->submit(job);

  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok()) << record.status().to_string();
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 0);

  // The starter staged the output back to the submit directory.
  std::ifstream out(submit_dir_ + "/outfile");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "job-output");
}

TEST_F(PoolPosixTest, FailingJobReportsExitCode) {
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c 'exit 3'";
  JobId id = pool_->submit(job);
  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  EXPECT_EQ(record->exit_code, 3);
}

TEST_F(PoolPosixTest, InputFileStagedIn) {
  {
    std::ofstream in(submit_dir_ + "/infile");
    in << "from-stdin";
  }
  JobDescription job;
  job.executable = "/bin/sh";
  job.arguments = "-c cat";
  job.input = "infile";
  job.output = "echoed";
  JobId id = pool_->submit(job);
  auto record = pool_->run_to_completion(id, 15'000);
  ASSERT_TRUE(record.is_ok());
  std::ifstream out(submit_dir_ + "/echoed");
  std::string data((std::istreambuf_iterator<char>(out)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(data, "from-stdin");
}

TEST(PoolCassRebuild, GrowthCarriesLeaseStateAndNeverReExpiresTheDead) {
  // Pool growth rebuilds the aggregation tree from machine_ads_, which
  // never shrinks. The rebuild must carry lease state from the old tree:
  // an already-detected dead machine stays untracked (no second
  // withdraw/expiry ttl+grace after every growth event), and a machine
  // that went silent just before the growth keeps its original detection
  // deadline instead of gaining a fresh ttl+grace.
  ManualClock clock;
  PoolConfig config;
  config.use_real_files = false;
  config.enable_liveness = true;
  config.cass_fanout = 4;
  config.clock = &clock;
  config.startd_lease.ttl_micros = 1'000;
  config.startd_lease.grace_micros = 400;
  config.startd_lease.beat_interval_micros = 250;
  config.restart_policy.restart_budget = 0;  // the dead stay dead
  Pool pool(std::move(config));
  for (int i = 0; i < 12; ++i) {
    const std::string name = "m" + std::to_string(i);
    pool.add_machine(name, Pool::default_machine_ad(name));
  }
  auto drive = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      pool.pump();
      clock.advance_micros(250);
    }
  };
  drive(4);  // tree built, everyone beating
  ASSERT_NE(pool.cass(), nullptr);

  // m3 dies and is detected exactly once.
  ASSERT_TRUE(pool.kill_startd("m3").is_ok());
  drive(10);  // well past ttl+grace
  EXPECT_EQ(pool.cass()->host_expiries(), 1u);

  // m4 dies, and the pool grows 750us into its 1400us detection window.
  ASSERT_TRUE(pool.kill_startd("m4").is_ok());
  drive(3);
  pool.add_machine("m12", Pool::default_machine_ad("m12"));
  pool.pump();  // rebuilds the tree over 13 machines
  ASSERT_TRUE(pool.cass()->member("m12"));

  // Carried deadline: m4 expires on the ORIGINAL schedule (~1400us after
  // its last beat), not a fresh ttl+grace counted from the rebuild.
  drive(4);  // ~1750us since m4's last beat; rebuild+1400 would be ~2150us
  EXPECT_EQ(pool.cass()->host_expiries(), 1u) << "m4's deadline was reset";
  EXPECT_EQ(pool.cass()->host_health("m4"), lease::Health::kExpired);

  // m3 was already detected before the rebuild: it must never fire again.
  drive(12);
  EXPECT_EQ(pool.cass()->host_expiries(), 1u) << "dead machine re-expired";

  // Every live machine — including the newcomer — is tracked and alive.
  EXPECT_EQ(pool.cass()->host_health("m12"), lease::Health::kAlive);
  EXPECT_EQ(pool.cass()->host_health("m0"), lease::Health::kAlive);
}

TEST(PoolLiveness, OneLevelTreeKeepsTheFlatDeadline) {
  // Three machines at the default fanout: the aggregation tree is one level
  // deep and every startd beats straight at the root's lease monitor (the
  // flat topology). A killed startd is detected exactly once, no earlier
  // than ttl+grace after its last beat and by the first pump past that,
  // and its job is requeued exactly once.
  ManualClock clock;
  lease::Config lease;
  lease.ttl_micros = 1'000;
  lease.grace_micros = 400;
  lease.beat_interval_micros = 250;
  SimPool cluster(3, "", [&](PoolConfig& config) {
    config.enable_liveness = true;
    config.startd_lease = lease;
    config.clock = &clock;
    config.restart_policy.restart_budget = 0;  // the dead stay dead
  });
  Pool& pool = *cluster.pool;
  const JobId id = pool.submit(sim_job(1'000'000));  // outlives the test
  for (int turn = 0; turn < 20 && pool.schedd().job(id)->status !=
                                      JobStatus::kRunning; ++turn) {
    pool.negotiate();
    cluster.step_all();
    pool.pump();
    clock.advance_micros(lease.beat_interval_micros);
  }
  ASSERT_EQ(pool.schedd().job(id)->status, JobStatus::kRunning);
  ASSERT_NE(pool.cass(), nullptr);
  EXPECT_EQ(pool.cass()->overlay().depth(), 1);
  const std::string victim = pool.schedd().job(id)->matched_machine;
  EXPECT_EQ(pool.cass()->interior_of(victim), pool.cass()->root());

  pool.pump();  // the victim's last beat
  const Micros last_beat = pool.cass()->host_last_beat(victim);
  ASSERT_EQ(last_beat, clock.now_micros());
  ASSERT_TRUE(pool.kill_startd(victim).is_ok());

  const Micros deadline = last_beat + lease.ttl_micros + lease.grace_micros;
  while (clock.now_micros() <= deadline) {
    pool.pump();
    ASSERT_EQ(pool.cass()->host_expiries(), 0u)
        << "expired " << clock.now_micros() - last_beat << "us after the last beat";
    clock.advance_micros(50);
  }
  pool.pump();  // the first pump past ttl+grace
  EXPECT_EQ(pool.cass()->host_expiries(), 1u);
  for (int turn = 0; turn < 40; ++turn) {
    pool.pump();
    clock.advance_micros(50);
  }
  EXPECT_EQ(pool.cass()->host_expiries(), 1u) << "a dead startd expired twice";
  EXPECT_EQ(pool.orphan_requeues(), 1u);
  EXPECT_EQ(pool.schedd().job(id)->restarts, 1);
}

TEST(PoolLiveness, RootBeatsLandUnderTheirLivenessName) {
  // With machines <= fanout every startd's beat reaches the root store
  // directly. It is stored under tdp.liveness.startd.<machine>, the name
  // observers scan, never under the bare machine name.
  ManualClock clock;
  attr::AttributeStore cass;
  PoolConfig config;
  config.use_real_files = false;
  config.enable_liveness = true;
  config.clock = &clock;
  config.cass_store = &cass;
  Pool pool(std::move(config));
  pool.add_machine("m0", Pool::default_machine_ad("m0"));
  pool.add_machine("m1", Pool::default_machine_ad("m1"));
  pool.pump();  // builds the tree
  clock.advance_micros(lease::Config{}.beat_interval_micros);
  pool.pump();  // every startd beats into it

  EXPECT_TRUE(cass.get("cass", "tdp.liveness.startd.m0").is_ok());
  EXPECT_TRUE(cass.get("cass", "tdp.liveness.startd.m1").is_ok());
  EXPECT_FALSE(cass.get("cass", "m0").is_ok());
  EXPECT_FALSE(cass.get("cass", "m1").is_ok());
  EXPECT_GE(pool.root_liveness_writes(), 2u);
}

TEST(PoolCassRebuild, GrowthKeepsHealthRateWindows) {
  // A rate rule compares each sample with the previous one its host's
  // engine saw. Pool growth rebuilds the tree; the engines must move into
  // the new tree, or the first publish after the growth is every host's
  // first sighting and a requeue burst reads as rate 0 (ok).
  ManualClock clock;
  attr::AttributeStore cass;
  lease::Config lease;
  lease.ttl_micros = 1'000;
  lease.grace_micros = 400;
  lease.beat_interval_micros = 250;
  SimPool cluster(2, "", [&](PoolConfig& config) {
    config.enable_liveness = true;
    config.startd_lease = lease;
    config.clock = &clock;
    config.cass_store = &cass;
    config.restart_policy.restart_budget = 0;  // the dead stay dead
    config.health_rules = {
        "requeues: pool.orphan_requeues rate above warn=0.1 critical=1000000"};
  });
  Pool& pool = *cluster.pool;
  const JobId id = pool.submit(sim_job(1'000'000));  // outlives the test
  for (int turn = 0; turn < 20 && pool.schedd().job(id)->status !=
                                      JobStatus::kRunning; ++turn) {
    pool.negotiate();
    cluster.step_all();
    pool.pump();
    clock.advance_micros(lease.beat_interval_micros);
  }
  ASSERT_EQ(pool.schedd().job(id)->status, JobStatus::kRunning);
  ASSERT_GT(pool.publish_health(), 0);  // each engine's first sighting
  EXPECT_EQ(pool.cass()->last_health_fold(), health::Severity::kOk);

  ASSERT_TRUE(pool.kill_startd(pool.schedd().job(id)->matched_machine).is_ok());
  for (int turn = 0; turn < 40 && pool.orphan_requeues() == 0; ++turn) {
    clock.advance_micros(50);
    pool.pump();
  }
  ASSERT_EQ(pool.orphan_requeues(), 1u);

  pool.add_machine("node2", Pool::default_machine_ad("node2"));
  ASSERT_GT(pool.publish_health(), 0);  // rebuilds the tree over 3 machines
  ASSERT_TRUE(pool.cass()->member("node2"));
  EXPECT_EQ(pool.cass()->last_health_fold(), health::Severity::kWarn)
      << "the rebuild restarted the rate windows";
  auto fold = cass.get("cass", "tdp.health.startd");
  ASSERT_TRUE(fold.is_ok());
  EXPECT_EQ(fold.value(), "warn");
}

TEST(PoolLiveness, FanoutBelowTwoStillDetectsDeath) {
  // The overlay rejects a fanout below 2; the pool raises it instead of
  // running without a liveness tree.
  ManualClock clock;
  PoolConfig config;
  config.use_real_files = false;
  config.enable_liveness = true;
  config.cass_fanout = 1;
  config.clock = &clock;
  config.restart_policy.restart_budget = 0;
  Pool pool(std::move(config));
  for (int i = 0; i < 3; ++i) {
    const std::string name = "m" + std::to_string(i);
    pool.add_machine(name, Pool::default_machine_ad(name));
  }
  pool.pump();
  ASSERT_NE(pool.cass(), nullptr);
  ASSERT_TRUE(pool.kill_startd("m1").is_ok());
  const lease::Config lease;
  for (Micros waited = 0;
       waited <= 2 * (lease.ttl_micros + lease.grace_micros);
       waited += lease.beat_interval_micros) {
    clock.advance_micros(lease.beat_interval_micros);
    pool.pump();
  }
  EXPECT_EQ(pool.cass()->host_expiries(), 1u);
}

TEST_F(PoolPosixTest, SubmitFileDrivesWholePipeline) {
  auto file = SubmitFile::parse(
      "executable = /bin/sh\n"
      "arguments = \"-c 'echo via-submit-file'\"\n"
      "output = sf.out\n"
      "queue\n");
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  auto ids = pool_->submit(file.value());
  ASSERT_EQ(ids.size(), 1u);
  auto record = pool_->run_to_completion(ids[0], 15'000);
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record->status, JobStatus::kCompleted);
  std::ifstream out(submit_dir_ + "/sf.out");
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "via-submit-file");
}

}  // namespace
}  // namespace tdp::condor
