// Front-door admission tests (PR 10): config-grammar fuzz, token buckets
// on a manual clock, brownout hysteresis, weighted round-robin dispatch,
// exactly-once shed accounting across a schedd crash, and the indexed
// matchmaker's equivalence with the full scan.
#include "condor/frontdoor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "attrspace/attr_client.hpp"
#include "condor/matchmaker.hpp"
#include "condor/pool.hpp"
#include "condor/schedd.hpp"
#include "util/clock.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace tdp::condor {
namespace {

JobDescription tenant_job(const std::string& tenant = "",
                          const std::string& requirements = "") {
  JobDescription job;
  job.executable = "/bin/true";
  job.requirements = requirements;
  if (!tenant.empty()) job.custom_attributes["tenant"] = tenant;
  return job;
}

// --- config grammar ---

TEST(FrontDoorConfigTest, ParsesTenantsDefaultsAndBrownout) {
  auto parsed = parse_frontdoor_config({
      "# comment",
      "",
      "default: rate=5 burst=2 depth=10",
      "tenant acme: rate=100 burst=50 weight=4 priority=5 quota=8",
      "tenant batch: priority=-1",
      "brownout: warn-floor=0 critical-floor=3 exit-after=2 dwell-ms=500",
  });
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const FrontDoorConfig& config = parsed.value();
  EXPECT_DOUBLE_EQ(config.default_policy.rate, 5.0);
  EXPECT_EQ(config.default_policy.depth, 10);
  const TenantPolicy& acme = config.tenants.at("acme");
  EXPECT_DOUBLE_EQ(acme.rate, 100.0);
  EXPECT_EQ(acme.weight, 4);
  EXPECT_EQ(acme.quota, 8);
  // `batch` inherits the default line parsed before it.
  const TenantPolicy& batch = config.tenants.at("batch");
  EXPECT_DOUBLE_EQ(batch.rate, 5.0);
  EXPECT_EQ(batch.depth, 10);
  EXPECT_EQ(batch.priority, -1);
  EXPECT_EQ(config.brownout.critical_floor, 3);
  EXPECT_EQ(config.brownout.exit_after, 2);
}

TEST(FrontDoorConfigTest, RejectsMalformedLines) {
  const std::vector<std::string> bad = {
      "no colon here",
      ": rate=5",
      "tenant : rate=5",
      "tenant two words: rate=5",
      "tenant acme: rate=0",
      "tenant acme: rate=-3",
      "tenant acme: burst=0",
      "tenant acme: depth=0",
      "tenant acme: weight=0",
      "tenant acme: quota=-1",
      "tenant acme: rate=fast",
      "tenant acme: bogus=1",
      "tenant acme: rate",
      "brownout: exit-after=0",
      "brownout: dwell-ms=-1",
      "brownout: busy-retry-ms=0",
      "brownout: shed-retry-ms=0",
      "brownout: retry=5",
  };
  for (const std::string& line : bad) {
    auto parsed = parse_frontdoor_config({line});
    EXPECT_FALSE(parsed.is_ok()) << "accepted: " << line;
    if (!parsed.is_ok()) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << line;
    }
  }
}

TEST(FrontDoorConfigTest, RejectsDuplicateTenantAndInvertedFloors) {
  auto duplicate = parse_frontdoor_config(
      {"tenant acme: rate=5", "tenant acme: rate=9"});
  EXPECT_FALSE(duplicate.is_ok());
  auto inverted =
      parse_frontdoor_config({"brownout: warn-floor=5 critical-floor=1"});
  EXPECT_FALSE(inverted.is_ok());
  // Equal floors are fine (critical sheds "at least as much").
  EXPECT_TRUE(
      parse_frontdoor_config({"brownout: warn-floor=2 critical-floor=2"})
          .is_ok());
}

TEST(FrontDoorConfigTest, FuzzedLinesNeverCrash) {
  // Random token soup: every outcome must be a clean ok/kInvalidArgument,
  // never a crash or a partially-applied config.
  const std::string alphabet = "tenant :=-.0123456789abcz #\t";
  Rng rng(20030211);
  for (int round = 0; round < 2000; ++round) {
    std::string line;
    const std::size_t length = rng.next_below(40);
    for (std::size_t i = 0; i < length; ++i) {
      line.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    auto parsed = parse_frontdoor_config({line});
    if (!parsed.is_ok()) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << line;
    }
  }
}

TEST(FrontDoorConfigTest, TenantOfParsesSubmitAttribute) {
  EXPECT_EQ(tenant_of(tenant_job()), "default");
  EXPECT_EQ(tenant_of(tenant_job("acme")), "acme");
  EXPECT_EQ(tenant_of(tenant_job("\"acme\"")), "acme");
  EXPECT_EQ(tenant_of(tenant_job("  \"acme\"  ")), "acme");
  EXPECT_EQ(tenant_of(tenant_job("\"\"")), "default");
  JobDescription mixed_case;
  mixed_case.custom_attributes["Tenant"] = "ops";
  EXPECT_EQ(tenant_of(mixed_case), "ops");
}

// --- token bucket / depth / quota ---

FrontDoorConfig small_config() {
  auto parsed = parse_frontdoor_config({
      "default: rate=10 burst=3 depth=4 quota=2",
      "brownout: warn-floor=1 critical-floor=2 exit-after=3 dwell-ms=1000 "
      "busy-retry-ms=50 shed-retry-ms=500",
      "tenant low: priority=0",
      "tenant high: priority=5 weight=3",
  });
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return parsed.value();
}

TEST(FrontDoorTest, BurstThenRateLimited) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(door.admit("acme", 0, 0).admitted()) << i;
  }
  Admission refused = door.admit("acme", 0, 0);
  EXPECT_EQ(refused.verdict, Admission::Verdict::kBusy);
  // rate=10/s: one whole token is ~100ms away.
  EXPECT_GE(refused.retry_after_ms, 1);
  EXPECT_LE(refused.retry_after_ms, 150);

  clock.advance_micros(120 * 1000);  // 120ms > one token at 10/s
  EXPECT_TRUE(door.admit("acme", 0, 0).admitted());
  EXPECT_EQ(door.admit("acme", 0, 0).verdict, Admission::Verdict::kBusy);

  const TenantCounters counters = door.counters("acme");
  EXPECT_EQ(counters.admitted, 4u);
  EXPECT_EQ(counters.busy, 2u);
}

TEST(FrontDoorTest, RefillNeverExceedsBurst) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  clock.advance_micros(3'600'000'000LL);  // an hour idle must not bank 36k tokens
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (door.admit("acme", 0, 0).admitted()) ++admitted;
  }
  EXPECT_EQ(admitted, 3);  // burst=3
}

TEST(FrontDoorTest, DepthAndQuotaRefuse) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  Admission deep = door.admit("acme", 4, 0);  // depth=4 already queued
  EXPECT_EQ(deep.verdict, Admission::Verdict::kBusy);
  EXPECT_EQ(deep.retry_after_ms, 50);  // busy-retry-ms
  Admission over_quota = door.admit("acme", 0, 2);  // quota=2 in flight
  EXPECT_EQ(over_quota.verdict, Admission::Verdict::kBusy);
  // Neither refusal drained the bucket.
  EXPECT_EQ(door.counters("acme").busy, 2u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(door.admit("acme", 0, 0).admitted());
}

// --- brownout state machine ---

TEST(FrontDoorTest, WarnShedsBelowFloorAndDegradesRest) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  HealthTransition entered = door.on_health(health::Severity::kWarn);
  EXPECT_TRUE(entered.entered);
  EXPECT_EQ(entered.state, BrownoutState::kWarnBrownout);
  EXPECT_EQ(entered.shed_floor, 1);
  EXPECT_TRUE(door.is_shed("low"));    // priority 0 < warn-floor 1
  EXPECT_FALSE(door.is_shed("high"));  // priority 5

  Admission shed = door.admit("low", 0, 0);
  EXPECT_EQ(shed.verdict, Admission::Verdict::kShed);
  EXPECT_EQ(shed.retry_after_ms, 500);  // shed-retry-ms: back off harder
  Admission degraded = door.admit("high", 0, 0);
  EXPECT_EQ(degraded.verdict, Admission::Verdict::kAdmitBestEffort);
  EXPECT_TRUE(degraded.admitted());
  // The shed refusal did not touch low's bucket: it is full on recovery.
  EXPECT_EQ(door.counters("low").shed, 1u);
}

TEST(FrontDoorTest, CriticalEscalatesAndDeescalationKeepsDepth) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  door.on_health(health::Severity::kWarn);
  HealthTransition critical = door.on_health(health::Severity::kCritical);
  EXPECT_TRUE(critical.entered);
  EXPECT_EQ(critical.shed_floor, 2);
  EXPECT_EQ(door.state(), BrownoutState::kCriticalBrownout);
  // A later warn verdict must not shrink the shed set mid-episode.
  HealthTransition warn_again = door.on_health(health::Severity::kWarn);
  EXPECT_FALSE(warn_again.entered);
  EXPECT_EQ(door.state(), BrownoutState::kCriticalBrownout);
  EXPECT_EQ(door.brownout_entries(), 1u);  // one episode, not two
}

TEST(FrontDoorTest, ExitNeedsOkStreakAndDwell) {
  ManualClock clock;
  FrontDoor door(small_config(), &clock);  // exit-after=3 dwell-ms=1000
  door.on_health(health::Severity::kWarn);

  // Three consecutive oks, but the dwell has not elapsed: still browned out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(door.on_health(health::Severity::kOk).exited);
  }
  EXPECT_EQ(door.state(), BrownoutState::kWarnBrownout);

  // Dwell elapsed but the streak was broken by a warn: still browned out.
  clock.advance_micros(2'000'000);
  door.on_health(health::Severity::kWarn);
  EXPECT_FALSE(door.on_health(health::Severity::kOk).exited);
  EXPECT_FALSE(door.on_health(health::Severity::kOk).exited);
  HealthTransition exit = door.on_health(health::Severity::kOk);
  EXPECT_TRUE(exit.exited);
  EXPECT_EQ(door.state(), BrownoutState::kNormal);
  EXPECT_EQ(exit.shed_floor, 0);
  EXPECT_FALSE(door.is_shed("low"));
  EXPECT_EQ(door.brownout_entries(), 1u);  // hysteresis: one entry, no flap
}

// --- weighted round-robin queues ---

TEST(WrrQueuesTest, WeightedInterleaveAndRotation) {
  WrrQueues queues;
  for (JobId id : {1, 2, 3, 4}) queues.push("a", 2, id);
  for (JobId id : {10, 11}) queues.push("b", 1, id);
  EXPECT_EQ(queues.size(), 6u);
  EXPECT_EQ(queues.tenant_depth("a"), 4u);

  const std::vector<JobId> round = queues.pop_round(6);
  // Two from a, one from b, repeat: weight-proportional, nobody starved.
  EXPECT_EQ(round, (std::vector<JobId>{1, 2, 10, 3, 4, 11}));
  EXPECT_EQ(queues.size(), 0u);
}

TEST(WrrQueuesTest, PushIsIdempotentAndEraseRemoves) {
  WrrQueues queues;
  queues.push("a", 1, 7);
  queues.push("a", 1, 7);  // duplicate id ignored
  queues.push("b", 1, 8);
  EXPECT_EQ(queues.size(), 2u);
  queues.erase(8);
  EXPECT_FALSE(queues.contains(8));
  EXPECT_EQ(queues.pop_round(10), std::vector<JobId>{7});
}

TEST(WrrQueuesTest, LimitBoundsTheRound) {
  WrrQueues queues;
  for (JobId id = 1; id <= 100; ++id) queues.push("a", 1, id);
  EXPECT_EQ(queues.pop_round(5).size(), 5u);
  EXPECT_EQ(queues.size(), 95u);
}

// --- schedd integration ---

struct FrontDoorSchedd {
  ManualClock clock;
  FrontDoor door;
  Schedd schedd;

  FrontDoorSchedd() : door(small_config(), &clock) {
    schedd.set_front_door(&door);
  }
};

TEST(ScheddFrontDoorTest, TrySubmitRecordsTenantAndCounts) {
  FrontDoorSchedd fixture;
  auto id = fixture.schedd.try_submit(tenant_job("\"acme\""));
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(fixture.schedd.job(*id)->tenant, "acme");
  EXPECT_FALSE(fixture.schedd.job(*id)->best_effort);
  EXPECT_EQ(fixture.schedd.tenant_idle("acme"), 1u);
  EXPECT_EQ(fixture.schedd.tenant_active("acme"), 0u);
  fixture.schedd.set_matched(*id, "node1");
  EXPECT_EQ(fixture.schedd.tenant_idle("acme"), 0u);
  EXPECT_EQ(fixture.schedd.tenant_active("acme"), 1u);
}

TEST(ScheddFrontDoorTest, RefusalCarriesParsableRetryAfter) {
  FrontDoorSchedd fixture;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fixture.schedd.try_submit(tenant_job("acme")).is_ok());
  }
  auto refused = fixture.schedd.try_submit(tenant_job("acme"));
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kBusy);
  // The hint rides the status message exactly like a busy attr reply, so
  // the shared parser reads it.
  EXPECT_GT(attr::retry_after_hint_ms(refused.status()), 0);
  EXPECT_EQ(fixture.schedd.queue_size(), 3u);
}

TEST(ScheddFrontDoorTest, DispatchInterleavesTenantsByWeight) {
  FrontDoorSchedd fixture;
  std::vector<JobId> low, high;
  for (int i = 0; i < 3; ++i) {
    low.push_back(*fixture.schedd.try_submit(tenant_job("low")));
    high.push_back(*fixture.schedd.try_submit(tenant_job("high")));
  }
  auto ads = fixture.schedd.dispatch_ads(4);
  ASSERT_EQ(ads.size(), 4u);
  // high has weight=3, low weight=1: one WRR visit gives high three slots.
  std::size_t high_slots = 0;
  for (const auto& [id, ad] : ads) {
    if (fixture.schedd.job(id)->tenant == "high") ++high_slots;
  }
  EXPECT_EQ(high_slots, 3u);
  // Unmatched jobs rotate to the back of their lane, not out of the queue.
  auto again = fixture.schedd.dispatch_ads(6);
  EXPECT_EQ(again.size(), 6u);
}

TEST(ScheddFrontDoorTest, LegacyDispatchWithoutFrontDoor) {
  Schedd schedd;
  JobId a = schedd.submit(tenant_job("acme"));
  JobId b = schedd.submit(tenant_job());
  auto ads = schedd.dispatch_ads(1);  // limit only applies to WRR dispatch
  ASSERT_EQ(ads.size(), 2u);
  EXPECT_EQ(ads[0].first, a);
  EXPECT_EQ(ads[1].first, b);
}

TEST(ScheddFrontDoorTest, BrownoutShedsExactlyOnceAcrossCrash) {
  auto journal = journal::Journal::in_memory();
  ManualClock clock;
  FrontDoor door(small_config(), &clock);
  Schedd schedd;
  schedd.set_journal(journal.get());
  schedd.set_front_door(&door);

  std::vector<JobId> low, high;
  for (int i = 0; i < 2; ++i) {
    low.push_back(*schedd.try_submit(tenant_job("low")));
    high.push_back(*schedd.try_submit(tenant_job("high")));
  }

  HealthTransition warn = schedd.on_health(health::Severity::kWarn);
  EXPECT_TRUE(warn.entered);
  EXPECT_EQ(schedd.shed_jobs(), 2u);
  // Shed jobs leave the dispatch path entirely.
  for (const auto& [id, ad] : schedd.dispatch_ads(10)) {
    EXPECT_EQ(schedd.job(id)->tenant, "high");
  }
  // A second tick re-evaluates but must not double-shed (exactly-once).
  schedd.on_health(health::Severity::kWarn);
  EXPECT_EQ(schedd.shed_jobs(), 2u);

  // New best-effort admissions during the brownout are flagged.
  JobId degraded = *schedd.try_submit(tenant_job("high"));
  EXPECT_TRUE(schedd.job(degraded)->best_effort);
  EXPECT_EQ(schedd.best_effort_jobs(), 1u);

  // Kill the schedd mid-brownout; replay must converge on one flip per
  // job (last record wins), and recovery clears shed marks because the
  // live health verdict - not stale journal state - decides shedding.
  schedd.crash();
  ASSERT_TRUE(schedd.recover().is_ok());
  EXPECT_EQ(schedd.queue_size(), 5u);
  EXPECT_EQ(schedd.shed_jobs(), 0u);
  for (JobId id : low) EXPECT_EQ(schedd.job(id)->tenant, "low");

  // The front door survived (it is pool state); the next warn tick
  // re-sheds the same two jobs, again exactly once.
  schedd.on_health(health::Severity::kWarn);
  EXPECT_EQ(schedd.shed_jobs(), 2u);

  // Recovery with hysteresis: streak + dwell, then everything dispatches.
  clock.advance_micros(2'000'000);
  schedd.on_health(health::Severity::kOk);
  schedd.on_health(health::Severity::kOk);
  HealthTransition exit = schedd.on_health(health::Severity::kOk);
  EXPECT_TRUE(exit.exited);
  EXPECT_EQ(schedd.shed_jobs(), 0u);
  EXPECT_EQ(schedd.dispatch_ads(10).size(), 5u);
}

// --- indexed matchmaker ---

classads::ClassAd machine_ad(const std::string& name, const std::string& arch,
                             int memory) {
  classads::ClassAd ad = Pool::default_machine_ad(name, memory);
  ad.insert_string(classads::ads::kArch, arch);
  return ad;
}

/// Brute-force reference for one negotiation cycle: one symmetric_match
/// per free machine per job, in machine-name order, with the Matchmaker's
/// tie-break (job rank, then machine rank). Counts its evaluations.
std::vector<Matchmaker::Match> full_scan(
    const std::map<std::string, classads::ClassAd>& machines,
    const std::vector<std::pair<JobId, classads::ClassAd>>& jobs,
    std::uint64_t* evaluations) {
  std::set<std::string> taken;
  std::vector<Matchmaker::Match> matches;
  for (const auto& [job_id, job_ad] : jobs) {
    if (taken.size() == machines.size()) break;
    const std::string* best = nullptr;
    double best_job_rank = 0.0, best_machine_rank = 0.0;
    for (const auto& [name, ad] : machines) {
      if (taken.count(name) != 0) continue;
      ++*evaluations;
      if (!classads::symmetric_match(job_ad, ad)) continue;
      const double job_rank = classads::rank_of(job_ad, ad);
      const double machine_rank = classads::rank_of(ad, job_ad);
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

TEST(MatchmakerIndexTest, IndexedEqualsFullScanWithFewerEvaluations) {
  Matchmaker indexed;
  std::map<std::string, classads::ClassAd> machines;
  for (int i = 0; i < 60; ++i) {
    const std::string name = "node" + std::to_string(i);
    classads::ClassAd ad =
        machine_ad(name, i % 3 == 0 ? "SPARC" : "INTEL", 512 * (i % 8 + 1));
    indexed.advertise_machine(name, ad);
    machines.emplace(name, std::move(ad));
  }
  std::vector<std::pair<JobId, classads::ClassAd>> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.emplace_back(
        i + 1, tenant_job("", "TARGET.Arch == \"SPARC\" && TARGET.Memory >= 2048")
                   .to_classad());
  }
  const auto via_index = indexed.negotiate(jobs, {});
  std::uint64_t scan_evaluations = 0;
  const auto via_scan = full_scan(machines, jobs, &scan_evaluations);
  ASSERT_EQ(via_index.size(), via_scan.size());
  for (std::size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_EQ(via_index[i].job, via_scan[i].job);
    EXPECT_EQ(via_index[i].machine, via_scan[i].machine);
  }
  EXPECT_EQ(indexed.stats().indexed_jobs, 10u);
  EXPECT_GT(indexed.stats().pruned, 0u);
  EXPECT_LT(indexed.stats().evaluations, scan_evaluations);
}

TEST(MatchmakerIndexTest, ImpossibleEqualityShortCircuits) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("node0", machine_ad("node0", "INTEL", 1024));
  auto matches = matchmaker.negotiate(
      {{1, tenant_job("", "TARGET.Arch == \"VAX\"").to_classad()}}, {});
  EXPECT_TRUE(matches.empty());
  EXPECT_EQ(matchmaker.stats().evaluations, 0u);  // pruned to nothing
}

TEST(MatchmakerIndexTest, ReadvertiseMovesIndexBuckets) {
  Matchmaker matchmaker;
  matchmaker.advertise_machine("node0", machine_ad("node0", "SPARC", 1024));
  matchmaker.advertise_machine("node0", machine_ad("node0", "INTEL", 1024));
  auto jobs = std::vector<std::pair<JobId, classads::ClassAd>>{
      {1, tenant_job("", "TARGET.Arch == \"SPARC\"").to_classad()}};
  EXPECT_TRUE(matchmaker.negotiate(jobs, {}).empty());
  jobs[0].second = tenant_job("", "TARGET.Arch == \"INTEL\"").to_classad();
  EXPECT_EQ(matchmaker.negotiate(jobs, {}).size(), 1u);
  matchmaker.withdraw_machine("node0");
  EXPECT_TRUE(matchmaker.negotiate(jobs, {}).empty());
}

TEST(MatchmakerIndexTest, CaseInsensitiveStringEquality) {
  // ClassAd `==` compares strings case-insensitively; the index keys must
  // agree or a differently-cased literal would wrongly prune everything.
  Matchmaker matchmaker;
  matchmaker.advertise_machine("node0", machine_ad("node0", "INTEL", 1024));
  auto matches = matchmaker.negotiate(
      {{1, tenant_job("", "TARGET.Arch == \"intel\"").to_classad()}}, {});
  EXPECT_EQ(matches.size(), 1u);
}

}  // namespace
}  // namespace tdp::condor
