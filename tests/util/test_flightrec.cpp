// Flight recorder tests (PR 9): ring wrap accounting, capsule
// encode/decode round-trips, the torn-capsule regression (a dump cut off
// mid-block must still yield every complete event plus honest ScanStats),
// cross-daemon timeline merging, and the log tap. The chaos tier proves
// capsules appear when daemons die; this file proves the format itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/blockio.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::flightrec {
namespace {

Config test_config(const Clock* clock, std::size_t capacity = 64,
                   std::size_t shards = 4) {
  Config config;
  config.role = "startd";
  config.host = "node-1";
  config.capacity = capacity;
  config.shards = shards;
  config.clock = clock;
  return config;
}

TEST(FlightRec, KindNamesRoundTrip) {
  for (auto kind : {EventKind::kLog, EventKind::kSpan, EventKind::kState,
                    EventKind::kFault, EventKind::kLease, EventKind::kReplay,
                    EventKind::kControl}) {
    auto parsed = parse_kind(kind_name(kind));
    ASSERT_TRUE(parsed.is_ok()) << kind_name(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(parse_kind("bogus").is_ok());
  EXPECT_EQ(control_attr("startd", "node-1"),
            "tdp.control.blackbox.startd.node-1");
}

TEST(FlightRec, RecordsStampedSequencedEvents) {
  ManualClock clock;
  clock.set_micros(1'000);
  Recorder rec(test_config(&clock));

  rec.state("start", "pid=7");
  clock.advance_micros(10);
  rec.lease("beat", "value=1");
  clock.advance_micros(10);
  rec.fault("drop", "peer=schedd");

  const std::vector<Event> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kState);
  EXPECT_EQ(events[0].what, "start");
  EXPECT_EQ(events[0].detail, "pid=7");
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].at_micros, 1'000);
  EXPECT_EQ(events[1].kind, EventKind::kLease);
  EXPECT_EQ(events[1].at_micros, 1'010);
  EXPECT_EQ(events[2].kind, EventKind::kFault);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(FlightRec, RingWrapsAndAccountsOverwrites) {
  ManualClock clock;
  Recorder rec(test_config(&clock, /*capacity=*/8, /*shards=*/2));

  for (int i = 0; i < 20; ++i) {
    rec.state("tick", "n=" + std::to_string(i));
  }

  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);

  const std::vector<Event> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Ascending seq, and only the newest events survive the wrap.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_GE(events.front().seq, 12u);
  EXPECT_EQ(events.back().seq, 19u);
  EXPECT_EQ(events.back().detail, "n=19");
}

TEST(FlightRec, DisabledRecorderDropsEverything) {
  ManualClock clock;
  Recorder rec(test_config(&clock));
  rec.set_enabled(false);
  rec.state("start", "");
  rec.lease("beat", "");
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  rec.state("resume", "");
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRec, SharedDisabledRecorderHasNoRing) {
  const std::shared_ptr<Recorder> off = Recorder::disabled();
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off, Recorder::disabled());  // one instance, shared
  EXPECT_FALSE(off->enabled());
  off->set_enabled(true);  // nothing to record into: stays off
  EXPECT_FALSE(off->enabled());
  off->state("start", "");
  off->record(EventKind::kControl, "poke", "");
  EXPECT_EQ(off->recorded(), 0u);
  EXPECT_EQ(off->overwritten(), 0u);
  EXPECT_TRUE(off->snapshot().empty());
  const std::string path = ::testing::TempDir() + "/flightrec_disabled.capsule";
  std::remove(path.c_str());
  EXPECT_EQ(off->dump(path, "test").code(), ErrorCode::kInvalidState);
  EXPECT_FALSE(read_capsule(path).is_ok());  // nothing written
}

TEST(FlightRec, LogThresholdFiltersAtTheDoor) {
  ManualClock clock;
  Config config = test_config(&clock);
  config.log_threshold = log::Level::kWarn;
  Recorder rec(config);

  rec.log_event(log::Level::kInfo, "startd", "routine");
  rec.log_event(log::Level::kWarn, "startd", "claim timeout");
  rec.log_event(log::Level::kError, "startd", "journal corrupt");

  const std::vector<Event> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].severity,
            static_cast<std::uint8_t>(log::Level::kWarn));
  EXPECT_EQ(events[0].what, "startd");
  EXPECT_EQ(events[0].detail, "claim timeout");
  EXPECT_EQ(events[1].severity,
            static_cast<std::uint8_t>(log::Level::kError));
}

TEST(FlightRec, CapsuleRoundTrips) {
  ManualClock clock;
  clock.set_micros(5'000);
  Recorder rec(test_config(&clock));

  rec.state("start", "pid=7");
  telemetry::SpanRecord span;
  span.name = "startd.claim";
  span.role = "startd";
  span.trace_id = 0xabcd;
  span.span_id = 42;
  span.start_us = 5'000;
  span.end_us = 5'250;
  rec.span(span);
  journal::ReplayStats replay;
  replay.records = 9;
  replay.resyncs = 1;
  replay.torn_tail = true;
  rec.replay("claim-journal", replay);

  clock.advance_micros(100);
  const std::string bytes = rec.encode_capsule("unit-test");

  blockio::ScanStats stats;
  auto decoded = decode_capsule(bytes, &stats);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const Capsule& capsule = decoded.value();
  EXPECT_EQ(capsule.role, "startd");
  EXPECT_EQ(capsule.host, "node-1");
  EXPECT_EQ(capsule.reason, "unit-test");
  EXPECT_EQ(capsule.dumped_at, 5'100);
  EXPECT_EQ(capsule.recorded, 3u);
  EXPECT_EQ(capsule.overwritten, 0u);
  ASSERT_EQ(capsule.events.size(), 3u);
  EXPECT_EQ(capsule.events[1].kind, EventKind::kSpan);
  EXPECT_EQ(capsule.events[1].trace_id, 0xabcd);
  EXPECT_EQ(capsule.events[1].span_id, 42u);
  EXPECT_EQ(capsule.events[1].what, "startd.claim");
  EXPECT_EQ(capsule.events[2].kind, EventKind::kReplay);
  EXPECT_EQ(capsule.events[2].what, "claim-journal");
  // meta block + one event block, no damage.
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(FlightRec, DecodeRejectsNonCapsuleStreams) {
  EXPECT_FALSE(decode_capsule("not a capsule at all").is_ok());
  // A valid block stream whose first record is not a capsule meta block.
  const std::string stream = blockio::encode_block("random payload");
  EXPECT_FALSE(decode_capsule(stream).is_ok());
}

TEST(FlightRec, DumpWritesReadableCapsuleWithControlEvent) {
  ManualClock clock;
  Recorder rec(test_config(&clock));
  rec.state("start", "");

  const std::string path = "test_flightrec_dump.capsule";
  auto status = rec.dump(path, "operator-poke");
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  auto decoded = read_capsule(path);
  std::remove(path.c_str());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const Capsule& capsule = decoded.value();
  EXPECT_EQ(capsule.reason, "operator-poke");
  // The dump records a kControl event before serializing, so the capsule
  // explains why it exists.
  ASSERT_EQ(capsule.events.size(), 2u);
  EXPECT_EQ(capsule.events.back().kind, EventKind::kControl);
  EXPECT_EQ(capsule.events.back().what, "dump");
}

// The satellite regression: a capsule truncated mid-block (daemon died
// while the dump was in flight, disk filled, ...) must still yield every
// event from the complete blocks, and ScanStats must report the torn tail
// so blackbox.py can report the loss instead of silently merging.
TEST(FlightRec, TornCapsuleYieldsCompleteEventsAndHonestStats) {
  ManualClock clock;
  const std::size_t total =
      Recorder::kEventsPerBlock + 40;  // meta + full block + partial block
  Recorder rec(test_config(&clock, /*capacity=*/2 * total));
  for (std::size_t i = 0; i < total; ++i) {
    rec.state("tick", "n=" + std::to_string(i));
    clock.advance_micros(1);
  }

  const std::string bytes = rec.encode_capsule("torn-test");
  // Sanity: intact stream carries everything.
  {
    auto intact = decode_capsule(bytes);
    ASSERT_TRUE(intact.is_ok());
    ASSERT_EQ(intact->events.size(), total);
  }

  // Cut inside the final block's payload.
  const std::string torn = bytes.substr(0, bytes.size() - 17);
  blockio::ScanStats stats;
  auto decoded = decode_capsule(torn, &stats);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const Capsule& capsule = decoded.value();

  // Every event from the surviving full block, none from the torn one.
  ASSERT_EQ(capsule.events.size(), Recorder::kEventsPerBlock);
  for (std::size_t i = 0; i < capsule.events.size(); ++i) {
    EXPECT_EQ(capsule.events[i].seq, i);
    EXPECT_EQ(capsule.events[i].detail, "n=" + std::to_string(i));
  }
  // The meta header survived intact, so the loss is computable: recorded
  // says how many events existed, events.size() how many were recovered.
  EXPECT_EQ(capsule.recorded, total);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.blocks, 2u);  // meta + first event block
  EXPECT_EQ(stats.resyncs, 0u);

  // Meta block itself torn: nothing decodable, and that is an error (a
  // capsule with no header is indistinguishable from garbage).
  const std::string headless = bytes.substr(0, 10);
  EXPECT_FALSE(decode_capsule(headless).is_ok());
}

TEST(FlightRec, MergeTimelineOrdersCausallyAcrossDaemons) {
  ManualClock clock;

  Config victim_cfg = test_config(&clock);
  victim_cfg.role = "startd";
  victim_cfg.host = "node-3";
  Recorder victim(victim_cfg);

  Config pool_cfg = test_config(&clock);
  pool_cfg.role = "pool";
  pool_cfg.host = "central";
  Recorder pool(pool_cfg);

  Config master_cfg = test_config(&clock);
  master_cfg.role = "master";
  master_cfg.host = "central";
  Recorder master(master_cfg);

  clock.set_micros(100);
  victim.lease("beat", "value=1");
  clock.set_micros(200);
  victim.lease("beat", "value=2");  // the victim's last beat
  clock.set_micros(350);
  pool.lease("expired", "startd@node-3");
  clock.set_micros(400);
  master.state("restart", "daemon=startd@node-3");

  std::vector<Capsule> capsules;
  for (Recorder* rec : {&victim, &pool, &master}) {
    auto decoded = decode_capsule(rec->encode_capsule("test"));
    ASSERT_TRUE(decoded.is_ok());
    capsules.push_back(std::move(decoded.value()));
  }

  const std::vector<TimelineEvent> timeline = merge_timeline(capsules);
  ASSERT_EQ(timeline.size(), 4u);
  // Causal order: the victim's last beat precedes the pool's expiry
  // verdict, which precedes the master's restart.
  EXPECT_EQ(timeline[0].role, "startd");
  EXPECT_EQ(timeline[1].event.detail, "value=2");
  EXPECT_EQ(timeline[2].role, "pool");
  EXPECT_EQ(timeline[2].event.what, "expired");
  EXPECT_EQ(timeline[3].role, "master");
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].event.at_micros, timeline[i].event.at_micros);
  }

  // Equal timestamps: deterministic (role, host, seq) tie-break.
  clock.set_micros(500);
  victim.state("a", "");
  pool.state("b", "");
  capsules.clear();
  for (Recorder* rec : {&pool, &victim}) {  // reversed insertion order
    auto decoded = decode_capsule(rec->encode_capsule("test"));
    ASSERT_TRUE(decoded.is_ok());
    capsules.push_back(std::move(decoded.value()));
  }
  const std::vector<TimelineEvent> tied = merge_timeline(capsules);
  ASSERT_GE(tied.size(), 2u);
  const TimelineEvent& x = tied[tied.size() - 2];
  const TimelineEvent& y = tied[tied.size() - 1];
  ASSERT_EQ(x.event.at_micros, y.event.at_micros);
  EXPECT_EQ(x.role, "pool");     // "pool" < "startd"
  EXPECT_EQ(y.role, "startd");
}

TEST(FlightRec, LogTapMirrorsLinesAboveThreshold) {
  ManualClock clock;
  auto rec = std::make_shared<Recorder>(test_config(&clock));
  register_log_recorder(rec);

  const log::Logger logger("taptest");
  logger.warn("ring buffer nearly full");
  logger.error("claim lost");

  unregister_log_recorder(rec.get());
  logger.warn("after unregister");  // must NOT land in the ring

  const std::vector<Event> events = rec->snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kLog);
  EXPECT_EQ(events[0].what, "taptest");
  EXPECT_EQ(events[0].detail, "ring buffer nearly full");
  EXPECT_EQ(events[1].detail, "claim lost");
}

TEST(FlightRec, LogTapDropsDestroyedRecorders) {
  ManualClock clock;
  {
    auto rec = std::make_shared<Recorder>(test_config(&clock));
    register_log_recorder(rec);
  }  // recorder dies while still registered
  const log::Logger logger("taptest");
  logger.warn("no crash please");  // weak_ptr lapses, line is dropped
  // Reaching here without a crash is the assertion; clean up the lapsed
  // registration by registering and unregistering a fresh recorder.
  auto fresh = std::make_shared<Recorder>(test_config(&clock));
  register_log_recorder(fresh);
  unregister_log_recorder(fresh.get());
}

// TSan-facing: hammer the hot path from several threads while snapshots
// and capsule encodes run concurrently. The shard mutexes are the only
// synchronization; this test exists to let the sanitizer tier prove it.
TEST(FlightRec, ConcurrentRecordSnapshotDump) {
  ManualClock clock;
  Recorder rec(test_config(&clock, /*capacity=*/256, /*shards=*/4));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.state("tick", "t=" + std::to_string(t));
      }
    });
  }
  std::string last_capsule;
  for (int i = 0; i < 50; ++i) {
    (void)rec.snapshot();
    last_capsule = rec.encode_capsule("concurrent");
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  auto decoded = decode_capsule(rec.encode_capsule("final"));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->events.size(), 256u);
}

}  // namespace
}  // namespace tdp::flightrec
