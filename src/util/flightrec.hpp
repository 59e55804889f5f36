// flightrec.hpp - the per-daemon black-box flight recorder (PR 9).
//
// PR 5's kill matrix proves the pool *recovers* from daemon deaths; this
// module makes them *explainable*. Every daemon keeps a fixed-size,
// lock-sharded in-memory ring of structured events — log lines at/above a
// threshold, span completions from the PR 4 Tracer, daemon state
// transitions, fault injections, lease transitions, journal replay stats —
// recorded with a relaxed-atomic sequence on the hot path and one short
// leaf-lock critical section per event. The ring is bounded: old events
// are overwritten, never allocated past capacity, so the recorder is safe
// to leave on in production (bench/bench_flightrec.cpp holds the steady-
// state overhead under 5%).
//
// When a daemon dies the ring becomes evidence. Three triggers dump it as
// a *capsule* — a compressed, CRC-checked util/blockio stream:
//   * the daemon itself crashes and its holder still has the recorder
//     (the chaos tier's ownership model: like PR 5 claim journals, the
//     recorder is a shared_ptr owned by the supervisor side, so it
//     survives kill -9 of the daemon object);
//   * the peer that *detects* the death (master / starter / pool lease
//     monitor) dumps the dead daemon's last-known ring on lease expiry;
//   * an operator pokes tdp.control.blackbox.<role>.<host> in the
//     attribute space.
// scripts/blackbox.py merges capsules from multiple daemons into one
// causally-ordered timeline keyed on trace ids; merge_timeline() is the
// same operation in-process for tests.
//
// Locking: Recorder shard mutexes are strict leaves (DESIGN.md §10) — the
// record path never calls out, and capsule encode/dump performs file I/O
// strictly OUTSIDE the shard locks (snapshot first, then serialize), the
// same idiom the PR 5 durability path uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace tdp::blockio {
struct ScanStats;
}  // namespace tdp::blockio

namespace tdp::journal {
struct ReplayStats;
}  // namespace tdp::journal

namespace tdp::telemetry {
struct SpanRecord;
}  // namespace tdp::telemetry

namespace tdp::flightrec {

/// Attribute an operator puts to request a capsule dump:
/// tdp.control.blackbox.<role>.<host> = <reason>. The holder of the
/// recorder subscribes and answers with a dump.
inline constexpr std::string_view kControlPrefix = "tdp.control.blackbox.";
[[nodiscard]] std::string control_attr(std::string_view role,
                                       std::string_view host);

/// What happened. Values are wire format (capsules on disk name them via
/// kind_name); renumbering breaks archived capsules.
enum class EventKind : std::uint8_t {
  kLog = 0,     ///< a log line at/above the recorder's threshold
  kSpan = 1,    ///< a finished Tracer span (what=name, detail=duration)
  kState = 2,   ///< daemon lifecycle transition (start, crash, recover...)
  kFault = 3,   ///< injected network fault (net/faulty.hpp observer)
  kLease = 4,   ///< lease activity: beat, degraded, expired
  kReplay = 5,  ///< journal replay stats after a recovery
  kControl = 6, ///< capsule trigger bookkeeping (operator poke, dump)
};

[[nodiscard]] const char* kind_name(EventKind kind) noexcept;
/// Reverse of kind_name; kInvalidArgument on unknown names.
Result<EventKind> parse_kind(std::string_view name);

/// One ring entry. `seq` is the recorder-wide record order (gaps mean the
/// ring overwrote); trace/span ids key the cross-daemon merge.
struct Event {
  EventKind kind = EventKind::kLog;
  std::uint8_t severity = 0;  ///< log::Level for kLog events, else 0
  std::uint64_t seq = 0;
  Micros at_micros = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::string what;    ///< short tag: component, span name, "beat", ...
  std::string detail;  ///< free-form payload
};

struct Config {
  std::string role;  ///< daemon role: "startd", "schedd", "paradynd", ...
  std::string host;  ///< machine the daemon runs on
  /// Total ring capacity (events), split across shards. Old events are
  /// overwritten once a shard's slice is full.
  std::size_t capacity = 4096;
  std::size_t shards = 4;
  /// kLog events below this level are dropped at the door.
  log::Level log_threshold = log::Level::kWarn;
  /// Time source for event stamps; null = RealClock (sim runs inject).
  const Clock* clock = nullptr;
};

/// A decoded capsule: the dump header plus every event that survived.
struct Capsule {
  std::string role;
  std::string host;
  std::string reason;       ///< dump trigger ("crash", "lease-expired", ...)
  Micros dumped_at = 0;
  std::uint64_t recorded = 0;     ///< events ever recorded at dump time
  std::uint64_t overwritten = 0;  ///< of those, lost to ring wrap
  std::vector<Event> events;      ///< ascending seq
};

/// One merged-timeline entry: an event plus which daemon said it.
struct TimelineEvent {
  std::string role;
  std::string host;
  Event event;
};

class Recorder {
 public:
  explicit Recorder(Config config);

  /// The one shared recorder a daemon holds while recording is off. It has
  /// no ring: record() and the typed helpers return before building
  /// anything, set_enabled() cannot turn it on, and dump() refuses.
  static std::shared_ptr<Recorder> disabled();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] const std::string& role() const noexcept {
    return config_.role;
  }
  [[nodiscard]] const std::string& host() const noexcept {
    return config_.host;
  }

  /// Master switch for the overhead bench; disabled record() returns
  /// before touching the sequence counter. A recorder without a ring
  /// (disabled()) stays off.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled && !shards_.empty(), std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The core hot path: stamps, sequences (one relaxed fetch_add), and
  /// stores the event in its shard's ring slot under that shard's leaf
  /// mutex. Never allocates beyond the strings it is handed, never calls
  /// out, never takes two locks.
  void record(EventKind kind, std::string what, std::string detail,
              std::uint64_t trace_id = 0, std::uint64_t span_id = 0,
              std::uint8_t severity = 0);

  // Typed conveniences over record() — one per event source.
  void log_event(log::Level level, std::string_view component,
                 std::string_view message);
  void state(std::string_view transition, std::string_view detail,
             std::uint64_t trace_id = 0, std::uint64_t span_id = 0);
  void fault(std::string_view kind, std::string_view detail);
  void lease(std::string_view what, std::string_view detail);
  void span(const telemetry::SpanRecord& rec);
  void replay(std::string_view source, const journal::ReplayStats& stats);

  /// Events ever recorded / lost to ring overwrite (relaxed counters).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overwritten() const noexcept;

  /// Every event currently in the ring, ascending seq. Locks shards one
  /// at a time (never two locks at once); the result is advisory across
  /// shards, exact within each, like Registry::snapshot().
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Serializes the current ring as a capsule byte stream: a meta block
  /// followed by event blocks (kEventsPerBlock events each), every block
  /// compressed + CRC-guarded by util/blockio. Snapshot happens under the
  /// shard locks, serialization and any I/O strictly after.
  [[nodiscard]] std::string encode_capsule(std::string_view reason) const;

  /// encode_capsule + atomic-ish file write (whole capsule in one stream).
  /// Records a kControl event ("dump", path) in the ring first so the
  /// capsule itself shows why it exists. kInvalidState without a ring.
  Status dump(const std::string& path, std::string_view reason);

  /// Events per capsule block: small enough that a torn tail costs a
  /// bounded slice, big enough that the block framing amortizes.
  static constexpr std::size_t kEventsPerBlock = 256;

 private:
  struct Shard {
    mutable Mutex mutex{"flightrec::Recorder::Shard::mutex"};
    std::vector<Event> ring TDP_GUARDED_BY(mutex);  ///< fixed size, wraps
    std::uint64_t written TDP_GUARDED_BY(mutex) = 0;
  };

  Recorder();  ///< the ringless disabled() instance

  [[nodiscard]] Micros now() const noexcept;

  Config config_;
  std::size_t per_shard_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Decodes a capsule byte stream. Damaged regions resync via the block
/// sync marker; a capsule truncated mid-block still yields every complete
/// event, with `stats` (optional) reporting blocks, resyncs, skipped bytes
/// and the torn tail so a reader can account for loss instead of silently
/// merging. kInvalidArgument when the stream does not start with a capsule
/// meta block.
Result<Capsule> decode_capsule(std::string_view bytes,
                               blockio::ScanStats* stats = nullptr);

/// Reads and decodes a capsule file.
Result<Capsule> read_capsule(const std::string& path,
                             blockio::ScanStats* stats = nullptr);

/// Merges capsules from multiple daemons into one causally-ordered
/// timeline: ascending event time, ties broken by (role, host, seq) so the
/// order is deterministic. The in-process twin of scripts/blackbox.py.
std::vector<TimelineEvent> merge_timeline(const std::vector<Capsule>& capsules);

/// Registers `recorder` to receive every log line at/above its threshold
/// (via log::set_observer; all registered recorders see all lines — in a
/// multi-daemon process the component tag disambiguates). Weak reference:
/// a destroyed recorder just stops receiving. unregister to stop early.
void register_log_recorder(const std::shared_ptr<Recorder>& recorder);
void unregister_log_recorder(const Recorder* recorder);

}  // namespace tdp::flightrec
