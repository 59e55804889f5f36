// hierarchy.hpp - the hierarchical CASS (PR 7).
//
// Pointing every daemon's heartbeat at one central attrspace lands
// O(hosts) writes on the root, which caps pool size. Here the mrnet overlay
// carries liveness instead: each interior comm node runs a
// lease::LeaseAggregator over its children and publishes ONE summarized
// beat upward, so the root sees O(fanout) writes regardless of host count.
// Telemetry folds the same way (attr::TelemetryRollup per subtree, merged
// bottom-up, flattened once at the root). With fanout >= hosts the tree is
// one level deep: every leaf hangs off the root, whose lease monitor
// watches each host directly — the flat topology is this tree's degenerate
// case, not a separate path.
//
// Fault model (mirrors MPD's tree of process managers):
//   - membership: build() seeds a lease on EVERY member at every level, so
//     the tree is born tracking its full host list. A member that dies
//     before its first beat is still detected ttl+grace after build —
//     silence from a never-heard member must not differ from silence from
//     a known one.
//   - leaf (host) death: its beats stop, its parent aggregator's lease
//     expires, the expiry bubbles up as a degraded-subtree summary, and
//     on_host_expired fires at the root (Pool reuses its PR 5 requeue
//     path).
//   - interior node death (kill_interior): the node stops polling and
//     publishing; beats from its children are LOST while it is down (real
//     network semantics). Its own summary lease at its parent expires,
//     which triggers re-parenting: the children promote to the nearest
//     live ancestor and are seeded there fresh from the promotion instant
//     — a live child's next beat lands well inside the ttl (no false
//     expiry), a child that died during the blackout expires ttl+grace
//     after promotion (no lost member).
//
// Not thread-safe: drive observe_host/pump from one thread (the Pool pump
// loop or the sim engine). Internal monitors keep their own leaf locks and
// fire callbacks outside them, same discipline as PR 5.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attrspace/telemetry_export.hpp"
#include "mrnet/overlay.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/health.hpp"
#include "util/lease.hpp"
#include "util/lease_agg.hpp"
#include "util/status.hpp"

namespace tdp::mrnet {

struct HierarchyConfig {
  /// Overlay fanout (>= 2): the root holds at most this many leases.
  int fanout = 8;
  /// Lease timing shared by hosts and interior summaries.
  lease::Config lease;
  const Clock* clock = &RealClock::instance();
};

class HierarchicalCass {
 public:
  /// Fired (outside all locks) when a host's lease expires at whichever
  /// aggregation level holds it.
  using HostExpiredFn = std::function<void(const std::string& host)>;
  /// Optional sink for everything that reaches the root (summary beats,
  /// direct leaf beats in tiny pools, telemetry rollups) — normally the
  /// root AttributeStore. A direct leaf beat arrives under the attribute
  /// its host published it as (see observe_host).
  using RootWriteFn = std::function<void(const std::string& attribute,
                                         const std::string& value)>;

  static Result<std::unique_ptr<HierarchicalCass>> build(
      const std::vector<std::string>& hosts, HierarchyConfig config);

  void on_host_expired(HostExpiredFn fn) { on_host_expired_ = std::move(fn); }
  void set_root_write(RootWriteFn fn) { root_write_ = std::move(fn); }

  /// One beat from `host` (a name passed to build), published as
  /// `attribute` (empty: the host name). Routed to the host leaf's current
  /// parent; lost (counted) if that parent is dead and not yet re-parented
  /// around. A beat whose parent is the root reaches the RootWriteFn under
  /// `attribute`; every monitor keys the lease by host.
  void observe_host(const std::string& host, const std::string& value = "",
                    const std::string& attribute = "");

  /// One aggregation round: polls every interior aggregator bottom-up
  /// (summaries published upward as they become due), polls the root
  /// monitor, then processes expiries (host expiry callbacks, dead-subtree
  /// re-parenting). Returns lease transitions observed this round.
  int pump();

  /// Kills an interior comm node (the chaos tier's new scenario). Its
  /// children's beats are lost until the node's own summary lease expires
  /// at the parent and re-parenting runs in pump().
  Status kill_interior(int node);

  /// Live interior node ids (ascending = bottom-up by level).
  [[nodiscard]] std::vector<int> interior_nodes() const;
  /// The interior node currently holding `host`'s lease (the overlay
  /// parent of its leaf; == root() for pools no larger than the fanout).
  [[nodiscard]] int interior_of(const std::string& host) const;
  [[nodiscard]] int root() const { return overlay_.root(); }
  [[nodiscard]] const Overlay& overlay() const { return overlay_; }

  /// Health of `host`'s lease at its current aggregation level; kExpired
  /// if nothing currently tracks it (e.g. mid re-parent, before its first
  /// beat reaches the new parent).
  [[nodiscard]] lease::Health host_health(const std::string& host) const;

  /// True if `host` was in the host list this tree was built over.
  [[nodiscard]] bool member(const std::string& host) const {
    return host_leaf_.count(host) != 0;
  }

  /// Clock reading of `host`'s last recorded beat at its current observer,
  /// or -1 if nothing tracks it (death already detected, or the observer
  /// itself is dead).
  [[nodiscard]] Micros host_last_beat(const std::string& host) const;

  /// Transplants `host`'s lease state from a previous tree after a pool
  /// rebuild: `at >= 0` re-dates the seeded lease to that beat time so the
  /// in-flight detection deadline survives the topology change; `at < 0`
  /// untracks the host so an already-detected death is not re-detected
  /// (the next observed beat re-arms tracking).
  void carry_host_beat(const std::string& host, Micros at);

  /// Pool-wide counts folded from the last summary each root child
  /// reported (leaf children of the root count via their lease directly).
  [[nodiscard]] lease::Summary root_counts() const;

  /// Folds per-host rollups bottom-up over the overlay and writes the
  /// root result through the RootWriteFn under
  /// "tdp.telemetry.rollup.<scope>.". Subtrees under a dead, not-yet-
  /// re-parented interior node are lost, like their beats. Returns
  /// attributes written at the root.
  int rollup_telemetry(
      const std::map<std::string, attr::TelemetryRollup>& per_host,
      const std::string& scope);

  // --- black-box flight recorder + health engine (PR 9) ---

  /// Attaches the tree's flight recorder: interior kills, re-parenting
  /// and host lease expiries land in its ring (recorded outside every
  /// tree/monitor structure, so the recorder's shard mutex stays a leaf).
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

  /// Installs the declarative rule set (util/health.hpp grammar) that
  /// rollup_health evaluates at each host's observer. All-or-nothing:
  /// the first parse error is returned and the previous set is kept.
  Status set_health_rules(const std::vector<std::string>& rules);

  /// Moves every member host's health engine (and with it its rate
  /// windows) plus the last fold from a previous tree after a pool
  /// rebuild, so growth does not restart a rate rule's interval. Call
  /// after set_health_rules with the rule set `previous` ran: the carried
  /// engines keep evaluating the rules they were built with.
  void carry_health_from(HierarchicalCass& previous);

  /// The health twin of rollup_telemetry: each host's rules run at its
  /// current interior observer, then only folded severities (worst wins)
  /// travel upward. The root writes one tdp.health.<role>.<host> verdict
  /// per host that reached it plus the overall tdp.health.<role> fold.
  /// Hosts under a dead, not-yet-re-parented interior are lost, like
  /// their beats. Rate state is keyed by host, so a re-parent moves the
  /// evaluation point without resetting rate windows. Returns attributes
  /// written at the root.
  int rollup_health(
      const std::map<std::string, std::vector<telemetry::Sample>>& per_host,
      const std::string& role);

  // Stats (the scale tier's assertions).
  [[nodiscard]] std::uint64_t root_liveness_writes() const {
    return root_liveness_writes_;
  }
  [[nodiscard]] std::uint64_t root_telemetry_writes() const {
    return root_telemetry_writes_;
  }
  [[nodiscard]] std::uint64_t summary_publishes() const {
    return summary_publishes_;
  }
  [[nodiscard]] std::uint64_t dropped_beats() const { return dropped_beats_; }
  [[nodiscard]] std::uint64_t reparent_events() const {
    return reparent_events_;
  }
  [[nodiscard]] std::uint64_t host_expiries() const { return host_expiries_; }
  [[nodiscard]] std::uint64_t root_health_writes() const {
    return root_health_writes_;
  }
  /// The overall severity the last rollup_health folded at the root
  /// (kOk before any rollup). The pool feeds this to the schedd's
  /// front door so brownout decisions follow the tree's verdict.
  [[nodiscard]] health::Severity last_health_fold() const {
    return last_health_fold_;
  }

 private:
  explicit HierarchicalCass(HierarchyConfig config);

  [[nodiscard]] std::string summary_attr(int node) const;
  /// Starts lease tracking for every live child of `observer` (build time,
  /// and re-applied to promoted children after re-parenting): the
  /// membership invariant is that every live member is tracked SOMEWHERE
  /// at all times, so even a member that never beats is detected.
  void seed_children(int observer);
  Status route_summary(int from_node, const std::string& attribute,
                       const std::string& value);
  /// One beat at the root: the lease is keyed by `name`, the RootWriteFn
  /// sees it as `attribute`.
  void root_observe(const std::string& name, const std::string& attribute,
                    const std::string& value);
  void process_pending();

  HierarchyConfig config_;
  Overlay overlay_;
  std::vector<std::string> hosts_;
  std::map<std::string, int> host_leaf_;
  std::map<std::string, int> summary_node_;

  /// One aggregator per live interior node; erased on kill_interior (a
  /// dead node neither polls nor publishes).
  std::map<int, std::unique_ptr<lease::LeaseAggregator>> aggregators_;
  lease::LeaseMonitor root_monitor_;
  /// Last summary value seen per root child (for root_counts()).
  std::map<std::string, lease::Summary> root_summaries_;

  HostExpiredFn on_host_expired_;
  RootWriteFn root_write_;

  /// Filled by lease transition callbacks during pump(), drained by
  /// process_pending(): (observing node, expired child name).
  std::vector<std::pair<int, std::string>> pending_expired_hosts_;
  std::vector<std::pair<int, std::string>> pending_dead_summaries_;

  std::uint64_t root_liveness_writes_ = 0;
  std::uint64_t root_telemetry_writes_ = 0;
  std::uint64_t summary_publishes_ = 0;
  std::uint64_t dropped_beats_ = 0;
  std::uint64_t reparent_events_ = 0;
  std::uint64_t host_expiries_ = 0;
  std::uint64_t root_health_writes_ = 0;

  /// PR 9: the tree's flight recorder and the per-host health engines
  /// rollup_health drives (engines hold the rate windows, hence per host
  /// and not per observer node).
  std::shared_ptr<flightrec::Recorder> recorder_ =
      flightrec::Recorder::disabled();
  std::vector<health::Rule> health_rules_;
  std::map<std::string, std::unique_ptr<health::Engine>> health_engines_;
  health::Severity last_health_fold_ = health::Severity::kOk;
};

}  // namespace tdp::mrnet
