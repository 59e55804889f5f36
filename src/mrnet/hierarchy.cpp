#include "mrnet/hierarchy.hpp"

#include <algorithm>
#include <optional>

#include "attrspace/attr_protocol.hpp"

namespace tdp::mrnet {

namespace {
/// Role in interior summary beat names: tdp.liveness.cassagg.n<node>.
constexpr const char* kSummaryRole = "cassagg";
}  // namespace

HierarchicalCass::HierarchicalCass(HierarchyConfig config)
    : config_(std::move(config)),
      root_monitor_(config_.lease, config_.clock) {}

std::string HierarchicalCass::summary_attr(int node) const {
  return lease::liveness_attr(kSummaryRole, "n" + std::to_string(node));
}

Result<std::unique_ptr<HierarchicalCass>> HierarchicalCass::build(
    const std::vector<std::string>& hosts, HierarchyConfig config) {
  if (hosts.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "hierarchical CASS needs at least one host");
  }
  auto overlay = Overlay::build(static_cast<int>(hosts.size()), config.fanout);
  TDP_RETURN_IF_ERROR(overlay.status());
  // No make_unique: the constructor is private.
  std::unique_ptr<HierarchicalCass> cass(
      new HierarchicalCass(std::move(config)));
  cass->overlay_ = std::move(overlay.value());
  cass->hosts_ = hosts;
  for (int leaf = 0; leaf < static_cast<int>(hosts.size()); ++leaf) {
    const auto [it, inserted] =
        cass->host_leaf_.emplace(hosts[static_cast<std::size_t>(leaf)], leaf);
    if (!inserted) {
      return make_error(ErrorCode::kInvalidArgument,
                        "duplicate host name: " + it->first);
    }
  }

  HierarchicalCass* self = cass.get();
  for (int node : cass->overlay_.interior_nodes()) {
    const std::string attr = cass->summary_attr(node);
    cass->summary_node_[attr] = node;
    auto aggregator = std::make_unique<lease::LeaseAggregator>(
        attr, cass->config_.lease, cass->config_.clock,
        [self, node](const std::string& attribute, const std::string& value) {
          return self->route_summary(node, attribute, value);
        });
    aggregator->on_child_transition(
        [self, node](const std::string& name, lease::Health /*from*/,
                     lease::Health to) {
          if (to != lease::Health::kExpired) return;
          if (self->summary_node_.count(name) != 0) {
            self->pending_dead_summaries_.emplace_back(node, name);
          } else {
            self->pending_expired_hosts_.emplace_back(node, name);
          }
        });
    cass->aggregators_.emplace(node, std::move(aggregator));
  }
  const int root = cass->overlay_.root();
  cass->root_monitor_.on_transition(
      [self, root](const std::string& name, lease::Health /*from*/,
                   lease::Health to) {
        if (to != lease::Health::kExpired) return;
        if (self->summary_node_.count(name) != 0) {
          self->pending_dead_summaries_.emplace_back(root, name);
        } else {
          self->pending_expired_hosts_.emplace_back(root, name);
        }
      });

  // The tree is BORN holding a lease on every member. Without this, a host
  // (or interior node) that goes silent before its first beat reaches its
  // parent is never tracked, so its death is never detected — silence from
  // a never-heard member must be indistinguishable from silence from a
  // known one. Membership is the host list passed here, not "whoever has
  // spoken"; the seed counts as the member's first beat.
  for (int node : cass->overlay_.interior_nodes()) {
    cass->seed_children(node);
  }
  cass->seed_children(root);
  return cass;
}

void HierarchicalCass::seed_children(int observer) {
  lease::LeaseAggregator* aggregator = nullptr;
  if (observer != overlay_.root()) {
    const auto it = aggregators_.find(observer);
    if (it == aggregators_.end()) return;  // dead node: nothing to seed
    aggregator = it->second.get();
  }
  for (int child : overlay_.children(observer)) {
    std::string name;
    if (overlay_.is_leaf(child)) {
      name = hosts_[static_cast<std::size_t>(child)];
    } else {
      // Seeded whether the interior child is alive or dead: a dead child's
      // never-beaten summary lease is the only remaining way its death can
      // be observed (see the re-seed in process_pending).
      name = summary_attr(child);
    }
    if (aggregator != nullptr) {
      aggregator->observe_child(name);
    } else {
      root_monitor_.observe(name);
    }
  }
}

void HierarchicalCass::root_observe(const std::string& name,
                                    const std::string& attribute,
                                    const std::string& value) {
  root_monitor_.observe(name);
  ++root_liveness_writes_;
  if (auto parsed = lease::parse_summary(value); parsed.is_ok()) {
    root_summaries_[name] = parsed.value();
  }
  if (root_write_) root_write_(attribute, value);
}

void HierarchicalCass::observe_host(const std::string& host,
                                    const std::string& value,
                                    const std::string& attribute) {
  const auto it = host_leaf_.find(host);
  if (it == host_leaf_.end()) return;
  const int parent = overlay_.parent(it->second);
  if (parent == overlay_.root()) {
    root_observe(host, attribute.empty() ? host : attribute, value);
    return;
  }
  const auto agg = aggregators_.find(parent);
  if (agg == aggregators_.end()) {
    // The parent comm node is dead and not yet re-parented around: the
    // beat is lost in flight, exactly like a real dead relay.
    ++dropped_beats_;
    return;
  }
  agg->second->observe_child(host);
}

Status HierarchicalCass::route_summary(int from_node,
                                       const std::string& attribute,
                                       const std::string& value) {
  ++summary_publishes_;
  const int parent = overlay_.parent(from_node);
  if (parent == overlay_.root()) {
    root_observe(attribute, attribute, value);
    return Status::ok();
  }
  const auto agg = aggregators_.find(parent);
  if (agg == aggregators_.end()) {
    ++dropped_beats_;
    return Status::ok();  // lost in flight, not an error at the sender
  }
  agg->second->observe_child(attribute);
  return Status::ok();
}

int HierarchicalCass::pump() {
  int transitions = 0;
  // Ascending node id == bottom-up by construction, so a summary freshly
  // published by a child aggregator is observed by its parent in the SAME
  // round — degradation news travels one full path per pump, not one
  // level.
  for (auto& [node, aggregator] : aggregators_) {
    transitions += aggregator->poll();
  }
  transitions += root_monitor_.poll();
  process_pending();
  return transitions;
}

void HierarchicalCass::process_pending() {
  std::vector<std::pair<int, std::string>> hosts;
  hosts.swap(pending_expired_hosts_);
  std::vector<std::pair<int, std::string>> summaries;
  summaries.swap(pending_dead_summaries_);

  for (const auto& [observer, host] : hosts) {
    // Stop tracking before the callback: the callback may revive the host
    // (requeue + restart), and a fresh observe must restart from kAlive.
    if (observer == overlay_.root()) {
      root_monitor_.forget(host);
      root_summaries_.erase(host);
    } else if (const auto it = aggregators_.find(observer);
               it != aggregators_.end()) {
      it->second->remove_child(host);
    }
    ++host_expiries_;
    recorder_->lease("expired", "host=" + host + " observer=" +
                                    std::to_string(observer));
    if (on_host_expired_) on_host_expired_(host);
  }

  for (const auto& [observer, attr] : summaries) {
    const auto node_it = summary_node_.find(attr);
    if (node_it == summary_node_.end()) continue;
    const int dead = node_it->second;
    if (observer == overlay_.root()) {
      root_monitor_.forget(attr);
      root_summaries_.erase(attr);
    } else if (const auto it = aggregators_.find(observer);
               it != aggregators_.end()) {
      it->second->remove_child(attr);
    }
    aggregators_.erase(dead);  // silent death without kill_interior
    if (overlay_.alive(dead)) {
      auto moved = overlay_.kill_node(dead);
      if (moved.is_ok()) {
        ++reparent_events_;
        recorder_->state("reparent",
                         "dead=n" + std::to_string(dead) + " moved=" +
                             std::to_string(moved.value().size()));
        // Seed every promoted child at its new parent, fresh from NOW: the
        // membership-always-tracked invariant must survive re-parenting, or
        // a child that died during the blackout would vanish untracked. A
        // live child's next beat lands well inside the ttl, so the fresh
        // lease can never falsely expire; a dead one is detected ttl+grace
        // from promotion.
        for (int child : moved.value()) {
          const int parent = overlay_.parent(child);
          if (parent < 0) continue;
          std::string name;
          if (overlay_.is_leaf(child)) {
            name = hosts_[static_cast<std::size_t>(child)];
          } else {
            // A DEAD interior child is seeded at the new parent too: the
            // erased aggregator here was the only holder of its summary
            // lease, so this fresh, never-beaten lease is the only way its
            // death can still be observed — it expires ttl+grace after
            // promotion and the child's own kill_node/re-parent runs then.
            // Skipping it would strand its whole subtree when nested
            // interior nodes die within one ttl+grace window (correlated
            // rack failure).
            name = summary_attr(child);
          }
          if (parent == overlay_.root()) {
            root_monitor_.observe(name);
          } else if (const auto agg = aggregators_.find(parent);
                     agg != aggregators_.end()) {
            agg->second->observe_child(name);
          }
          // A dead new parent tracks nothing; when ITS death is detected
          // these children move (and seed) again.
        }
      }
    }
  }
}

Status HierarchicalCass::kill_interior(int node) {
  if (!overlay_.is_interior(node)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "not an interior overlay node");
  }
  if (aggregators_.erase(node) == 0) {
    return make_error(ErrorCode::kInvalidState, "node already dead");
  }
  recorder_->state("kill-interior", "node=n" + std::to_string(node));
  // The overlay edge stays until the node's summary lease expires at its
  // parent: death is DETECTED (lease), never announced.
  return Status::ok();
}

std::vector<int> HierarchicalCass::interior_nodes() const {
  std::vector<int> nodes;
  nodes.reserve(aggregators_.size());
  for (const auto& [node, aggregator] : aggregators_) nodes.push_back(node);
  return nodes;
}

int HierarchicalCass::interior_of(const std::string& host) const {
  const auto it = host_leaf_.find(host);
  if (it == host_leaf_.end()) return -1;
  return overlay_.parent(it->second);
}

lease::Health HierarchicalCass::host_health(const std::string& host) const {
  const auto it = host_leaf_.find(host);
  if (it == host_leaf_.end()) return lease::Health::kExpired;
  const int parent = overlay_.parent(it->second);
  if (parent == overlay_.root()) {
    return root_monitor_.tracked(host) ? root_monitor_.health(host)
                                       : lease::Health::kExpired;
  }
  const auto agg = aggregators_.find(parent);
  if (agg == aggregators_.end() || !agg->second->tracks(host)) {
    return lease::Health::kExpired;
  }
  return agg->second->child_health(host);
}

Micros HierarchicalCass::host_last_beat(const std::string& host) const {
  const auto it = host_leaf_.find(host);
  if (it == host_leaf_.end()) return -1;
  const int parent = overlay_.parent(it->second);
  if (parent == overlay_.root()) {
    return root_monitor_.tracked(host) ? root_monitor_.last_beat(host) : -1;
  }
  const auto agg = aggregators_.find(parent);
  if (agg == aggregators_.end()) return -1;
  return agg->second->child_last_beat(host);
}

void HierarchicalCass::carry_host_beat(const std::string& host, Micros at) {
  const auto it = host_leaf_.find(host);
  if (it == host_leaf_.end()) return;
  const int parent = overlay_.parent(it->second);
  if (parent == overlay_.root()) {
    if (at < 0) {
      root_monitor_.forget(host);
      root_summaries_.erase(host);
    } else {
      root_monitor_.observe_at(host, at);
    }
    return;
  }
  const auto agg = aggregators_.find(parent);
  if (agg == aggregators_.end()) return;
  if (at < 0) {
    agg->second->remove_child(host);
  } else {
    agg->second->observe_child_at(host, at);
  }
}

lease::Summary HierarchicalCass::root_counts() const {
  lease::Summary folded;
  for (const auto& [attr, summary] : root_summaries_) {
    folded.alive += summary.alive;
    folded.degraded += summary.degraded;
    folded.expired += summary.expired;
    folded.total += summary.total;
  }
  // Leaf hosts beating directly at the root (pools <= fanout) have no
  // summary value; count them by lease freshness.
  for (const auto& [host, leaf] : host_leaf_) {
    if (overlay_.parent(leaf) != overlay_.root()) continue;
    if (!root_monitor_.tracked(host)) continue;
    switch (root_monitor_.health(host)) {
      case lease::Health::kAlive: ++folded.alive; break;
      case lease::Health::kDegraded: ++folded.degraded; break;
      case lease::Health::kExpired: ++folded.expired; break;
    }
    ++folded.total;
  }
  return folded;
}

int HierarchicalCass::rollup_telemetry(
    const std::map<std::string, attr::TelemetryRollup>& per_host,
    const std::string& scope) {
  // Fold bottom-up: ascending interior ids guarantee children are merged
  // before their parent reads them. A dead (no-aggregator) interior node
  // contributes nothing — its subtree's telemetry is lost with its beats.
  std::map<int, attr::TelemetryRollup> per_node;
  auto leaf_contribution = [&](int leaf) -> const attr::TelemetryRollup* {
    const auto it = per_host.find(hosts_[static_cast<std::size_t>(leaf)]);
    return it == per_host.end() ? nullptr : &it->second;
  };
  auto fold_children = [&](int node, attr::TelemetryRollup* out) {
    for (int child : overlay_.children(node)) {
      if (overlay_.is_leaf(child)) {
        if (const attr::TelemetryRollup* rollup = leaf_contribution(child)) {
          out->merge(*rollup);
        }
      } else if (aggregators_.count(child) != 0) {
        out->merge(per_node[child]);
      }
    }
  };
  for (const auto& [node, aggregator] : aggregators_) {
    fold_children(node, &per_node[node]);
  }
  attr::TelemetryRollup root_rollup;
  fold_children(overlay_.root(), &root_rollup);

  const std::string prefix =
      std::string(attr::kTelemetryPrefix) + "rollup." + scope + ".";
  int written = 0;
  for (const auto& [attribute, value] : root_rollup.flatten(prefix)) {
    ++root_telemetry_writes_;
    ++written;
    if (root_write_) root_write_(attribute, value);
  }
  return written;
}

Status HierarchicalCass::set_health_rules(const std::vector<std::string>& rules) {
  std::vector<health::Rule> parsed;
  parsed.reserve(rules.size());
  for (const std::string& text : rules) {
    auto rule = health::parse_rule(text);
    TDP_RETURN_IF_ERROR(rule.status());
    parsed.push_back(std::move(rule.value()));
  }
  health_rules_ = std::move(parsed);
  // Engines hold rules by value, so a new rule set retires every engine;
  // rate windows restart (a rule change redefines what the rate means).
  health_engines_.clear();
  return Status::ok();
}

void HierarchicalCass::carry_health_from(HierarchicalCass& previous) {
  for (auto& [host, engine] : previous.health_engines_) {
    if (member(host)) health_engines_[host] = std::move(engine);
  }
  previous.health_engines_.clear();
  last_health_fold_ = previous.last_health_fold_;
}

int HierarchicalCass::rollup_health(
    const std::map<std::string, std::vector<telemetry::Sample>>& per_host,
    const std::string& role) {
  // Same fold shape as rollup_telemetry — ascending interior ids, dead
  // subtrees lost — but the payload is (severity, per-host verdicts) and
  // the merge operator is health::fold (worst wins). The full rule
  // evaluation happens once per host, at its current observer; only the
  // verdict travels upward.
  struct NodeFold {
    health::Severity severity = health::Severity::kOk;
    std::vector<std::pair<std::string, health::Report>> reports;
  };
  const Micros now = config_.clock->now_micros();
  auto evaluate_host =
      [&](const std::string& host) -> std::optional<health::Report> {
    const auto samples = per_host.find(host);
    if (samples == per_host.end()) return std::nullopt;
    std::unique_ptr<health::Engine>& engine = health_engines_[host];
    if (!engine) {
      engine = std::make_unique<health::Engine>();
      for (const health::Rule& rule : health_rules_) engine->add_rule(rule);
    }
    return engine->evaluate(samples->second, now);
  };
  std::map<int, NodeFold> per_node;
  auto fold_children = [&](int node, NodeFold* out) {
    for (int child : overlay_.children(node)) {
      if (overlay_.is_leaf(child)) {
        const std::string& host = hosts_[static_cast<std::size_t>(child)];
        if (auto report = evaluate_host(host)) {
          out->severity = health::fold(out->severity, report->severity);
          out->reports.emplace_back(host, std::move(*report));
        }
      } else if (aggregators_.count(child) != 0) {
        NodeFold& sub = per_node[child];
        out->severity = health::fold(out->severity, sub.severity);
        for (auto& entry : sub.reports) out->reports.push_back(std::move(entry));
      }
    }
  };
  for (const auto& [node, aggregator] : aggregators_) {
    fold_children(node, &per_node[node]);
  }
  NodeFold root_fold;
  fold_children(overlay_.root(), &root_fold);
  last_health_fold_ = root_fold.severity;

  int written = 0;
  auto write = [&](const std::string& attribute, const std::string& value) {
    ++root_health_writes_;
    ++written;
    if (root_write_) root_write_(attribute, value);
  };
  for (const auto& [host, report] : root_fold.reports) {
    write(health::health_attr(role, host),
          report.encode());  // NOLINT: health report text, not a Message codec
  }
  write(std::string(health::kHealthPrefix) + role,
        health::severity_name(root_fold.severity));
  return written;
}

}  // namespace tdp::mrnet
