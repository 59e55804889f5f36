#include "condor/master.hpp"

#include <algorithm>
#include <utility>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::condor {

namespace {
const log::Logger kLog("master");
}

Master::Master() : Master(Policy{}) {}

Master::Master(Policy policy) : policy_(policy), jitter_(policy.jitter_seed) {}

void Master::set_policy(Policy policy) {
  LockGuard lock(mutex_);
  policy_ = policy;
  jitter_.reseed(policy.jitter_seed);
}

void Master::set_clock(const Clock* clock) {
  clock_.store(clock != nullptr ? clock : &RealClock::instance(),
               std::memory_order_relaxed);
}

void Master::supervise(const std::string& name, AliveProbe alive,
                       RestartAction restart) {
  LockGuard lock(mutex_);
  Entry& entry = daemons_[name];
  entry = Entry{};
  entry.alive = std::move(alive);
  entry.restart = std::move(restart);
}

void Master::forget(const std::string& name) {
  LockGuard lock(mutex_);
  daemons_.erase(name);
}

Micros Master::backoff_micros(int attempts) {
  // attempts = consecutive attempts already made; the delay separates
  // attempt N from attempt N+1 and doubles per attempt, capped.
  //
  // Overflow audit (PR 10): unlike the shift form fixed in
  // attr::backoff_delay_ms, this bounded doubling loop stops as soon as
  // delay_ms reaches max_backoff_ms, so a huge attempt count can at most
  // double a below-cap value once — no shift-past-width UB, no int64
  // overflow for any sane policy (max_backoff_ms < 2^62 ms).
  std::int64_t delay_ms = policy_.base_backoff_ms;
  for (int i = 1; i < attempts && delay_ms < policy_.max_backoff_ms; ++i) {
    delay_ms *= 2;
  }
  delay_ms = std::min<std::int64_t>(delay_ms, policy_.max_backoff_ms);
  const Micros delay = delay_ms * 1'000;
  if (delay <= 0) return 0;
  // +/-50% decorrelation jitter so a pool of masters does not restart a
  // fleet in lockstep.
  return delay / 2 + static_cast<Micros>(
                         jitter_.next_below(static_cast<std::uint64_t>(delay) + 1));
}

std::vector<std::string> Master::tick() {
  static telemetry::Counter& restart_counter =
      telemetry::Registry::instance().counter("master.restarts");
  static telemetry::Counter& failed_counter =
      telemetry::Registry::instance().counter("master.failed_restarts");
  static telemetry::Counter& circuit_counter =
      telemetry::Registry::instance().counter("master.circuit_open");

  // Snapshot under the lock, probe/restart outside it: probes may take
  // arbitrary time and restart actions may re-enter the master.
  struct Work {
    std::string name;
    AliveProbe alive;
    RestartAction restart;
  };
  std::vector<Work> work;
  {
    LockGuard lock(mutex_);
    ++stats_.ticks;
    work.reserve(daemons_.size());
    for (const auto& [name, entry] : daemons_) {
      work.push_back({name, entry.alive, entry.restart});
    }
  }

  std::vector<std::string> restarted;
  for (const Work& item : work) {
    const bool alive = item.alive && item.alive();
    bool attempt = false;
    bool announce_halt = false;
    {
      LockGuard lock(mutex_);
      auto it = daemons_.find(item.name);
      if (it == daemons_.end()) continue;  // forgotten mid-tick
      Entry& entry = it->second;
      if (alive) {
        // An alive probe closes the breaker and resets the backoff ladder.
        entry.attempts_since_alive = 0;
        entry.next_attempt_micros = 0;
        entry.halted = false;
        continue;
      }
      if (entry.halted) continue;
      if (entry.attempts_since_alive >= policy_.restart_budget) {
        entry.halted = true;
        ++stats_.circuit_breaks;
        announce_halt = true;
      } else {
        const Micros now =
            clock_.load(std::memory_order_relaxed)->now_micros();
        attempt = now >= entry.next_attempt_micros;
      }
    }
    if (announce_halt) {
      // Terminal condition: surface it loudly once and stop burning
      // restarts; an operator (or a probe that comes back alive) resets.
      circuit_counter.inc();
      kLog.error("daemon '", item.name, "' exhausted its restart budget; ",
                 "circuit breaker open (reset() or a live probe closes it)");
      recorder_->state("circuit-open", "daemon=" + item.name);
      continue;
    }
    if (!attempt) continue;  // dead, but inside its backoff window

    kLog.warn("daemon '", item.name, "' dead; restarting");
    bool ok = false;
    {
      telemetry::Span span("master.restart", "master");
      ok = item.restart && item.restart();
    }
    {
      LockGuard lock(mutex_);
      auto it = daemons_.find(item.name);
      if (it == daemons_.end()) continue;
      Entry& entry = it->second;
      ++entry.attempts_since_alive;
      entry.next_attempt_micros =
          clock_.load(std::memory_order_relaxed)->now_micros() +
          backoff_micros(entry.attempts_since_alive);
      if (ok) {
        ++stats_.restarts;
        ++entry.restarts;
        restart_counter.inc();
        restarted.push_back(item.name);
      } else {
        ++stats_.failed_restarts;
        failed_counter.inc();
      }
    }
    recorder_->state(ok ? "restart" : "restart-failed",
                     "daemon=" + item.name);
  }
  return restarted;
}

Master::DaemonHealth Master::health(const std::string& name) const {
  LockGuard lock(mutex_);
  auto it = daemons_.find(name);
  if (it == daemons_.end()) return DaemonHealth::kUnknown;
  if (it->second.halted) return DaemonHealth::kHalted;
  if (it->second.attempts_since_alive > 0) return DaemonHealth::kRestarting;
  return DaemonHealth::kHealthy;
}

std::uint64_t Master::restart_count(const std::string& name) const {
  LockGuard lock(mutex_);
  auto it = daemons_.find(name);
  return it == daemons_.end() ? 0 : it->second.restarts;
}

void Master::reset(const std::string& name) {
  LockGuard lock(mutex_);
  auto it = daemons_.find(name);
  if (it == daemons_.end()) return;
  it->second.attempts_since_alive = 0;
  it->second.next_attempt_micros = 0;
  it->second.halted = false;
}

std::size_t Master::supervised_count() const {
  LockGuard lock(mutex_);
  return daemons_.size();
}

Master::Stats Master::stats() const {
  LockGuard lock(mutex_);
  return stats_;
}

}  // namespace tdp::condor
