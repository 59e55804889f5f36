// master.hpp - condor_master: "present on both local and remote nodes; its
// job is to keep track of the other Condor daemons" (Section 4.1). Since
// PR 5 this is a real supervisor, not just a probe loop: daemons register a
// liveness probe and a restart action; tick() restarts whatever died with
// exponential backoff + jitter between consecutive attempts, and a
// restart-budget circuit breaker halts a crash-looping daemon instead of
// spinning (the terminal condition surfaces as telemetry counter
// master.circuit_open plus DaemonHealth::kHalted). The first restart after
// a death is immediate - backoff only separates repeated attempts for a
// daemon that stays dead.
//
// All time flows through a tdp::Clock so backoff windows are deterministic
// under ManualClock in tests; jitter comes from a seeded Rng for the same
// reason.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace tdp::condor {

class Master {
 public:
  using AliveProbe = std::function<bool()>;
  using RestartAction = std::function<bool()>;  ///< returns restart success

  struct Policy {
    /// Delay before the second consecutive restart attempt; doubles per
    /// attempt up to max_backoff_ms. The first attempt is always immediate.
    int base_backoff_ms = 10;
    int max_backoff_ms = 1'000;
    /// Consecutive restart attempts (without an alive probe in between)
    /// after which the circuit breaker halts the daemon.
    int restart_budget = 5;
    /// Seed for the backoff jitter (deterministic chaos runs).
    std::uint64_t jitter_seed = 0x7d05;
  };

  enum class DaemonHealth : std::uint8_t {
    kHealthy,     ///< last probe alive, no recovery in progress
    kRestarting,  ///< dead; restart attempts under way (possibly in backoff)
    kHalted,      ///< circuit breaker open: budget exhausted
    kUnknown,     ///< not supervised
  };

  Master();
  explicit Master(Policy policy);

  void set_policy(Policy policy);
  /// Clock used for backoff scheduling; must outlive the master.
  void set_clock(const Clock* clock);

  /// Registers a daemon under `name`; replaces any existing registration
  /// (and clears its recovery state).
  void supervise(const std::string& name, AliveProbe alive, RestartAction restart);

  void forget(const std::string& name);

  /// Probes every daemon and restarts the dead ones (subject to backoff and
  /// the restart budget). Returns the names restarted this tick (empty =
  /// all healthy or all waiting).
  std::vector<std::string> tick();

  [[nodiscard]] DaemonHealth health(const std::string& name) const;
  /// Successful restarts of `name` since supervision began.
  [[nodiscard]] std::uint64_t restart_count(const std::string& name) const;
  /// Manual operator override: closes the breaker and clears backoff so the
  /// next tick may attempt a restart again.
  void reset(const std::string& name);

  [[nodiscard]] std::size_t supervised_count() const;

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t restarts = 0;
    std::uint64_t failed_restarts = 0;
    std::uint64_t circuit_breaks = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Attaches the master's flight recorder (PR 9): restart outcomes and
  /// circuit-breaker trips land in the ring. Set once at creation, before
  /// concurrent ticks; recorded into outside mutex_.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  struct Entry {
    AliveProbe alive;
    RestartAction restart;
    /// Restart attempts since the daemon was last probed alive.
    int attempts_since_alive = 0;
    Micros next_attempt_micros = 0;
    std::uint64_t restarts = 0;
    bool halted = false;
  };

  /// Backoff before attempt number `attempts`+1, with +/-50% jitter.
  [[nodiscard]] Micros backoff_micros(int attempts) TDP_REQUIRES(mutex_);

  mutable Mutex mutex_{"Master::mutex_"};
  std::map<std::string, Entry> daemons_ TDP_GUARDED_BY(mutex_);
  Stats stats_ TDP_GUARDED_BY(mutex_);
  Policy policy_ TDP_GUARDED_BY(mutex_);
  Rng jitter_ TDP_GUARDED_BY(mutex_);

  std::atomic<const Clock*> clock_{&RealClock::instance()};
  std::shared_ptr<flightrec::Recorder> recorder_ =
      flightrec::Recorder::disabled();
};

}  // namespace tdp::condor
