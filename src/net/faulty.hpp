// faulty.hpp - fault-injecting decorators over any Transport/Endpoint.
//
// TDP's premise (Section 2.3) is that the RM, the tool daemon and the
// application fail independently and the protocol must survive partial
// failure. Nothing in a clean transport exercises those paths, so this
// layer wraps an existing transport (inproc or TCP) and misbehaves on a
// seeded, deterministic schedule:
//
//   * drop        - a sent message silently never arrives (lossy link),
//   * delay       - a sent message is held up to max_delay_ms,
//   * duplicate   - a sent message arrives twice (retransmit storm),
//   * corrupt     - a received frame has bytes flipped or truncated; if it
//                   no longer decodes the stream is desynced and the
//                   endpoint dies (what a framing error does to real TCP),
//   * disconnect  - after N messages the endpoint hangs for
//                   hang_before_die_ms, then dies one-sidedly
//                   (kill -9 of the peer daemon),
//   * refused     - the first N connect() dials fail (peer not up yet).
//
// Every decision comes from a tdp::Rng stream derived from FaultPlan::seed
// and the endpoint's connection index, so a failing schedule is replayable
// from its seed alone. Time is injected through FaultPlan::sleep_fn so the
// sim tier (src/sim VirtualClock) can drive delays without wall-clock
// sleeps. Counters in FaultStats let tests assert that injection really
// happened (a chaos test that never saw a fault proves nothing).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace tdp::net {

/// The seeded fault schedule applied to every endpoint a FaultyTransport
/// creates. Probabilities are per message; all default to "no faults".
struct FaultPlan {
  std::uint64_t seed = 1;

  double drop_prob = 0.0;     ///< P(sent message is lost)
  double delay_prob = 0.0;    ///< P(sent message is held)
  int max_delay_ms = 0;       ///< uniform delay bound when held
  double dup_prob = 0.0;      ///< P(sent message is delivered twice)
  double corrupt_prob = 0.0;  ///< P(received frame is bit-flipped/truncated)

  /// >0: an endpoint dies one-sidedly after this many messages (sends +
  /// receives), consuming one transport-wide disconnect token.
  int disconnect_after_msgs = 0;
  /// Transport-wide budget of forced disconnects; <0 means unlimited.
  int max_disconnects = 1;
  /// Dwell before the forced disconnect surfaces ("hang then die").
  int hang_before_die_ms = 0;

  /// Fail the first N connect() dials with kConnectionError.
  int connect_failures = 0;

  /// When false, accepted (listener-side) endpoints pass through clean and
  /// only dialed endpoints inject faults — for tests that need one side of
  /// a relay chaotic and the other deterministic.
  bool fault_accepted = true;

  /// Sleep hook for delays and hangs; defaults to a real sleep. The sim
  /// tier points this at its engine so virtual time advances instead.
  std::function<void(int ms)> sleep_fn;

  /// The acceptance-criteria schedule: drop 10%, delay up to 50 ms, one
  /// forced disconnect per transport, everything driven by `seed`.
  static FaultPlan chaos(std::uint64_t seed);
};

/// Injection counters shared by all endpoints of one FaultyTransport.
struct FaultStats {
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::uint64_t> connects_refused{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> desyncs{0};  ///< corruptions that killed the stream
  std::atomic<std::uint64_t> forced_disconnects{0};

  [[nodiscard]] std::uint64_t faults_injected() const {
    return dropped.load() + delayed.load() + duplicated.load() +
           corrupted.load() + forced_disconnects.load() + connects_refused.load();
  }
};

/// Process-wide observer for injected faults, fired once per injection
/// with no injector lock held: (kind, detail) where kind is one of
/// "drop", "delay", "duplicate", "corrupt", "desync", "disconnect",
/// "connect-refused" and detail names the peer where known. The flight
/// recorder (util/flightrec.hpp) mirrors injections into per-daemon rings
/// through this. nullptr removes the observer.
using FaultObserver =
    std::function<void(std::string_view kind, std::string_view detail)>;
void set_fault_observer(FaultObserver observer);

/// Mangles an encoded frame in place the way the injector does: flips a
/// few bytes, truncates the tail, or scribbles on the length prefix.
/// Exposed so fuzz tests can feed identical garbage straight into
/// MessageView::parse / Message::decode.
void corrupt_frame(std::vector<std::uint8_t>& frame, Rng& rng);

/// One faulty side of a connection. Wraps any Endpoint; thread-safety is
/// the inner endpoint's (decision state is internally locked).
class FaultyEndpoint final : public Endpoint {
 public:
  FaultyEndpoint(std::unique_ptr<Endpoint> inner, const FaultPlan& plan,
                 std::shared_ptr<FaultStats> stats,
                 std::shared_ptr<std::atomic<int>> disconnect_tokens,
                 std::uint64_t endpoint_index);

  using Endpoint::send;
  Status send(const Message& msg) override;
  Result<Message> receive(int timeout_ms) override;
  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  [[nodiscard]] bool is_open() const override;
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_address() const override {
    return inner_->peer_address();
  }

 private:
  /// Rolls the schedule forward one message; returns false when this
  /// message triggers the forced disconnect.
  bool account_message() TDP_REQUIRES(mutex_);
  bool roll(double prob) TDP_REQUIRES(mutex_);
  void sleep_ms(int ms) const;

  std::unique_ptr<Endpoint> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultStats> stats_;
  std::shared_ptr<std::atomic<int>> disconnect_tokens_;

  mutable Mutex mutex_{"FaultyEndpoint::mutex_"};
  Rng rng_ TDP_GUARDED_BY(mutex_);
  int msgs_ TDP_GUARDED_BY(mutex_) = 0;

  std::atomic<bool> killed_{false};
};

/// Listener whose accepted endpoints are fault-wrapped.
class FaultyListener final : public Listener {
 public:
  FaultyListener(std::unique_ptr<Listener> inner, const FaultPlan& plan,
                 std::shared_ptr<FaultStats> stats,
                 std::shared_ptr<std::atomic<int>> disconnect_tokens,
                 std::shared_ptr<std::atomic<std::uint64_t>> next_index);

  Result<std::unique_ptr<Endpoint>> accept(int timeout_ms) override;
  [[nodiscard]] std::string address() const override { return inner_->address(); }
  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Listener> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultStats> stats_;
  std::shared_ptr<std::atomic<int>> disconnect_tokens_;
  std::shared_ptr<std::atomic<std::uint64_t>> next_index_;
};

/// Transport decorator: every endpoint it hands out (dialed or accepted)
/// injects faults from `plan`. Wrap both the server's and the client's
/// transport with the same FaultyTransport to fault both directions.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::shared_ptr<Transport> inner, FaultPlan plan);

  Result<std::unique_ptr<Listener>> listen(const std::string& address) override;
  Result<std::unique_ptr<Endpoint>> connect(const std::string& address) override;

  [[nodiscard]] const FaultStats& stats() const { return *stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  std::shared_ptr<Transport> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultStats> stats_;
  std::shared_ptr<std::atomic<int>> disconnect_tokens_;
  std::shared_ptr<std::atomic<std::uint64_t>> next_index_;
  std::atomic<int> connect_refusals_left_;
};

}  // namespace tdp::net
