// test_resubscribe.cpp - regression: watches must be re-armed on reconnect.
//
// A reconnect is only real once the subscription re-registration actually
// reached the server. The historical bug: reconnect_locked() ignored the
// Status of every re-arm send, so a fresh endpoint that died right after
// the init round trip (a half-open connection: sends fail, receives stay
// silent) produced a "successful" reconnect whose lease watches were never
// re-armed server-side — the subscriber sat deaf forever, which for
// tdp.liveness.* watches means daemon death goes unnoticed.
//
// The retry helpers the reconnect path and the front door's kBusy callers
// share (backoff_delay_ms, retry_after_hint_ms) are tested at the end.

#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace tdp {
namespace {

/// Per-dial failure switch shared between the test and one endpoint.
struct DialControl {
  /// Messages (sends + successful receives) this endpoint may still carry;
  /// -1 = unlimited. At zero the endpoint turns half-open: sends fail with
  /// kConnectionError while receives merely time out and is_open() stays
  /// true — the classic one-sided TCP death.
  std::atomic<int> messages_left{-1};
  /// Receive direction broken too (receives error instead of timing out);
  /// how the test kills the original connection so the poll loop notices.
  std::atomic<bool> killed{false};
};

class MeteredEndpoint final : public net::Endpoint {
 public:
  MeteredEndpoint(std::unique_ptr<net::Endpoint> inner,
                  std::shared_ptr<DialControl> control)
      : inner_(std::move(inner)), control_(std::move(control)) {}

  using net::Endpoint::send;
  Status send(const net::Message& msg) override {
    if (control_->killed.load() || !consume()) {
      return make_error(ErrorCode::kConnectionError, "metered: send direction dead");
    }
    return inner_->send(msg);
  }

  Result<net::Message> receive(int timeout_ms) override {
    if (control_->killed.load()) {
      return make_error(ErrorCode::kConnectionError, "metered: connection killed");
    }
    if (control_->messages_left.load() == 0) {
      // Half-open: nothing ever arrives, but the failure is silent.
      if (timeout_ms != 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(timeout_ms, 5)));
      }
      return make_error(ErrorCode::kTimeout, "metered: half-open receive");
    }
    auto received = inner_->receive(timeout_ms);
    if (received.is_ok()) consume();
    return received;
  }

  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_address() const override {
    return inner_->peer_address();
  }

 private:
  /// Takes one message from the budget; false when exhausted.
  bool consume() {
    int left = control_->messages_left.load();
    while (left != 0) {
      if (left < 0) return true;
      if (control_->messages_left.compare_exchange_weak(left, left - 1)) {
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<net::Endpoint> inner_;
  std::shared_ptr<DialControl> control_;
};

/// Transport decorator that meters each dialed connection separately, so a
/// test can script "dial N comes up, survives the init handshake, then goes
/// half-open" deterministically.
class MeteredTransport final : public net::Transport {
 public:
  explicit MeteredTransport(std::shared_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  /// Pre-arms the 1-based `dial`-th connect() with a message budget.
  void doom_dial(std::size_t dial, int budget) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (budgets_.size() < dial) budgets_.resize(dial, -1);
    budgets_[dial - 1] = budget;
  }

  void kill_dial(std::size_t dial) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dial <= dials_.size()) dials_[dial - 1]->killed.store(true);
  }

  [[nodiscard]] std::size_t dial_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dials_.size();
  }

  Result<std::unique_ptr<net::Listener>> listen(const std::string& address) override {
    return inner_->listen(address);
  }

  Result<std::unique_ptr<net::Endpoint>> connect(const std::string& address) override {
    auto connected = inner_->connect(address);
    if (!connected.is_ok()) return connected.status();
    auto control = std::make_shared<DialControl>();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (dials_.size() < budgets_.size()) {
        control->messages_left.store(budgets_[dials_.size()]);
      }
      dials_.push_back(control);
    }
    return std::unique_ptr<net::Endpoint>(std::make_unique<MeteredEndpoint>(
        std::move(connected).value(), std::move(control)));
  }

 private:
  std::shared_ptr<net::Transport> inner_;
  mutable std::mutex mutex_;
  std::vector<int> budgets_;
  std::vector<std::shared_ptr<DialControl>> dials_;
};

attr::RetryPolicy fast_retry() {
  attr::RetryPolicy retry;
  retry.enabled = true;
  retry.max_reconnects = 4;
  retry.attempt_timeout_ms = 100;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  return retry;
}

// The regression scenario end to end: subscribe, lose the connection, have
// the first redial die half-open right after its init round trip, and
// assert the client keeps dialing until a connection carries the re-arm —
// proven by a notify actually arriving afterwards.
TEST(AttrClientResubscribe, RearmFailureIsAFailedReconnectAttempt) {
  auto inproc = net::InProcTransport::create();
  attr::AttrServer server("resub-lass", inproc);
  auto address = server.start("inproc://resub");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();

  auto flaky = std::make_shared<MeteredTransport>(inproc);
  // Dial #2 (the first redial) gets exactly the init round trip - one send,
  // one receive - then turns half-open, so the subscription re-arm send is
  // the first thing to fail on it.
  flaky->doom_dial(2, 2);

  auto subscriber =
      attr::AttrClient::connect(*flaky, address.value(), "resub-ctx", fast_retry());
  ASSERT_TRUE(subscriber.is_ok()) << subscriber.status().to_string();
  // The writer holds the context open across the subscriber's death and
  // publishes the post-reconnect puts.
  auto writer = attr::AttrClient::connect(*inproc, address.value(), "resub-ctx");
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();

  std::atomic<int> notifies{0};
  Status sub = subscriber.value()->subscribe(
      "watch.*",
      [&notifies](const std::string&, const std::string&) { ++notifies; });
  ASSERT_TRUE(sub.is_ok()) << sub.to_string();

  // Sanity: the subscription is live before any failure.
  ASSERT_TRUE(writer.value()->put("watch.before", "1").is_ok());
  for (int i = 0; i < 300 && notifies.load() == 0; ++i) {
    subscriber.value()->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(notifies.load(), 0) << "subscription never worked at all";
  notifies.store(0);

  // One-sided death of the original connection; the poll loop notices via
  // the receive error and heals inside service_events().
  flaky->kill_dial(1);
  for (int i = 0; i < 500 && subscriber.value()->reconnects() == 0; ++i) {
    subscriber.value()->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(subscriber.value()->reconnects(), 1) << "client never healed";
  EXPECT_GE(flaky->dial_count(), 3u)
      << "the half-open redial was counted as a successful reconnect";

  // The re-armed subscription must actually fire. Notifies are
  // fire-and-forget, so keep re-putting until one lands.
  for (int i = 0; i < 500 && notifies.load() == 0; ++i) {
    ASSERT_TRUE(writer.value()->put("watch.after", std::to_string(i)).is_ok());
    subscriber.value()->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(notifies.load(), 0)
      << "watches were not re-armed on the connection that finally stuck";

  subscriber.value()->exit();
  writer.value()->exit();
  server.stop();
}

// readable_fd() is the daemon's one descriptor: a redial swaps the
// connection inside it, so a loop that took the number at start-up keeps
// polling the right thing - and keeps waking on notifies - after a heal.
TEST(AttrClientResubscribe, ReadableFdSurvivesRedial) {
  auto inproc = net::InProcTransport::create();
  attr::AttrServer server("redial-lass", inproc);
  auto address = server.start("inproc://redial");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();
  auto flaky = std::make_shared<MeteredTransport>(inproc);
  auto subscriber =
      attr::AttrClient::connect(*flaky, address.value(), "redial-ctx", fast_retry());
  ASSERT_TRUE(subscriber.is_ok()) << subscriber.status().to_string();
  auto writer = attr::AttrClient::connect(*inproc, address.value(), "redial-ctx");
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();

  const int fd = subscriber.value()->readable_fd();
  ASSERT_GE(fd, 0);
  std::atomic<int> notifies{0};
  ASSERT_TRUE(subscriber.value()
                  ->subscribe("watch.*", [&notifies](const std::string&,
                                                     const std::string&) { ++notifies; })
                  .is_ok());

  flaky->kill_dial(1);
  for (int i = 0; i < 500 && subscriber.value()->reconnects() == 0; ++i) {
    subscriber.value()->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(subscriber.value()->reconnects(), 1) << "client never healed";
  EXPECT_EQ(subscriber.value()->readable_fd(), fd);
  subscriber.value()->service_events();  // the re-arm acks

  // Dispatch only when the original descriptor says so.
  for (int i = 0; i < 50 && notifies.load() == 0; ++i) {
    ASSERT_TRUE(writer.value()->put("watch.after", std::to_string(i)).is_ok());
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) == 1) subscriber.value()->service_events();
  }
  EXPECT_GT(notifies.load(), 0) << "the descriptor never woke for a notify after the redial";

  subscriber.value()->exit();
  writer.value()->exit();
  server.stop();
}

// abandon() is the crash hammer the chaos tier swings: it must drop the
// connection without the tdp_exit round trip and leave the client inert
// (no reconnect resurrection - the "daemon" is dead).
TEST(AttrClientResubscribe, AbandonSeversWithoutExitProtocol) {
  auto inproc = net::InProcTransport::create();
  attr::AttrServer server("abandon-lass", inproc);
  auto address = server.start("inproc://abandon");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();

  auto client =
      attr::AttrClient::connect(*inproc, address.value(), "abandon-ctx", fast_retry());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE(client.value()->put("k", "v").is_ok());

  client.value()->abandon();
  EXPECT_FALSE(client.value()->connected());
  // Dead daemons do not dial: retry is moot once abandoned.
  EXPECT_FALSE(client.value()->put("k", "v2").is_ok());
  EXPECT_EQ(client.value()->reconnects(), 0);

  server.stop();
}

}  // namespace
}  // namespace tdp

namespace tdp::attr {
namespace {

// --- retry backoff helper and retry-after hint parsing ---

TEST(BackoffDelay, HugeAttemptCountIsNotUndefined) {
  RetryPolicy policy;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  Rng jitter(1);
  // Pre-fix this computed `5 << (attempt - 1)`: UB at attempt >= 32. The
  // clamped exponent must saturate at the ceiling instead, forever.
  for (int attempt : {1, 2, 31, 32, 33, 64, 1'000, 1'000'000'000}) {
    const int delay = backoff_delay_ms(policy, attempt, 0, jitter);
    EXPECT_GE(delay, 0) << "attempt " << attempt;
    EXPECT_LE(delay, policy.max_backoff_ms) << "attempt " << attempt;
  }
}

TEST(BackoffDelay, ExponentialRampIsHalfJittered) {
  RetryPolicy policy;
  policy.base_backoff_ms = 8;
  policy.max_backoff_ms = 1000;
  Rng jitter(42);
  for (int round = 0; round < 100; ++round) {
    // attempt 3 -> deterministic backoff 32ms, delivered as 16 + U[0,16].
    const int delay = backoff_delay_ms(policy, 3, 0, jitter);
    EXPECT_GE(delay, 16);
    EXPECT_LE(delay, 32);
  }
}

TEST(BackoffDelay, ServerHintDominatesWithJitterOnTop) {
  RetryPolicy policy;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 10;  // the hint must NOT be capped by this
  Rng jitter(7);
  bool saw_jitter = false;
  for (int round = 0; round < 100; ++round) {
    const int delay = backoff_delay_ms(policy, 1, 100, jitter);
    EXPECT_GE(delay, 100);
    EXPECT_LE(delay, 150);  // hint + up to half the hint again
    if (delay != 100) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);  // a herd must not retry in lockstep
}

TEST(BackoffDelay, ZeroBaseYieldsZero) {
  RetryPolicy policy;
  policy.base_backoff_ms = 0;
  Rng jitter(3);
  EXPECT_EQ(backoff_delay_ms(policy, 5, 0, jitter), 0);
}

TEST(RetryAfterHint, ParsesBusyStatusesOnly) {
  EXPECT_EQ(retry_after_hint_ms(Status::ok()), 0);
  EXPECT_EQ(retry_after_hint_ms(
                make_error(ErrorCode::kBusy, "server busy; retry_after_ms=37")),
            37);
  EXPECT_EQ(retry_after_hint_ms(make_error(ErrorCode::kBusy, "no hint here")),
            0);
  // Same hint text under a different code is not a backpressure answer.
  EXPECT_EQ(retry_after_hint_ms(
                make_error(ErrorCode::kInternal, "retry_after_ms=37")),
            0);
}

}  // namespace
}  // namespace tdp::attr
