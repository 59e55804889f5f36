// attr_client.hpp - client side of the attribute space.
//
// This class implements the communication model of Sections 3.2 and 3.3:
//
//   * tdp_put / tdp_get       -> put() / get() (blocking forms);
//                                try_get() is the documented error-if-absent
//                                variant ("an error is returned if the
//                                attribute is not contained in the space").
//   * tdp_async_get/put       -> async_get() / async_put(); both "return
//                                immediately ... the callback function will
//                                be executed when the operation completes".
//   * tdp_service_event       -> service_events(); callbacks are only ever
//                                invoked from inside service_events() or a
//                                blocking call on the caller's own thread —
//                                never from signals or hidden threads, which
//                                is exactly the paper's design rationale.
//   * the "tdp_fd"            -> readable_fd(); it polls readable exactly
//                                while service_events() has work - inbound
//                                traffic or a callback a blocking call
//                                queued - so a poll-based daemon loop can
//                                block on it without a timer tick.
//
// Thread safety: all public methods are safe to call concurrently; the
// paper requires the library to be usable from serial and multi-threaded
// daemons alike.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "util/fd.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace tdp::attr {

/// Completion callback: (status, attribute, value). For puts, `value` is
/// the value that was stored.
using CompletionCallback =
    std::function<void(const Status&, const std::string&, const std::string&)>;

/// Notification callback for subscriptions: (attribute, value).
using NotifyCallback = std::function<void(const std::string&, const std::string&)>;

/// Failure-recovery policy (disabled by default: a clean transport never
/// needs it, and tests of failure semantics want the raw behaviour).
///
/// With `enabled`:
///   * kConnectionError on any round trip redials the server (exponential
///     backoff with jitter, at most `max_reconnects` consecutive tries),
///     re-runs the tdp_init handshake, re-registers every subscription and
///     replays in-flight async operations;
///   * a reply not arriving within `attempt_timeout_ms` replays the
///     request with a fresh seq (recovers from a dropped frame). Replay is
///     safe: puts overwrite idempotently and batches carry a batch id the
///     server deduplicates on.
/// Caller-supplied deadlines (e.g. get(timeout_ms)) still bound the whole
/// operation; retry never extends them.
struct RetryPolicy {
  bool enabled = false;
  int max_reconnects = 5;         ///< consecutive redials before giving up
  int attempt_timeout_ms = 1000;  ///< reply wait before an idempotent replay
  int base_backoff_ms = 5;        ///< first backoff; doubles per attempt
  int max_backoff_ms = 200;       ///< backoff ceiling
};

/// Backoff before retry `attempt` (1-based). With a positive server hint
/// (a kBusy refusal's retry_after_ms) the delay is the hint plus up to half
/// the hint again of jitter — the server paces the herd, the jitter
/// desynchronizes it. Without a hint: exponential from base_backoff_ms,
/// doubling per attempt with the exponent clamped so a huge attempt count
/// cannot shift past the integer width (UB), capped at max_backoff_ms and
/// half-jittered ("half deterministic, half jitter").
int backoff_delay_ms(const RetryPolicy& policy, int attempt, int server_hint_ms,
                     Rng& jitter);

/// Parses the retry-after hint out of a kBusy Status, such as a front-door
/// refusal from Schedd::try_submit (message carries "retry_after_ms=<n>");
/// 0 if absent.
int retry_after_hint_ms(const Status& status);

class AttrClient {
 public:
  /// Connects to an attribute server and joins `context` (the tdp_init
  /// handshake). The context is reference counted server-side. With an
  /// enabled `retry` policy the initial dial also retries, and `transport`
  /// must outlive the client (it is kept for reconnects).
  static Result<std::unique_ptr<AttrClient>> connect(net::Transport& transport,
                                                     const std::string& address,
                                                     const std::string& context,
                                                     RetryPolicy retry = {});

  /// Adopts an already-established endpoint (used when the connection was
  /// set up through the RM's proxy, Section 2.4).
  static Result<std::unique_ptr<AttrClient>> adopt(
      std::unique_ptr<net::Endpoint> endpoint, const std::string& context);

  ~AttrClient();

  AttrClient(const AttrClient&) = delete;
  AttrClient& operator=(const AttrClient&) = delete;

  // --- blocking operations (Section 3.2) ---

  /// Stores (attribute, value); blocks until the server acknowledges.
  Status put(const std::string& attribute, const std::string& value);

  /// Stores all (attribute, value) pairs in one round trip (one request,
  /// one ack), the batched form daemons use to publish N related
  /// attributes — e.g. paradynd reporting a whole metric sample batch —
  /// without paying N network round trips.
  Status put_batch(const std::vector<std::pair<std::string, std::string>>& pairs);

  /// Blocking get: waits until the attribute is present (parked server
  /// side), subject to `timeout_ms` (<0 = wait forever).
  Result<std::string> get(const std::string& attribute, int timeout_ms = -1);

  /// Non-waiting get: kNotFound when the attribute is absent.
  Result<std::string> try_get(const std::string& attribute);

  /// Removes an attribute.
  Status remove(const std::string& attribute);

  /// Lists all (attribute, value) pairs in this context.
  Result<std::vector<std::pair<std::string, std::string>>> list();

  // --- asynchronous operations (Sections 3.2-3.3) ---

  /// Requests the attribute; returns immediately. The callback fires from
  /// a later service_events() call (or is queued by an intervening blocking
  /// call). Returns the descriptor to poll (the paper's "tdp_fd"), the same
  /// one readable_fd() returns.
  Result<int> async_get(const std::string& attribute, CompletionCallback callback);

  /// Stores the attribute asynchronously; callback on acknowledgement.
  Result<int> async_put(const std::string& attribute, const std::string& value,
                        CompletionCallback callback);

  /// Registers for notification on every put matching `pattern` (exact
  /// name or trailing-'*' prefix). Notifications dispatch from
  /// service_events().
  Status subscribe(const std::string& pattern, NotifyCallback callback);

  /// Drains pending traffic without blocking and invokes all completed
  /// callbacks on the calling thread. Returns the number dispatched.
  int service_events();

  /// Descriptor that polls readable exactly while service_events() has
  /// work: a frame on the connection, or a callback queued by a blocking
  /// call that read a notify or async reply off the wire while awaiting
  /// its own reply. An epoll set over the endpoint and an eventfd, built on
  /// the first call (clients nobody polls pay nothing) and kept across
  /// redials, so the number never changes. A connection that is gone for
  /// good leaves the set: it is no work for service_events().
  [[nodiscard]] int readable_fd() const;

  // --- failure recovery ---

  /// Installs (or replaces) the retry policy. Reconnection additionally
  /// requires the client to have been built with connect() — an adopted
  /// endpoint has no dial string, so only timeout replay applies there.
  void set_retry_policy(RetryPolicy retry);

  /// Successful redial+rejoin cycles performed so far.
  [[nodiscard]] int reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Requests re-sent after a lost frame (timeout replay).
  [[nodiscard]] int replays() const noexcept {
    return replays_.load(std::memory_order_relaxed);
  }

  // --- lifecycle ---

  /// tdp_exit: leaves the context (destroyed server-side when the last
  /// participant exits) and closes the connection.
  Status exit();

  /// Simulates daemon death: drops the connection without the tdp_exit
  /// protocol, exactly as a crashed process would. The server learns about
  /// it only through the broken transport (or a missed lease heartbeat).
  void abandon();

  [[nodiscard]] const std::string& context() const noexcept { return context_; }
  [[nodiscard]] bool connected() const;

 private:
  AttrClient(std::unique_ptr<net::Endpoint> endpoint, std::string context);

  Status perform_init();

  /// Sends a request and waits for the reply whose seq matches, routing
  /// unrelated inbound messages (async completions, notifications) to the
  /// pending queue for later dispatch. Applies the retry policy.
  Result<net::Message> call(net::Message request, int timeout_ms)
      TDP_EXCLUDES(mutex_);
  Result<net::Message> call_locked(net::Message request, int timeout_ms)
      TDP_REQUIRES(mutex_);

  /// True when the policy allows redialing the server.
  [[nodiscard]] bool can_reconnect_locked() const TDP_REQUIRES(mutex_);

  /// Redials, re-runs tdp_init, re-registers subscriptions and replays
  /// in-flight async requests. Backoff between attempts.
  Status reconnect_locked() TDP_REQUIRES(mutex_);

  /// The kAttrInit round trip on the current endpoint.
  Status init_on_endpoint_locked() TDP_REQUIRES(mutex_);

  /// Routes one inbound message; returns true if it was the awaited reply.
  bool route_message(net::Message msg, std::uint64_t awaited_seq,
                     net::Message* reply_out) TDP_REQUIRES(mutex_);

  /// Routes every frame the endpoint can deliver without waiting, so none
  /// is left in a transport buffer where readable_fd() cannot see it.
  /// A no-op until readable_fd() was asked for.
  void drain_buffered_locked() TDP_REQUIRES(mutex_);

  /// Takes a closed or dead endpoint out of readable_fd()'s set.
  void forget_endpoint_locked() TDP_REQUIRES(mutex_);

  std::uint64_t next_seq() TDP_REQUIRES(mutex_);

  std::string context_;

  std::atomic<int> reconnects_{0};
  std::atomic<int> replays_{0};
  std::uint64_t batch_nonce_ = 0;  ///< set once in the ctor, immutable after

  /// readable_fd(): built on first request, so clients nobody polls pay
  /// nothing. fd()/add/remove/queued/taken run under mutex_, signal and
  /// clear after it is released (EventSource's own atomics).
  mutable EventSource events_;

  mutable Mutex mutex_{"AttrClient::mutex_"};
  // The request/reply state machine mutex_ serializes.
  std::unique_ptr<net::Endpoint> endpoint_ TDP_GUARDED_BY(mutex_);
  /// Dial info for reconnects; null/empty when built via adopt().
  net::Transport* transport_ TDP_GUARDED_BY(mutex_) = nullptr;
  std::string address_ TDP_GUARDED_BY(mutex_);
  RetryPolicy retry_ TDP_GUARDED_BY(mutex_);
  /// Jitter source for reconnect backoff; reseeded per client.
  Rng backoff_rng_ TDP_GUARDED_BY(mutex_){0x7d9fau};
  std::uint64_t batch_counter_ TDP_GUARDED_BY(mutex_) = 0;
  std::uint64_t seq_ TDP_GUARDED_BY(mutex_) = 0;

  struct PendingAsync {
    net::MsgType type = net::MsgType::kInvalid;  ///< for replay after reconnect
    std::string attribute;
    std::string value;  ///< puts only
    CompletionCallback callback;
  };
  std::map<std::uint64_t, PendingAsync> pending_async_ TDP_GUARDED_BY(mutex_);

  struct Subscription {
    std::uint64_t seq = 0;  ///< seq of the subscribe request, echoed in notifies
    std::string pattern;    ///< kept so reconnect can re-register
    NotifyCallback callback;
  };
  std::vector<Subscription> subscriptions_ TDP_GUARDED_BY(mutex_);

  /// Callbacks ready to run at the next service_events().
  std::deque<std::function<void()>> ready_callbacks_ TDP_GUARDED_BY(mutex_);

  /// The endpoint descriptor currently in events_ (-1 when none).
  mutable int registered_fd_ TDP_GUARDED_BY(mutex_) = -1;

  bool exited_ TDP_GUARDED_BY(mutex_) = false;
};

}  // namespace tdp::attr
