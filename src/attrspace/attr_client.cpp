#include "attrspace/attr_client.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "attrspace/attr_protocol.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::attr {

using net::Message;
using net::MsgType;

namespace {
const log::Logger kLog("attr_client");

telemetry::Counter& calls_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.calls");
  return c;
}

telemetry::Counter& replays_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.replays");
  return c;
}

telemetry::Counter& reconnects_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrclient.reconnects");
  return c;
}

// Round-trip latency, sampled only for traced calls (a span active on the
// calling thread); the untraced hot path pays one counter add.
telemetry::Histogram& call_histogram() {
  static telemetry::Histogram& h =
      telemetry::Registry::instance().histogram("attrclient.call_us");
  return h;
}

/// Stamps the caller's trace context onto an outgoing request, so the
/// server (and whoever later reads the value) can join the causal tree.
void stamp_trace(Message& request) {
  const telemetry::SpanContext ctx = telemetry::current_context();
  if (ctx.valid() && !request.has(net::kTraceField)) {
    request.set(net::kTraceField, telemetry::format_context(ctx));
  }
}

/// Adopts the trace header of a reply as the thread's ambient context:
/// whatever the caller does next (e.g. paradynd attaching after its
/// blocking get("pid") returns) parents to the writer's span.
void adopt_reply_trace(const Message& reply) {
  const std::string_view header = reply.get_view(net::kTraceField);
  if (header.empty()) return;
  const telemetry::SpanContext ctx = telemetry::parse_context(header);
  if (ctx.valid()) telemetry::set_ambient_context(ctx);
}

Status status_from_reply(const Message& reply) {
  const std::string status = reply.get(field::kStatus);
  if (status == "ok") return Status::ok();
  const std::string error = reply.get(field::kError, "unknown server error");
  // Preserve NOT_FOUND so callers can distinguish absence from failure.
  ErrorCode code = error.find("NOT_FOUND") != std::string::npos
                       ? ErrorCode::kNotFound
                       : ErrorCode::kInternal;
  return make_error(code, error);
}

/// Distinct per client instance in this process; combined with a counter
/// it makes batch ids unique across reconnects and client generations.
std::uint64_t make_batch_nonce(const void* self) {
  static std::atomic<std::uint64_t> counter{1};
  return (counter.fetch_add(1, std::memory_order_relaxed) << 20) ^
         (reinterpret_cast<std::uintptr_t>(self) >> 4);
}
}  // namespace

int backoff_delay_ms(const RetryPolicy& policy, int attempt, int server_hint_ms,
                     Rng& jitter) {
  if (server_hint_ms > 0) {
    return server_hint_ms +
           static_cast<int>(jitter.next_below(
               static_cast<std::uint64_t>(server_hint_ms / 2 + 1)));
  }
  // base << (attempt-1) is UB once attempt exceeds the int width; beyond
  // shift 20 the doubled value exceeds any sane max_backoff_ms anyway, so
  // clamping the exponent preserves the curve and removes the UB.
  const int shift = std::clamp(attempt - 1, 0, 20);
  const std::int64_t doubled =
      static_cast<std::int64_t>(std::max(0, policy.base_backoff_ms)) << shift;
  const int backoff = static_cast<int>(
      std::min<std::int64_t>(std::max(0, policy.max_backoff_ms), doubled));
  if (backoff <= 0) return 0;
  // Half deterministic, half jitter, so a herd of daemons retrying against
  // one server spreads out instead of stampeding.
  return backoff / 2 + static_cast<int>(jitter.next_below(
                           static_cast<std::uint64_t>(backoff / 2 + 1)));
}

int retry_after_hint_ms(const Status& status) {
  if (status.code() != ErrorCode::kBusy) return 0;
  const std::string key = std::string(field::kRetryAfterMs) + "=";
  const std::size_t at = status.message().find(key);
  if (at == std::string::npos) return 0;
  return std::atoi(status.message().c_str() + at + key.size());
}

AttrClient::AttrClient(std::unique_ptr<net::Endpoint> endpoint, std::string context)
    : context_(std::move(context)), batch_nonce_(make_batch_nonce(this)),
      endpoint_(std::move(endpoint)) {
  backoff_rng_.reseed(batch_nonce_);
}

Result<std::unique_ptr<AttrClient>> AttrClient::connect(net::Transport& transport,
                                                        const std::string& address,
                                                        const std::string& context,
                                                        RetryPolicy retry) {
  const int attempts = retry.enabled ? retry.max_reconnects + 1 : 1;
  Rng jitter(0xc0ffee ^ std::hash<std::string>{}(address));
  Status last = make_error(ErrorCode::kConnectionError, "not attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const int backoff = backoff_delay_ms(retry, attempt, 0, jitter);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
    auto connected = transport.connect(address);
    if (!connected.is_ok()) {
      last = connected.status();
      continue;
    }
    std::unique_ptr<AttrClient> client(
        new AttrClient(std::move(connected).value(), context));
    {
      LockGuard lock(client->mutex_);
      client->retry_ = retry;  // before init so a dropped init frame resends
    }
    Status init = client->perform_init();
    if (!init.is_ok()) {
      last = init;
      continue;
    }
    {
      LockGuard lock(client->mutex_);
      client->transport_ = &transport;
      client->address_ = address;
    }
    return client;
  }
  return last;
}

Result<std::unique_ptr<AttrClient>> AttrClient::adopt(
    std::unique_ptr<net::Endpoint> endpoint, const std::string& context) {
  std::unique_ptr<AttrClient> client(new AttrClient(std::move(endpoint), context));
  TDP_RETURN_IF_ERROR(client->perform_init());
  return client;
}

AttrClient::~AttrClient() {
  // Best effort; exit() is a no-op when already exited or disconnected, and
  // the server also handles abrupt disconnects as implicit exits.
  exit();
}

void AttrClient::set_retry_policy(RetryPolicy retry) {
  LockGuard lock(mutex_);
  retry_ = retry;
}

Status AttrClient::perform_init() {
  LockGuard lock(mutex_);
  return init_on_endpoint_locked();
}

Status AttrClient::init_on_endpoint_locked() {
  Message init(MsgType::kAttrInit);
  const std::uint64_t awaited = next_seq();
  init.set_seq(awaited);
  init.set(field::kContext, context_);
  TDP_RETURN_IF_ERROR(endpoint_->send(init));
  const Clock& wall = RealClock::instance();
  const Micros deadline = wall.now_micros() + 5'000'000;
  Micros last_send = wall.now_micros();
  while (wall.now_micros() < deadline) {
    auto received = endpoint_->receive(200);
    if (!received.is_ok()) {
      if (received.status().code() == ErrorCode::kTimeout) {
        // A lossy link may have eaten the init; resend (a duplicate init
        // is balanced by the matching implicit exit at teardown).
        if (retry_.enabled &&
            wall.now_micros() - last_send >
                static_cast<Micros>(retry_.attempt_timeout_ms) * 1000) {
          replays_.fetch_add(1, std::memory_order_relaxed);
          replays_counter().inc();
          endpoint_->send(init);
          last_send = wall.now_micros();
        }
        continue;
      }
      return received.status();
    }
    Message reply;
    if (!route_message(std::move(received).value(), awaited, &reply)) continue;
    if (reply.type() != MsgType::kAttrInitReply) {
      return make_error(ErrorCode::kInternal, "bad init reply: " + reply.to_string());
    }
    return status_from_reply(reply);
  }
  return make_error(ErrorCode::kTimeout, "tdp_init timed out");
}

bool AttrClient::can_reconnect_locked() const {
  return retry_.enabled && transport_ != nullptr && !exited_;
}

Status AttrClient::reconnect_locked() {
  Status last = make_error(ErrorCode::kConnectionError, "reconnect not attempted");
  for (int attempt = 1; attempt <= retry_.max_reconnects; ++attempt) {
    const int backoff = backoff_delay_ms(retry_, attempt, 0, backoff_rng_);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    auto connected = transport_->connect(address_);
    if (!connected.is_ok()) {
      last = connected.status();
      continue;
    }
    // Swap the endpoint inside readable_fd()'s set, which keeps its number:
    // a daemon loop polling it never learns the connection changed.
    events_.remove(registered_fd_);
    endpoint_ = std::move(connected).value();
    if (events_.built()) {
      registered_fd_ = endpoint_->readable_fd();
      events_.add(registered_fd_);
    }
    Status init = init_on_endpoint_locked();
    if (!init.is_ok()) {
      last = init;
      continue;
    }
    // Re-register every subscription under its original seq so notify
    // correlation keeps working; the acks are routed and dropped as
    // already-answered replies. Each send's status matters: a fresh
    // endpoint that dies here would otherwise report a "successful"
    // reconnect whose lease watches are never re-armed server-side.
    Status rearm = Status::ok();
    for (const Subscription& sub : subscriptions_) {
      Message request(MsgType::kAttrSubscribe);
      request.set_seq(sub.seq);
      request.set(field::kContext, context_);
      request.set(field::kPattern, sub.pattern);
      rearm = endpoint_->send(std::move(request));
      if (!rearm.is_ok()) break;
    }
    // Replay in-flight async operations (idempotent: puts overwrite).
    if (rearm.is_ok()) {
      for (const auto& [seq, pending] : pending_async_) {
        Message request(pending.type);
        request.set_seq(seq);
        request.set(field::kContext, context_);
        request.set(field::kAttribute, pending.attribute);
        if (pending.type == MsgType::kAttrPut) {
          request.set(field::kValue, pending.value);
        }
        rearm = endpoint_->send(std::move(request));
        if (!rearm.is_ok()) break;
      }
    }
    if (!rearm.is_ok()) {
      kLog.warn("reconnect attempt ", attempt,
                " lost the connection mid-rearm: ", rearm.to_string());
      endpoint_->close();
      last = rearm;
      continue;  // counts as a failed attempt; keep backing off
    }
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    reconnects_counter().inc();
    kLog.info("reconnected to ", address_, " (attempt ", attempt, "), ",
              subscriptions_.size(), " subscriptions re-registered, ",
              pending_async_.size(), " async ops replayed");
    return Status::ok();
  }
  return last;
}

std::uint64_t AttrClient::next_seq() { return ++seq_; }

Status AttrClient::put(const std::string& attribute, const std::string& value) {
  Message request(MsgType::kAttrPut);
  request.set(field::kContext, context_);
  request.set(field::kAttribute, attribute);
  request.set(field::kValue, value);
  auto reply = call(std::move(request), -1);
  if (!reply.is_ok()) return reply.status();
  return status_from_reply(reply.value());
}

Status AttrClient::put_batch(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return Status::ok();
  Message request(MsgType::kAttrPutBatch);
  request.reserve_fields(3 + 2 * pairs.size());
  request.set(field::kContext, context_);
  request.set_int(field::kCount, static_cast<std::int64_t>(pairs.size()));
  {
    // Batch id: lets the server recognize a replayed batch (ack lost to a
    // disconnect) and acknowledge without applying twice.
    LockGuard lock(mutex_);
    request.set(field::kBatchId, std::to_string(batch_nonce_) + "-" +
                                     std::to_string(++batch_counter_));
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // add() skips the duplicate-key scan; the k<i>/v<i> scheme guarantees
    // uniqueness, keeping batch construction O(N).
    const std::string index = std::to_string(i);
    request.add(field::kKeyPrefix + index, pairs[i].first);
    request.add(field::kValPrefix + index, pairs[i].second);
  }
  auto reply = call(std::move(request), -1);
  if (!reply.is_ok()) return reply.status();
  return status_from_reply(reply.value());
}

Result<std::string> AttrClient::get(const std::string& attribute, int timeout_ms) {
  Message request(MsgType::kAttrGet);
  request.set(field::kContext, context_);
  request.set(field::kAttribute, attribute);
  request.set(field::kBlock, "1");
  auto reply = call(std::move(request), timeout_ms);
  if (!reply.is_ok()) return reply.status();
  Status status = status_from_reply(reply.value());
  if (!status.is_ok()) return status;
  adopt_reply_trace(reply.value());
  return reply->get(field::kValue);
}

Result<std::string> AttrClient::try_get(const std::string& attribute) {
  Message request(MsgType::kAttrGet);
  request.set(field::kContext, context_);
  request.set(field::kAttribute, attribute);
  request.set(field::kBlock, "0");
  auto reply = call(std::move(request), -1);
  if (!reply.is_ok()) return reply.status();
  Status status = status_from_reply(reply.value());
  if (!status.is_ok()) return status;
  adopt_reply_trace(reply.value());
  return reply->get(field::kValue);
}

Status AttrClient::remove(const std::string& attribute) {
  Message request(MsgType::kAttrRemove);
  request.set(field::kContext, context_);
  request.set(field::kAttribute, attribute);
  auto reply = call(std::move(request), -1);
  if (!reply.is_ok()) return reply.status();
  return status_from_reply(reply.value());
}

Result<std::vector<std::pair<std::string, std::string>>> AttrClient::list() {
  Message request(MsgType::kAttrList);
  request.set(field::kContext, context_);
  auto reply = call(std::move(request), -1);
  if (!reply.is_ok()) return reply.status();
  Status status = status_from_reply(reply.value());
  if (!status.is_ok()) return status;
  std::vector<std::pair<std::string, std::string>> out;
  const std::int64_t count = reply->get_int(field::kCount);
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    out.emplace_back(reply->get(field::kKeyPrefix + std::to_string(i)),
                     reply->get(field::kValPrefix + std::to_string(i)));
  }
  return out;
}

Result<int> AttrClient::async_get(const std::string& attribute,
                                  CompletionCallback callback) {
  {
    LockGuard lock(mutex_);
    if (!endpoint_ || !endpoint_->is_open()) {
      if (!can_reconnect_locked()) {
        return make_error(ErrorCode::kConnectionError, "not connected");
      }
      TDP_RETURN_IF_ERROR(reconnect_locked());
    }
    Message request(MsgType::kAttrAsyncGet);
    const std::uint64_t seq_used = next_seq();
    request.set_seq(seq_used);
    request.set(field::kContext, context_);
    request.set(field::kAttribute, attribute);
    stamp_trace(request);
    TDP_RETURN_IF_ERROR(endpoint_->send(std::move(request)));
    pending_async_[seq_used] = {MsgType::kAttrAsyncGet, attribute, "",
                                std::move(callback)};
  }
  return readable_fd();
}

Result<int> AttrClient::async_put(const std::string& attribute, const std::string& value,
                                  CompletionCallback callback) {
  {
    LockGuard lock(mutex_);
    if (!endpoint_ || !endpoint_->is_open()) {
      if (!can_reconnect_locked()) {
        return make_error(ErrorCode::kConnectionError, "not connected");
      }
      TDP_RETURN_IF_ERROR(reconnect_locked());
    }
    Message request(MsgType::kAttrPut);
    const std::uint64_t seq_used = next_seq();
    request.set_seq(seq_used);
    request.set(field::kContext, context_);
    request.set(field::kAttribute, attribute);
    request.set(field::kValue, value);
    stamp_trace(request);
    TDP_RETURN_IF_ERROR(endpoint_->send(std::move(request)));
    pending_async_[seq_used] = {MsgType::kAttrPut, attribute, value,
                                std::move(callback)};
  }
  return readable_fd();
}

Status AttrClient::subscribe(const std::string& pattern, NotifyCallback callback) {
  // Register client-side first so a notify racing the subscribe ack is not
  // lost; seq is fixed up under the same lock as the send. A notify read
  // while awaiting the ack is queued; readable_fd() is signalled for it
  // once the lock is released.
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  if (!endpoint_ || !endpoint_->is_open()) {
    if (!can_reconnect_locked()) {
      return make_error(ErrorCode::kConnectionError, "not connected");
    }
    TDP_RETURN_IF_ERROR(reconnect_locked());
  }
  const std::uint64_t seq_used = next_seq();
  subscriptions_.push_back({seq_used, pattern, std::move(callback)});
  Message request(MsgType::kAttrSubscribe);
  request.set_seq(seq_used);
  request.set(field::kContext, context_);
  request.set(field::kPattern, pattern);
  stamp_trace(request);
  Status sent = endpoint_->send(std::move(request));
  if (!sent.is_ok()) {
    if (!can_reconnect_locked()) {
      subscriptions_.pop_back();
      return sent;
    }
    // reconnect_locked re-sends every registered subscription, including
    // the one just added.
    Status reconnected = reconnect_locked();
    if (!reconnected.is_ok()) {
      subscriptions_.pop_back();
      return reconnected;
    }
  }
  // Wait (bounded) for the acknowledgement so callers know the
  // subscription is live; re-send on a lost frame when retry is enabled.
  const Clock& wall = RealClock::instance();
  const Micros deadline = wall.now_micros() + 30'000'000;
  Micros last_resend = wall.now_micros();
  while (wall.now_micros() < deadline) {
    auto received = endpoint_->receive(200);
    if (!received.is_ok()) {
      if (received.status().code() == ErrorCode::kTimeout) {
        if (retry_.enabled &&
            wall.now_micros() - last_resend >
                static_cast<Micros>(retry_.attempt_timeout_ms) * 1000) {
          Message resend(MsgType::kAttrSubscribe);
          resend.set_seq(seq_used);
          resend.set(field::kContext, context_);
          resend.set(field::kPattern, pattern);
          replays_.fetch_add(1, std::memory_order_relaxed);
          replays_counter().inc();
          endpoint_->send(std::move(resend));
          last_resend = wall.now_micros();
        }
        continue;
      }
      if (!can_reconnect_locked()) return received.status();
      Status reconnected = reconnect_locked();  // re-sends the subscription
      if (!reconnected.is_ok()) return reconnected;
      continue;
    }
    Message reply;
    if (route_message(std::move(received).value(), seq_used, &reply)) {
      // Frames that arrived with the ack may still sit in the transport
      // buffer, where readable_fd() cannot see them: one wake makes the
      // caller's next service_events() route them.
      events_.queued();
      return status_from_reply(reply);
    }
  }
  return make_error(ErrorCode::kTimeout, "subscribe not acknowledged");
}

Result<Message> AttrClient::call(Message request, int timeout_ms) {
  calls_counter().inc();
  const bool traced = telemetry::current_context().valid();
  const Micros start = traced ? telemetry::Tracer::instance().now() : 0;
  UniqueLock lock(mutex_);
  Result<Message> result = call_locked(std::move(request), timeout_ms);
  lock.unlock();
  events_.signal();
  if (traced) {
    call_histogram().record(static_cast<std::uint64_t>(
        std::max<Micros>(0, telemetry::Tracer::instance().now() - start)));
  }
  return result;
}

Result<Message> AttrClient::call_locked(Message request, int timeout_ms) {
  stamp_trace(request);
  if (!endpoint_ || !endpoint_->is_open()) {
    if (!can_reconnect_locked()) {
      return make_error(ErrorCode::kConnectionError, "not connected");
    }
    TDP_RETURN_IF_ERROR(reconnect_locked());
  }
  const bool has_deadline = timeout_ms >= 0;
  const Clock& wall = RealClock::instance();
  const Micros deadline =
      wall.now_micros() + static_cast<Micros>(timeout_ms) * 1000;
  int consecutive_conn_failures = 0;
  while (true) {
    // (Re)send under a fresh seq; a straggler reply to a superseded seq is
    // warn-dropped by route_message.
    request.set_seq(next_seq());
    const std::uint64_t awaited = request.seq();
    Status sent = endpoint_->send(request);
    if (!sent.is_ok()) {
      if (!can_reconnect_locked() ||
          ++consecutive_conn_failures > retry_.max_reconnects) {
        return sent;
      }
      TDP_RETURN_IF_ERROR(reconnect_locked());
      continue;
    }
    while (true) {
      int wait = -1;
      if (has_deadline) {
        const Micros now = wall.now_micros();
        if (now >= deadline) return make_error(ErrorCode::kTimeout, "call timed out");
        wait = static_cast<int>((deadline - now) / 1000 + 1);
      }
      if (retry_.enabled && retry_.attempt_timeout_ms > 0) {
        wait = wait < 0 ? retry_.attempt_timeout_ms
                        : std::min(wait, retry_.attempt_timeout_ms);
      }
      auto received = endpoint_->receive(wait);
      if (!received.is_ok()) {
        if (received.status().code() == ErrorCode::kTimeout) {
          if (has_deadline && wall.now_micros() >= deadline) {
            return make_error(ErrorCode::kTimeout, "call timed out");
          }
          if (retry_.enabled) {
            // The frame (or its reply) was probably lost; replay. All
            // requests are idempotent (puts overwrite, batches are
            // server-deduplicated by batch id).
            replays_.fetch_add(1, std::memory_order_relaxed);
            replays_counter().inc();
            break;
          }
          continue;
        }
        if (!can_reconnect_locked() ||
            ++consecutive_conn_failures > retry_.max_reconnects) {
          return received.status();
        }
        Status reconnected = reconnect_locked();
        if (!reconnected.is_ok()) return reconnected;
        break;  // resend on the fresh connection
      }
      consecutive_conn_failures = 0;
      Message reply;
      if (route_message(std::move(received).value(), awaited, &reply)) {
        drain_buffered_locked();
        return reply;
      }
    }
  }
}

bool AttrClient::route_message(Message msg, std::uint64_t awaited_seq,
                               Message* reply_out) {
  if (msg.type() == MsgType::kAttrNotify) {
    for (const auto& sub : subscriptions_) {
      if (sub.seq == msg.seq()) {
        NotifyCallback callback = sub.callback;
        std::string attribute = msg.get(field::kAttribute);
        std::string value = msg.get(field::kValue);
        // The notify carries the writer's trace header; dispatch the
        // callback under that ambient context so work it triggers joins
        // the writer's causal tree.
        const telemetry::SpanContext trace =
            telemetry::parse_context(msg.get_view(net::kTraceField));
        ready_callbacks_.push_back([callback = std::move(callback),
                                    attribute = std::move(attribute),
                                    value = std::move(value), trace] {
          telemetry::ScopedAmbient ambient(trace);
          callback(attribute, value);
        });
        events_.queued();
        return false;
      }
    }
    kLog.warn("notify for unknown subscription seq=", msg.seq());
    return false;
  }

  auto async_it = pending_async_.find(msg.seq());
  if (async_it != pending_async_.end() && msg.seq() != awaited_seq) {
    PendingAsync pending = std::move(async_it->second);
    pending_async_.erase(async_it);
    Status status = status_from_reply(msg);
    std::string value = msg.get(field::kValue);
    const telemetry::SpanContext trace =
        telemetry::parse_context(msg.get_view(net::kTraceField));
    ready_callbacks_.push_back([pending = std::move(pending), status,
                                value = std::move(value), trace] {
      telemetry::ScopedAmbient ambient(trace);
      pending.callback(status, pending.attribute, value);
    });
    events_.queued();
    return false;
  }

  if (msg.seq() == awaited_seq && awaited_seq != 0) {
    *reply_out = std::move(msg);
    return true;
  }

  kLog.warn("dropping unexpected message ", msg.to_string());
  return false;
}

void AttrClient::drain_buffered_locked() {
  if (!events_.built()) return;
  while (true) {
    auto received = endpoint_->receive(0);
    if (!received.is_ok()) return;  // a lost connection is service_events' job
    Message unused;
    route_message(std::move(received).value(), /*awaited_seq=*/0, &unused);
  }
}

int AttrClient::service_events() {
  // Clear first: a callback queued after this re-signals, and one queued
  // before it is in the queue this call swaps out and runs.
  events_.clear();
  std::deque<std::function<void()>> to_run;
  {
    LockGuard lock(mutex_);
    if (endpoint_ && endpoint_->is_open()) {
      while (true) {
        auto received = endpoint_->receive(0);
        if (!received.is_ok()) {
          // Drained (timeout) or disconnected. A poll-loop daemon calls
          // this every turn, so this is the natural place to heal a lost
          // connection: redial, rejoin, re-register subscriptions.
          if (received.status().code() != ErrorCode::kTimeout) {
            if (can_reconnect_locked()) {
              reconnect_locked();  // best effort; next turn retries again
            } else {
              // Gone for good: its end-of-stream would keep readable_fd()
              // readable with nothing for this call to do.
              forget_endpoint_locked();
            }
          }
          break;
        }
        Message unused;
        route_message(std::move(received).value(), /*awaited_seq=*/0, &unused);
      }
    } else if (!can_reconnect_locked()) {
      forget_endpoint_locked();  // closed for good, as above
    }
    to_run.swap(ready_callbacks_);
    // Everything queued so far runs below; nothing is left to signal.
    events_.taken();
  }
  // Callbacks run outside the lock, on the caller's thread — the paper's
  // "well-known and (presumably) safe point".
  mutex_.assert_not_held();
  int dispatched = 0;
  for (auto& callback : to_run) {
    callback();
    ++dispatched;
  }
  return dispatched;
}

int AttrClient::readable_fd() const {
  const EventSource::SignalAtExit signal{events_};
  LockGuard lock(mutex_);
  if (!events_.built()) {
    if (events_.fd() < 0) {
      // No epoll or eventfd to be had: the bare endpoint is all there is.
      return endpoint_ ? endpoint_->readable_fd() : -1;
    }
    if (endpoint_ && endpoint_->is_open()) {
      registered_fd_ = endpoint_->readable_fd();  // NOLINT: same inproc fd-export write as the baselined fallback above
      events_.add(registered_fd_);
    }
    // Callbacks queued before anyone asked for the descriptor are work too.
    if (!ready_callbacks_.empty()) events_.queued();
  }
  return events_.fd();
}

Status AttrClient::exit() {
  LockGuard lock(mutex_);
  if (exited_) return Status::ok();
  exited_ = true;
  if (!endpoint_ || !endpoint_->is_open()) {
    forget_endpoint_locked();
    return Status::ok();
  }
  Message request(MsgType::kAttrExit);
  const std::uint64_t awaited = next_seq();
  request.set_seq(awaited);
  request.set(field::kContext, context_);
  Status sent = endpoint_->send(std::move(request));
  if (sent.is_ok()) {
    // Await the ack (with a bound) so the server-side refcount is settled
    // before we tear the connection down.
    const Clock& wall = RealClock::instance();
    const Micros deadline = wall.now_micros() + 2'000'000;
    while (wall.now_micros() < deadline) {
      auto received = endpoint_->receive(200);
      if (!received.is_ok()) {
        if (received.status().code() == ErrorCode::kTimeout) continue;
        break;
      }
      Message reply;
      if (route_message(std::move(received).value(), awaited, &reply)) break;
    }
  }
  endpoint_->close();
  forget_endpoint_locked();
  return Status::ok();
}

void AttrClient::abandon() {
  LockGuard lock(mutex_);
  exited_ = true;
  if (endpoint_) endpoint_->close();
  forget_endpoint_locked();
}

void AttrClient::forget_endpoint_locked() {
  events_.remove(registered_fd_);
  registered_fd_ = -1;
}

bool AttrClient::connected() const {
  LockGuard lock(mutex_);
  return endpoint_ && endpoint_->is_open() && !exited_;
}

}  // namespace tdp::attr
