#include "attrspace/attr_server.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "attrspace/attr_protocol.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::attr {

using net::Message;
using net::MessageView;
using net::MsgType;

namespace {

telemetry::Counter& dispatch_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrsrv.dispatch");
  return c;
}

// Recorded only for requests that carry a trace header; untraced hot-path
// messages pay a counter increment and a has-field check, nothing more.
telemetry::Histogram& dispatch_histogram() {
  static telemetry::Histogram& h =
      telemetry::Registry::instance().histogram("attrsrv.dispatch_us");
  return h;
}

/// True when `key` is `prefix` followed by one or more decimal digits
/// ("k12" for prefix "k"), the batch-put field naming scheme.
bool is_indexed_key(std::string_view key, std::string_view prefix,
                    std::string_view* index_out) {
  if (key.size() <= prefix.size() || key.substr(0, prefix.size()) != prefix) {
    return false;
  }
  std::string_view index = key.substr(prefix.size());
  for (char c : index) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  *index_out = index;
  return true;
}

}  // namespace

AttrServer::AttrServer(std::string name, std::shared_ptr<net::Transport> transport)
    : name_(std::move(name)), transport_(std::move(transport)) {}

AttrServer::~AttrServer() { stop(); }

Result<std::string> AttrServer::start(const std::string& listen_address) {
  auto listener = transport_->listen(listen_address);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  running_.store(true, std::memory_order_release);
  reactor_.add_readable(listener_->readable_fd(), [this] { on_acceptable(); });
  io_thread_ = std::thread([this] {
    io_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
    while (running_.load(std::memory_order_acquire)) {
      reactor_.run_once(-1);
    }
  });
  log::Logger(name_).info("attribute space server on ", address_);
  recorder_->state("start", "address=" + address_);
  return address_;
}

void AttrServer::stop() {
  running_.store(false, std::memory_order_release);
  reactor_.stop();  // wakes the blocked poll so the I/O thread observes running_
  if (io_thread_.joinable()) io_thread_.join();

  std::map<int, std::shared_ptr<Connection>> conns;
  {
    LockGuard lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& [fd, conn] : conns) {
    reactor_.remove(fd);
    teardown(*conn);
  }
  if (listener_) {
    reactor_.remove(listener_->readable_fd());
    listener_->close();
  }
  recorder_->state("stop", "");
}

void AttrServer::on_acceptable() {
  // Drain every pending connection: the reactor is level-triggered per
  // poll cycle, but accepting in a loop avoids one loop iteration per
  // queued connect under a connect burst.
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_->accept(0);
    if (!accepted.is_ok()) break;  // kTimeout: queue drained
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->endpoint = std::shared_ptr<net::Endpoint>(std::move(accepted).value());
    const int fd = conn->endpoint->readable_fd();
    if (fd < 0) {
      conn->endpoint->close();
      continue;
    }
    {
      LockGuard lock(conns_mutex_);
      conns_.emplace(fd, conn);
    }
    recorder_->state("accept", "fd=" + std::to_string(fd));
    reactor_.add_readable(fd, [this, fd] { on_readable(fd); });
  }
}

void AttrServer::on_readable(int fd) {
  std::shared_ptr<Connection> conn;
  {
    LockGuard lock(conns_mutex_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // raced with stop()
    conn = it->second;
  }
  // Drain all complete frames; receive_view parses in place into the
  // connection's reused view, so the request path allocates nothing.
  while (running_.load(std::memory_order_acquire)) {
    Status received = conn->endpoint->receive_view(0, &conn->view);
    if (!received.is_ok()) {
      if (received.code() == ErrorCode::kTimeout) return;  // no full frame yet
      // Peer gone: crash cleanup (implicit tdp_exit) and unregister.
      reactor_.remove(fd);
      {
        LockGuard lock(conns_mutex_);
        conns_.erase(fd);
      }
      teardown(*conn);
      return;
    }
    handle_message(conn->view, *conn);
  }
}

void AttrServer::assert_io_thread() const {
#if TDP_LOCK_ORDER_CHECKS
  const std::thread::id io_id = io_thread_id_.load(std::memory_order_acquire);
  if (io_id != std::thread::id{} && io_id != std::this_thread::get_id()) {
    log::Logger(name_).error("dedup window touched off the I/O thread");
    std::abort();
  }
#endif
}

bool AttrServer::remember_batch(const std::string& batch_id) {
  // The recent-batch window is intentionally lock-free: only the reactor's
  // I/O thread may reach it, and it must not be reached with the connection
  // table locked (send() inside could then deadlock against stop()).
  assert_io_thread();
  conns_mutex_.assert_not_held();
  if (!recent_batch_ids_.insert(batch_id).second) return false;
  recent_batch_order_.push_back(batch_id);
  if (recent_batch_order_.size() > kBatchWindow) {
    recent_batch_ids_.erase(recent_batch_order_.front());
    recent_batch_order_.pop_front();
  }
  return true;
}

void AttrServer::teardown(Connection& conn) {
  // Cancel this client's watchers so their callbacks never touch a dead
  // endpoint, then treat unclosed inits as implicit tdp_exit (the daemon
  // crashed or forgot to exit).
  for (std::uint64_t id : conn.watcher_ids) store_.unsubscribe(id);
  for (const std::string& context : conn.opened_contexts) {
    auto closed = store_.close_context(context);
    if (closed.is_ok()) {
      log::Logger(name_).debug("implicit exit for context '", context,
                               "', refcount now ", closed.value());
    }
  }
  conn.endpoint->close();
  recorder_->state("teardown",
                   "contexts=" + std::to_string(conn.opened_contexts.size()));
}

void AttrServer::handle_message(const MessageView& msg, Connection& conn) {
  dispatch_counter().inc();
  const std::string_view context = msg.get(field::kContext, kDefaultContext);
  const std::uint64_t seq = msg.seq();
  const std::shared_ptr<net::Endpoint>& endpoint = conn.endpoint;

  // A request carrying a trace header gets a server-side dispatch span
  // parented to the caller, plus a latency sample. Untraced requests (the
  // overwhelming hot path) skip both - see the <3% overhead target.
  const std::string_view trace_header = msg.get(net::kTraceField);
  std::optional<telemetry::Span> dispatch_span;
  Micros dispatch_start = 0;
  if (!trace_header.empty()) {
    const telemetry::SpanContext parent =
        telemetry::parse_context(trace_header);
    if (parent.valid()) {
      dispatch_span.emplace(net::msg_type_name(msg.type()), name_, parent);
      dispatch_start = telemetry::Tracer::instance().now();
    }
  }

  auto reply_status = [&](MsgType type, const Status& status) {
    Message reply(type);
    reply.set_seq(seq);
    reply.set(field::kStatus, status.is_ok() ? "ok" : "error");
    if (!status.is_ok()) reply.set(field::kError, status.to_string());
    endpoint->send(std::move(reply));
  };

  switch (msg.type()) {
    case MsgType::kAttrInit: {
      int refcount = store_.open_context(context);
      conn.opened_contexts.emplace_back(context);
      Message reply(MsgType::kAttrInitReply);
      reply.set_seq(seq);
      reply.set(field::kStatus, "ok");
      reply.set_int(field::kCount, refcount);
      endpoint->send(std::move(reply));
      break;
    }

    case MsgType::kAttrExit: {
      auto it = std::find(conn.opened_contexts.begin(), conn.opened_contexts.end(),
                          context);
      if (it == conn.opened_contexts.end()) {
        reply_status(MsgType::kAttrPutReply,
                     make_error(ErrorCode::kInvalidState,
                                "tdp_exit without matching tdp_init on this connection"));
        break;
      }
      conn.opened_contexts.erase(it);
      auto closed = store_.close_context(context);
      reply_status(MsgType::kAttrPutReply,
                   closed.is_ok() ? Status::ok() : closed.status());
      break;
    }

    case MsgType::kAttrPut: {
      Status status = store_.put(context, msg.get(field::kAttribute),
                                 std::string(msg.get(field::kValue)),
                                 std::string(trace_header));
      reply_status(MsgType::kAttrPutReply, status);
      break;
    }

    case MsgType::kAttrPutBatch: {
      // A batch id already in the recent window means the ack was lost and
      // the client replayed: acknowledge without applying again.
      const std::string batch_id(msg.get(field::kBatchId));
      if (!batch_id.empty() && !remember_batch(batch_id)) {
        batches_deduped_.fetch_add(1, std::memory_order_relaxed);
        Message reply(MsgType::kAttrPutReply);
        reply.set_seq(seq);
        reply.set(field::kStatus, "ok");
        reply.set_int(field::kCount, msg.get_int(field::kCount));
        endpoint->send(std::move(reply));
        break;
      }
      // Fields arrive as k0,v0,k1,v1,...; pair them positionally in one
      // pass (no per-key lookup, so a batch of N costs O(N)).
      Status status = Status::ok();
      std::int64_t applied = 0;
      std::string_view pending_attr;
      std::string_view pending_index;
      bool have_attr = false;
      for (const auto& f : msg.fields()) {
        std::string_view index;
        if (is_indexed_key(f.key, field::kKeyPrefix, &index)) {
          pending_attr = f.value;
          pending_index = index;
          have_attr = true;
        } else if (have_attr && is_indexed_key(f.key, field::kValPrefix, &index) &&
                   index == pending_index) {
          status = store_.put(context, pending_attr, std::string(f.value),
                              std::string(trace_header));
          have_attr = false;
          if (!status.is_ok()) break;
          ++applied;
        }
      }
      const std::int64_t expected = msg.get_int(field::kCount, applied);
      if (status.is_ok() && applied != expected) {
        status = make_error(ErrorCode::kInvalidArgument,
                            "batch put count mismatch: expected " +
                                std::to_string(expected) + ", applied " +
                                std::to_string(applied));
      }
      if (status.is_ok()) {
        batches_applied_.fetch_add(1, std::memory_order_relaxed);
      }
      Message reply(MsgType::kAttrPutReply);
      reply.set_seq(seq);
      reply.set(field::kStatus, status.is_ok() ? "ok" : "error");
      if (!status.is_ok()) reply.set(field::kError, status.to_string());
      reply.set_int(field::kCount, applied);
      endpoint->send(std::move(reply));
      break;
    }

    case MsgType::kAttrGet:
    case MsgType::kAttrAsyncGet: {
      const std::string_view attribute = msg.get(field::kAttribute);
      const bool block = msg.get(field::kBlock) == "1" ||
                         msg.type() == MsgType::kAttrAsyncGet;
      if (!block) {
        std::string stored_trace;
        auto value = store_.get(context, attribute, &stored_trace);
        Message reply(MsgType::kAttrGetReply);
        reply.set_seq(seq);
        reply.set(field::kAttribute, std::string(attribute));
        if (value.is_ok()) {
          reply.set(field::kStatus, "ok").set(field::kValue, std::move(value).value());
          // The reply carries the *writer's* trace so the reader can join
          // the causal tree of whoever produced the value.
          if (!stored_trace.empty()) {
            reply.set(net::kTraceField, std::move(stored_trace));
          }
        } else {
          reply.set(field::kStatus, "error")
              .set(field::kError, value.status().to_string());
        }
        endpoint->send(std::move(reply));
        break;
      }
      // Parked get: reply fires from whichever thread performs the put.
      std::weak_ptr<net::Endpoint> weak = endpoint;
      std::uint64_t id = store_.get_or_wait_traced(
          context, attribute,
          [weak, seq](const std::string&, const std::string& attr,
                      const std::string& value, const std::string& trace) {
            if (auto ep = weak.lock()) {
              Message reply(MsgType::kAttrGetReply);
              reply.set_seq(seq);
              reply.set(field::kStatus, "ok");
              reply.set(field::kAttribute, attr);
              reply.set(field::kValue, value);
              if (!trace.empty()) reply.set(net::kTraceField, trace);
              ep->send(std::move(reply));
            }
          });
      if (id != 0) conn.watcher_ids.push_back(id);
      break;
    }

    case MsgType::kAttrSubscribe: {
      // A replayed subscribe (ack lost in flight) must not register twice,
      // or the client would get every notify duplicated.
      if (auto existing = conn.subs_by_seq.find(seq);
          existing != conn.subs_by_seq.end()) {
        Message reply(MsgType::kAttrPutReply);
        reply.set_seq(seq);
        reply.set(field::kStatus, "ok");
        reply.set_int(field::kSubId, static_cast<std::int64_t>(existing->second));
        endpoint->send(std::move(reply));
        break;
      }
      const std::string_view pattern = msg.get(field::kPattern);
      std::weak_ptr<net::Endpoint> weak = endpoint;
      std::uint64_t id = store_.subscribe_traced(
          context, pattern,
          [weak, seq](const std::string&, const std::string& attr,
                      const std::string& value, const std::string& trace) {
            if (auto ep = weak.lock()) {
              Message notify(MsgType::kAttrNotify);
              notify.set_seq(seq);  // correlates with the subscribe request
              notify.set(field::kAttribute, attr);
              notify.set(field::kValue, value);
              if (!trace.empty()) notify.set(net::kTraceField, trace);
              ep->send(std::move(notify));
            }
          });
      conn.watcher_ids.push_back(id);
      conn.subs_by_seq.emplace(seq, id);
      Message reply(MsgType::kAttrPutReply);
      reply.set_seq(seq);
      reply.set(field::kStatus, "ok");
      reply.set_int(field::kSubId, static_cast<std::int64_t>(id));
      endpoint->send(std::move(reply));
      break;
    }

    case MsgType::kAttrRemove: {
      reply_status(MsgType::kAttrPutReply,
                   store_.remove(context, msg.get(field::kAttribute)));
      break;
    }

    case MsgType::kAttrList: {
      auto pairs = store_.list(context);
      Message reply(MsgType::kAttrListReply);
      reply.set_seq(seq);
      reply.reserve_fields(2 + 2 * pairs.size());
      reply.set(field::kStatus, "ok");
      reply.set_int(field::kCount, static_cast<std::int64_t>(pairs.size()));
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        reply.set(field::kKeyPrefix + std::to_string(i), std::move(pairs[i].first));
        reply.set(field::kValPrefix + std::to_string(i), std::move(pairs[i].second));
      }
      endpoint->send(std::move(reply));
      break;
    }

    case MsgType::kPing: {
      Message reply(MsgType::kPong);
      reply.set_seq(seq);
      endpoint->send(std::move(reply));
      break;
    }

    default: {
      reply_status(MsgType::kAttrPutReply,
                   make_error(ErrorCode::kInvalidArgument,
                              std::string("unexpected message: ") +
                                  net::msg_type_name(msg.type())));
      break;
    }
  }

  if (dispatch_span.has_value()) {
    const Micros start = dispatch_start;
    dispatch_span->end();
    dispatch_histogram().record(static_cast<std::uint64_t>(
        std::max<Micros>(0, telemetry::Tracer::instance().now() - start)));
  }
}

}  // namespace tdp::attr
