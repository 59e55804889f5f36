#include "decorators.hpp"

#include <optional>
#include <string_view>

#include "attrspace/attr_protocol.hpp"
#include "trace.hpp"

namespace perfbench {

using tdp::Result;
using tdp::Status;
using tdp::net::Message;
using tdp::net::MessageView;
using tdp::net::MsgType;
using Scope = Tracer::Scope;

namespace {

constexpr std::string_view kRequestPrefix = "tdpreq.";

Counters& counters() { return Tracer::instance().counters(); }

// --- transport ---------------------------------------------------------

class TimingEndpoint final : public tdp::net::Endpoint {
 public:
  TimingEndpoint(std::unique_ptr<tdp::net::Endpoint> inner, bool server,
                 std::shared_ptr<NotifyClock> notify)
      : inner_(std::move(inner)), server_(server), notify_(std::move(notify)) {}

  [[nodiscard]] tdp::net::WireVersion wire_version() const noexcept override {
    return inner_->wire_version();
  }
  [[nodiscard]] bool wire_version_pinned() const noexcept override {
    return inner_->wire_version_pinned();
  }
  void pin_wire_version(tdp::net::WireVersion version) noexcept override {
    inner_->pin_wire_version(version);
  }
  void note_peer_wire_version(tdp::net::WireVersion version) noexcept override {
    inner_->note_peer_wire_version(version);
  }

  Status send(const Message& msg) override {
    Timed timed(*this, msg);
    return inner_->send(msg);
  }
  Status send(Message&& msg) override {
    Timed timed(*this, msg);
    return inner_->send(std::move(msg));
  }

  Result<Message> receive(int timeout_ms) override {
    auto msg = inner_->receive(timeout_ms);
    if (server_ && msg.is_ok()) note_request(msg.value());
    return msg;
  }
  Status receive_view(int timeout_ms, MessageView* view) override {
    Status status = inner_->receive_view(timeout_ms, view);
    if (server_ && status.is_ok()) note_request(*view);
    return status;
  }
  Status send_frame(const std::uint8_t* data, std::size_t size) override {
    Scope span("net.send");
    count(size);
    return inner_->send_frame(data, size);
  }
  Status receive_frame(int timeout_ms, std::vector<std::uint8_t>* frame) override {
    return inner_->receive_frame(timeout_ms, frame);
  }
  Status receive_frames(int timeout_ms, std::vector<std::uint8_t>* frames) override {
    return inner_->receive_frames(timeout_ms, frames);
  }

  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_address() const override {
    return inner_->peer_address();
  }

 private:
  /// The spans around one send: the server's reply or notify span when the
  /// message answers a timed request, then net.send itself.
  class Timed {
   public:
    Timed(TimingEndpoint& endpoint, const Message& msg) {
      if (endpoint.server_) {
        if (Nanos at = endpoint.request_time(msg); at != 0) reply_.emplace("attrspace.reply", at);
        if (Nanos at = endpoint.notify_time(msg); at != 0) notify_.emplace("attrspace.notify", at);
      }
      send_.emplace("net.send");
      endpoint.count(msg.encoded_size(endpoint.inner_->wire_version()));
      if (send_->active()) Tracer::instance().capture(msg, endpoint.inner_->wire_version());
    }

   private:
    std::optional<Scope> reply_;
    std::optional<Scope> notify_;
    std::optional<Scope> send_;
  };

  void count(std::size_t bytes) {
    if (!Tracer::instance().enabled()) return;
    counters().msgs.fetch_add(1, std::memory_order_relaxed);
    counters().bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Server side: remembers when a request that is answered at once
  /// arrived (parked gets wait for a put, so they are not timed), and when
  /// a tool's control request was put.
  template <class Msg>
  void note_request(const Msg& msg) {
    if (!Tracer::instance().enabled()) return;
    const Nanos now = now_ns();
    const bool parked = msg.type() == MsgType::kAttrAsyncGet ||
                        (msg.type() == MsgType::kAttrGet &&
                         msg.get(tdp::attr::field::kBlock) == "1");
    if (!parked) {
      tdp::LockGuard lock(mutex_);
      pending_[msg.seq()] = now;
    }
    if (msg.type() == MsgType::kAttrPut) {
      const std::string attr(msg.get(tdp::attr::field::kAttribute));
      if (std::string_view(attr).starts_with(kRequestPrefix)) {
        tdp::LockGuard lock(notify_->mutex);
        notify_->put_at[attr] = now;
      }
    }
  }

  Nanos request_time(const Message& msg) {
    if (msg.type() == MsgType::kAttrNotify) return 0;
    tdp::LockGuard lock(mutex_);
    auto it = pending_.find(msg.seq());
    if (it == pending_.end()) return 0;
    const Nanos at = it->second;
    pending_.erase(it);
    return at;
  }

  Nanos notify_time(const Message& msg) {
    if (msg.type() != MsgType::kAttrNotify) return 0;
    std::string_view attr = msg.get_view(tdp::attr::field::kAttribute);
    if (!attr.starts_with(kRequestPrefix)) return 0;
    tdp::LockGuard lock(notify_->mutex);
    auto it = notify_->put_at.find(std::string(attr));
    if (it == notify_->put_at.end()) return 0;
    const Nanos at = it->second;
    notify_->put_at.erase(it);
    return at;
  }

  std::unique_ptr<tdp::net::Endpoint> inner_;
  const bool server_;
  std::shared_ptr<NotifyClock> notify_;
  tdp::Mutex mutex_{"perfbench::TimingEndpoint::mutex_"};
  std::map<std::uint64_t, Nanos> pending_ TDP_GUARDED_BY(mutex_);
};

class TimingListener final : public tdp::net::Listener {
 public:
  TimingListener(std::unique_ptr<tdp::net::Listener> inner, std::shared_ptr<NotifyClock> notify)
      : inner_(std::move(inner)), notify_(std::move(notify)) {}

  Result<std::unique_ptr<tdp::net::Endpoint>> accept(int timeout_ms) override {
    auto endpoint = inner_->accept(timeout_ms);
    if (!endpoint.is_ok()) return endpoint.status();
    return std::unique_ptr<tdp::net::Endpoint>(
        std::make_unique<TimingEndpoint>(std::move(endpoint).value(), true, notify_));
  }
  [[nodiscard]] std::string address() const override { return inner_->address(); }
  [[nodiscard]] int readable_fd() const override { return inner_->readable_fd(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<tdp::net::Listener> inner_;
  std::shared_ptr<NotifyClock> notify_;
};

tdp::proc::ProcessState initial_state(tdp::proc::CreateMode mode) {
  return mode == tdp::proc::CreateMode::kRun ? tdp::proc::ProcessState::kRunning
                                             : tdp::proc::ProcessState::kPausedAtExec;
}

}  // namespace

Result<std::unique_ptr<tdp::net::Listener>> TimingTransport::listen(const std::string& address) {
  auto listener = inner_->listen(address);
  if (!listener.is_ok()) return listener.status();
  return std::unique_ptr<tdp::net::Listener>(
      std::make_unique<TimingListener>(std::move(listener).value(), notify_));
}

Result<std::unique_ptr<tdp::net::Endpoint>> TimingTransport::connect(const std::string& address) {
  Result<std::unique_ptr<tdp::net::Endpoint>> endpoint =
      tdp::make_error(tdp::ErrorCode::kInternal, "not dialed");
  {
    Scope span("net.connect");
    if (span.active()) counters().connects.fetch_add(1, std::memory_order_relaxed);
    endpoint = inner_->connect(address);
  }
  if (!endpoint.is_ok()) return endpoint.status();
  return std::unique_ptr<tdp::net::Endpoint>(
      std::make_unique<TimingEndpoint>(std::move(endpoint).value(), false, notify_));
}

// --- process backend -----------------------------------------------------

TimingBackend::TimingBackend(std::shared_ptr<tdp::proc::ProcessBackend> inner,
                             std::string tool_path)
    : inner_(std::move(inner)), tool_path_(std::move(tool_path)) {}

Result<tdp::proc::Pid> TimingBackend::create_process(const tdp::proc::CreateOptions& options) {
  const bool tool = !options.argv.empty() && options.argv[0] == tool_path_;
  std::optional<Scope> launch;
  if (tool) {
    launch.emplace("paradyn.launch");
    if (launch->active()) counters().tool_launches.fetch_add(1, std::memory_order_relaxed);
  }
  Result<tdp::proc::Pid> pid = tdp::make_error(tdp::ErrorCode::kInternal, "not created");
  {
    Scope span("proc.create");
    pid = inner_->create_process(options);
  }
  if (pid.is_ok()) {
    tdp::LockGuard lock(mutex_);
    walks_[pid.value()] = Walk{initial_state(options.mode)};
  }
  return pid;
}

Status TimingBackend::attach(tdp::proc::Pid pid) {
  Scope span("proc.signal");
  return inner_->attach(pid);
}

Status TimingBackend::continue_process(tdp::proc::Pid pid) {
  Scope span("proc.signal");
  return inner_->continue_process(pid);
}

Status TimingBackend::pause_process(tdp::proc::Pid pid) {
  Scope span("proc.signal");
  return inner_->pause_process(pid);
}

Status TimingBackend::kill_process(tdp::proc::Pid pid) {
  Scope span("proc.signal");
  return inner_->kill_process(pid);
}

Result<tdp::proc::ProcessInfo> TimingBackend::info(tdp::proc::Pid pid) {
  return inner_->info(pid);
}

std::vector<tdp::proc::ProcessEvent> TimingBackend::poll_events() {
  std::vector<tdp::proc::ProcessEvent> events;
  {
    Scope span("proc.poll");
    events = inner_->poll_events();
  }
  if (Tracer::instance().enabled()) {
    counters().polls.fetch_add(1, std::memory_order_relaxed);
    counters().events.fetch_add(events.size(), std::memory_order_relaxed);
  }
  check_walk(events);
  return events;
}

void TimingBackend::check_walk(const std::vector<tdp::proc::ProcessEvent>& events) {
  tdp::LockGuard lock(mutex_);
  for (const auto& event : events) {
    auto it = walks_.find(event.pid);
    if (it == walks_.end()) {
      counters().illegal.fetch_add(1, std::memory_order_relaxed);  // never created
      continue;
    }
    Walk& walk = it->second;
    // A backend may report the launch state itself as the first event (the
    // sim backend's kCreated -> initial transition).
    const bool launch_report = !walk.seen && event.state == walk.state;
    if (!launch_report && !tdp::proc::valid_transition(walk.state, event.state)) {
      counters().illegal.fetch_add(1, std::memory_order_relaxed);
    }
    walk.state = event.state;
    walk.seen = true;
  }
}

Result<tdp::proc::ProcessInfo> TimingBackend::wait_terminal(tdp::proc::Pid pid, int timeout_ms) {
  Scope span("proc.wait_terminal");
  return inner_->wait_terminal(pid, timeout_ms);
}

std::size_t TimingBackend::managed_count() { return inner_->managed_count(); }

Result<std::string> TimingBackend::checkpoint(tdp::proc::Pid pid) {
  return inner_->checkpoint(pid);
}

Result<tdp::proc::Pid> TimingBackend::restore(const std::string& checkpoint,
                                              const tdp::proc::CreateOptions& options) {
  return inner_->restore(checkpoint, options);
}

// --- tool launcher -------------------------------------------------------

Result<tdp::proc::Pid> TimingLauncher::launch(const tdp::condor::ToolDaemonSpec& spec,
                                              const std::vector<std::string>& argv,
                                              const std::string& lass_address,
                                              const std::string& context,
                                              const std::string& pid_attribute,
                                              tdp::TdpSession& rm_session) {
  Scope span("paradyn.launch");
  if (span.active()) counters().tool_launches.fetch_add(1, std::memory_order_relaxed);
  return inner_.launch(spec, argv, lass_address, context, pid_attribute, rm_session);
}

}  // namespace perfbench
