#include "paradyn/frontend.hpp"

#include "attrspace/attr_protocol.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"

namespace tdp::paradyn {

namespace {
const log::Logger kLog("paradyn_fe");
}

Frontend::Frontend(std::shared_ptr<net::Transport> transport)
    : transport_(std::move(transport)) {}

Frontend::~Frontend() { stop(); }

Result<std::string> Frontend::start(const std::string& listen_address) {
  auto listener = transport_->listen(listen_address);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  running_.store(true, std::memory_order_release);
  {
    LockGuard lock(mutex_);
    threads_.emplace_back([this] { accept_loop(); });
  }
  kLog.info("front-end listening on ", address_);
  return address_;
}

void Frontend::stop() {
  running_.store(false, std::memory_order_release);
  if (cass_) {
    cass_->exit();
    cass_.reset();
  }
  if (listener_) listener_->close();
  while (true) {
    std::vector<std::thread> to_join;
    std::map<proc::Pid, std::shared_ptr<net::Endpoint>> to_close;
    {
      LockGuard lock(mutex_);
      to_join.swap(threads_);
      to_close.swap(daemons_);
    }
    if (to_join.empty() && to_close.empty()) break;
    for (auto& [pid, endpoint] : to_close) endpoint->close();
    for (auto& thread : to_join) {
      if (thread.joinable()) thread.join();
    }
  }
}

std::string Frontend::host() const {
  std::string host_part;
  int port_part = 0;
  if (str::parse_host_port(address_, &host_part, &port_part)) return host_part;
  return address_;  // inproc-style address is its own "host"
}

int Frontend::port() const {
  std::string host_part;
  int port_part = 0;
  if (str::parse_host_port(address_, &host_part, &port_part)) return port_part;
  return 0;
}

std::size_t Frontend::daemon_count() const {
  LockGuard lock(mutex_);
  return daemons_.size();
}

std::vector<proc::Pid> Frontend::finished_pids() const {
  LockGuard lock(mutex_);
  return finished_;
}

void Frontend::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_->accept(200);
    if (!accepted.is_ok()) {
      if (accepted.status().code() == ErrorCode::kTimeout) continue;
      break;
    }
    std::shared_ptr<net::Endpoint> endpoint(std::move(accepted).value().release());
    bool rejected = false;
    {
      LockGuard lock(mutex_);
      if (!running_.load(std::memory_order_acquire)) {
        rejected = true;  // closed below, outside the registry lock
      } else {
        threads_.emplace_back([this, endpoint] { serve_daemon(endpoint); });
      }
    }
    if (rejected) {
      endpoint->close();
      break;
    }
  }
}

void Frontend::serve_daemon(std::shared_ptr<net::Endpoint> endpoint) {
  proc::Pid pid = 0;
  while (running_.load(std::memory_order_acquire)) {
    auto received = endpoint->receive(200);
    if (!received.is_ok()) {
      if (received.status().code() == ErrorCode::kTimeout) continue;
      break;
    }
    const net::Message& msg = received.value();
    switch (msg.type()) {
      case net::MsgType::kParadynHello: {
        pid = msg.get_int("pid");
        LockGuard lock(mutex_);
        daemons_[pid] = endpoint;
        kLog.info("daemon '", msg.get("daemon"), "' attached to pid ", pid,
                  " (", msg.get("executable"), ")");
        break;
      }
      case net::MsgType::kParadynReport: {
        reports_.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t count = msg.get_int("count");
        const proc::Pid report_pid = msg.get_int("pid");
        for (std::int64_t i = 0; i < count; ++i) {
          const std::string n = std::to_string(i);
          Sample sample;
          const std::string metric = msg.get("m" + n);
          if (metric == "cpu_time") sample.metric = Metric::kCpuTime;
          else if (metric == "call_count") sample.metric = Metric::kCallCount;
          else if (metric == "sync_wait") sample.metric = Metric::kSyncWait;
          else if (metric == "io_wait") sample.metric = Metric::kIoWait;
          sample.module = msg.get("mod" + n);
          sample.function = msg.get("fn" + n);
          sample.value = std::stod(msg.get("v" + n, "0"));
          metrics_.record(sample, report_pid);
        }
        if (msg.get("final") == "1") {
          LockGuard lock(mutex_);
          finished_.push_back(report_pid);
        }
        break;
      }
      case net::MsgType::kParadynCommandReply:
        // Acknowledgements are informational; errors are logged.
        if (msg.get("status") != "ok") {
          kLog.warn("daemon command failed: ", msg.get("status"));
        }
        break;
      default:
        kLog.warn("unexpected daemon message: ", msg.to_string());
        break;
    }
  }
  if (pid != 0) {
    LockGuard lock(mutex_);
    daemons_.erase(pid);
  }
  endpoint->close();
}

Status Frontend::command(proc::Pid pid, const std::string& cmd,
                         const std::map<std::string, std::string>& fields) {
  std::shared_ptr<net::Endpoint> endpoint;
  {
    LockGuard lock(mutex_);
    auto it = daemons_.find(pid);
    if (it == daemons_.end()) {
      return make_error(ErrorCode::kNotFound,
                        "no daemon for pid " + std::to_string(pid));
    }
    endpoint = it->second;
  }
  net::Message msg(net::MsgType::kParadynCommand);
  msg.set("cmd", cmd);
  for (const auto& [key, value] : fields) msg.set(key, value);
  return endpoint->send(msg);
}

Status Frontend::command_all(const std::string& cmd,
                             const std::map<std::string, std::string>& fields) {
  std::vector<std::shared_ptr<net::Endpoint>> endpoints;
  {
    LockGuard lock(mutex_);
    endpoints.reserve(daemons_.size());
    for (auto& [pid, endpoint] : daemons_) endpoints.push_back(endpoint);
  }
  Status last = Status::ok();
  for (auto& endpoint : endpoints) {
    net::Message msg(net::MsgType::kParadynCommand);
    msg.set("cmd", cmd);
    for (const auto& [key, value] : fields) msg.set(key, value);
    Status sent = endpoint->send(msg);
    if (!sent.is_ok()) last = sent;
  }
  return last;
}

Status Frontend::publish_contact(const std::string& cass_address,
                                 const std::string& context) {
  auto client = attr::AttrClient::connect(*transport_, cass_address, context);
  if (!client.is_ok()) return client.status();
  cass_ = std::move(client).value();
  TDP_RETURN_IF_ERROR(cass_->put(attr::attrs::kFrontendHost, host()));
  TDP_RETURN_IF_ERROR(
      cass_->put(attr::attrs::kFrontendPort, std::to_string(port())));
  TDP_RETURN_IF_ERROR(
      cass_->put(attr::attrs::kFrontendPort2, std::to_string(port2())));
  kLog.info("contact info published to CASS at ", cass_address);
  return Status::ok();
}

std::vector<PerformanceConsultant::Finding> Frontend::run_consultant(
    PerformanceConsultant::Options options) {
  PerformanceConsultant consultant(metrics_, options);
  return consultant.search();
}

}  // namespace tdp::paradyn
