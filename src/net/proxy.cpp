#include "net/proxy.hpp"

#include <algorithm>
#include <chrono>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::net {

namespace {
const log::Logger kLog("proxy");

// Frames relayed in either direction, across all tunnels. Since PR 6 the
// pumps move raw frames (send_frame/receive_frame) without decoding, so
// trace headers, unknown fields, and the sender's wire version all pass
// through byte-identical - and the relay never pays a field-table parse.
telemetry::Counter& relayed_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("proxy.frames_relayed");
  return c;
}

// A relayed burst holds whole frames only (receive_frames guarantees it),
// so counting them is a prefix walk, no decode.
std::size_t count_frames(const std::uint8_t* data, std::size_t size) {
  std::size_t frames = 0;
  std::size_t offset = 0;
  while (offset + Message::kLenPrefixSize <= size) {
    offset += Message::kLenPrefixSize + Message::peek_length(data + offset);
    ++frames;
  }
  return frames;
}
}  // namespace

ProxyServer::ProxyServer(std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::register_service(const std::string& name,
                                   const std::string& target_address) {
  LockGuard lock(mutex_);
  services_[name] = target_address;
}

void ProxyServer::unregister_service(const std::string& name) {
  LockGuard lock(mutex_);
  services_.erase(name);
}

Result<std::string> ProxyServer::start(const std::string& listen_address) {
  auto listener = transport_->listen(listen_address);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_->address();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  kLog.info("proxy listening on ", address_);
  return address_;
}

void ProxyServer::stop() {
  running_.store(false, std::memory_order_release);
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Sever every live tunnel so detached pump threads wind down, then wait
  // for the count to drain. The registry is swapped out under the lock but
  // the endpoints are closed outside it: close() can cascade into socket
  // shutdown / signal-pipe writes, and pump threads contend on mutex_.
  std::vector<std::weak_ptr<Endpoint>> doomed;
  {
    LockGuard lock(mutex_);
    doomed.swap(live_endpoints_);
  }
  for (auto& weak : doomed) {
    if (auto endpoint = weak.lock()) endpoint->close();
  }
  while (active_threads_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string ProxyServer::address() const {
  return address_;
}

std::size_t ProxyServer::tunnels_opened() const {
  return tunnels_.load(std::memory_order_relaxed);
}

void ProxyServer::set_relink_policy(RelinkPolicy policy) {
  LockGuard lock(mutex_);
  relink_ = policy;
}

void ProxyServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_->accept(200);
    if (!accepted.is_ok()) {
      if (accepted.status().code() == ErrorCode::kTimeout) continue;
      break;  // listener closed or failed
    }
    std::shared_ptr<Endpoint> shared(std::move(accepted).value().release());
    bool rejected = false;
    {
      LockGuard lock(mutex_);
      if (!running_.load(std::memory_order_acquire)) {
        rejected = true;  // closed below, outside the registry lock
      } else {
        // Prune dead entries so the registry stays proportional to LIVE
        // tunnels, not historical ones.
        live_endpoints_.erase(
            std::remove_if(live_endpoints_.begin(), live_endpoints_.end(),
                           [](const std::weak_ptr<Endpoint>& weak) {
                             return weak.expired();
                           }),
            live_endpoints_.end());
        live_endpoints_.push_back(shared);
      }
    }
    if (rejected) {
      shared->close();
      break;
    }
    active_threads_.fetch_add(1, std::memory_order_acq_rel);
    std::thread([this, shared]() mutable {
      handle_connection_shared(std::move(shared));
      active_threads_.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
  }
}

void ProxyServer::handle_connection_shared(std::shared_ptr<Endpoint> client) {
  auto hello = client->receive(5000);
  if (!hello.is_ok() || hello->type() != MsgType::kProxyConnect) {
    client->close();
    return;
  }
  const std::string service = hello->get("service");
  std::string target;
  {
    LockGuard lock(mutex_);
    auto it = services_.find(service);
    if (it != services_.end()) target = it->second;
  }
  // The handshake stays version-neutral (plain v1): the proxy cannot speak
  // for the upstream's capabilities. End-to-end negotiation rides the
  // application's first messages, which the raw-frame pumps relay verbatim.
  Message reply(MsgType::kProxyConnectReply);
  if (target.empty()) {
    reply.set("status", "error").set("error", "unknown service: " + service);
    client->send(reply);
    client->close();
    return;
  }
  auto dialed = transport_->connect(target);
  if (!dialed.is_ok()) {
    reply.set("status", "error").set("error", dialed.status().to_string());
    client->send(reply);
    client->close();
    return;
  }
  std::shared_ptr<Endpoint> upstream(std::move(dialed).value().release());
  reply.set("status", "ok");
  // Counted before the ok goes out, so a client that has its tunnel also
  // sees it in tunnels_opened().
  tunnels_.fetch_add(1, std::memory_order_relaxed);
  if (!client->send(reply).is_ok()) {
    tunnels_.fetch_sub(1, std::memory_order_relaxed);
    client->close();
    upstream->close();
    return;
  }
  kLog.debug("tunnel opened: service=", service, " target=", target);
  recorder_->state("tunnel-open", "service=" + service + " target=" + target);
  auto tunnel = std::make_shared<Tunnel>();
  tunnel->client = client;
  tunnel->target = target;
  int relink_budget = 0;
  bool stopped = false;
  {
    LockGuard lock(mutex_);
    if (!running_.load(std::memory_order_acquire)) {
      // stop() already swept the registry; do not start a tunnel it can
      // no longer sever. Closes happen below, outside the registry lock.
      stopped = true;
    } else {
      relink_budget = relink_.enabled ? relink_.max_relinks : 0;
      live_endpoints_.push_back(upstream);
    }
  }
  if (stopped) {
    client->close();
    upstream->close();
    return;
  }
  {
    // Deliberately outside mutex_: the tunnel lock orders before the
    // registry lock (see the Tunnel comment in the header).
    LockGuard tlock(tunnel->mu);
    tunnel->upstream = upstream;
    tunnel->relinks_left = relink_budget;
  }
  // Reverse direction pumped on its own (detached, counted) thread;
  // forward direction pumped on this connection's thread. Both endpoints
  // stay alive through the captured shared_ptrs.
  active_threads_.fetch_add(1, std::memory_order_acq_rel);
  std::thread([this, tunnel] {
    pump_upstream_to_client(tunnel);
    active_threads_.fetch_sub(1, std::memory_order_acq_rel);
  }).detach();
  pump_client_to_upstream(tunnel);
}

bool ProxyServer::relink(Tunnel& tunnel, std::uint64_t seen_generation) {
  // Held across the redial (backoff included): with the upstream dead no
  // traffic can flow anyway, and the lock makes the two pumps agree on a
  // single replacement instead of racing to dial twice.
  LockGuard lock(tunnel.mu);
  if (tunnel.generation != seen_generation) return tunnel.upstream != nullptr;
  if (tunnel.upstream) tunnel.upstream->close();
  if (!tunnel.client->is_open()) {  // nobody left to relay for
    tunnel.upstream.reset();
    return false;
  }
  int backoff;
  {
    LockGuard plock(mutex_);
    backoff = relink_.backoff_ms;
  }
  while (tunnel.relinks_left > 0 && running_.load(std::memory_order_acquire)) {
    --tunnel.relinks_left;
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
    auto dialed = transport_->connect(tunnel.target);
    if (!dialed.is_ok()) continue;
    std::shared_ptr<Endpoint> fresh(std::move(dialed).value().release());
    bool stopped = false;
    {
      LockGuard plock(mutex_);
      if (!running_.load(std::memory_order_acquire)) {
        stopped = true;  // closed below, outside the registry lock
      } else {
        live_endpoints_.push_back(fresh);
      }
    }
    if (stopped) {
      fresh->close();
      break;
    }
    tunnel.upstream = std::move(fresh);
    ++tunnel.generation;
    relinks_.fetch_add(1, std::memory_order_relaxed);
    kLog.info("tunnel upstream relinked: target=", tunnel.target,
              " generation=", tunnel.generation);
    recorder_->state("relink", "target=" + tunnel.target + " generation=" +
                                   std::to_string(tunnel.generation));
    return true;
  }
  tunnel.upstream.reset();
  return false;
}

void ProxyServer::pump_client_to_upstream(const std::shared_ptr<Tunnel>& tunnel) {
  // One warm burst buffer per pump thread: steady state relays with zero
  // allocation, zero decode, and one write per pipelined burst.
  std::vector<std::uint8_t> frame;
  while (running_.load(std::memory_order_acquire)) {
    // Bounded receive so stop() is honored; receive_frames(-1) here would
    // wedge the thread forever on an idle-but-open client.
    auto received = tunnel->client->receive_frames(200, &frame);
    if (!received.is_ok()) {
      if (received.code() == ErrorCode::kTimeout) continue;
      break;  // client gone: the tunnel is over
    }
    bool forwarded = false;
    while (running_.load(std::memory_order_acquire)) {
      std::shared_ptr<Endpoint> up;
      std::uint64_t generation;
      {
        LockGuard lock(tunnel->mu);
        up = tunnel->upstream;
        generation = tunnel->generation;
      }
      if (!up) break;
      // The buffered burst survives a relink, so the redial path re-sends
      // the same bytes on the fresh upstream.
      if (up->send_frame(frame.data(), frame.size()).is_ok()) {
        forwarded = true;
        relayed_counter().add(count_frames(frame.data(), frame.size()));
        break;
      }
      if (!relink(*tunnel, generation)) break;  // retry send on the new link
    }
    if (!forwarded) break;
  }
  tunnel->client->close();
  LockGuard lock(tunnel->mu);
  if (tunnel->upstream) tunnel->upstream->close();
}

void ProxyServer::pump_upstream_to_client(const std::shared_ptr<Tunnel>& tunnel) {
  std::vector<std::uint8_t> frame;
  while (running_.load(std::memory_order_acquire)) {
    std::shared_ptr<Endpoint> up;
    std::uint64_t generation;
    {
      LockGuard lock(tunnel->mu);
      up = tunnel->upstream;
      generation = tunnel->generation;
    }
    if (!up) break;
    auto received = up->receive_frames(200, &frame);
    if (!received.is_ok()) {
      if (received.code() == ErrorCode::kTimeout) continue;
      if (relink(*tunnel, generation)) continue;
      break;
    }
    if (!tunnel->client->send_frame(frame.data(), frame.size()).is_ok()) break;
    relayed_counter().add(count_frames(frame.data(), frame.size()));
  }
  tunnel->client->close();
  LockGuard lock(tunnel->mu);
  if (tunnel->upstream) tunnel->upstream->close();
}

Result<std::unique_ptr<Endpoint>> proxy_connect(Transport& transport,
                                                const std::string& proxy_address,
                                                const std::string& service) {
  auto connected = transport.connect(proxy_address);
  if (!connected.is_ok()) return connected.status();
  std::unique_ptr<Endpoint> endpoint = std::move(connected).value();

  Message hello(MsgType::kProxyConnect);
  hello.set("service", service);
  TDP_RETURN_IF_ERROR(endpoint->send(hello));

  auto reply = endpoint->receive(5000);
  if (!reply.is_ok()) return reply.status();
  if (reply->type() != MsgType::kProxyConnectReply) {
    return make_error(ErrorCode::kInternal,
                      "unexpected proxy reply: " + reply->to_string());
  }
  if (reply->get("status") != "ok") {
    return make_error(ErrorCode::kNotFound,
                      "proxy refused service '" + service + "': " + reply->get("error"));
  }
  return endpoint;
}

Result<std::unique_ptr<Endpoint>> connect_direct_or_proxied(
    Transport& transport, const std::string& target_address,
    const std::string& proxy_address, const std::string& service) {
  auto direct = transport.connect(target_address);
  if (direct.is_ok()) return direct;
  if (direct.status().code() != ErrorCode::kPermissionDenied || proxy_address.empty()) {
    return direct.status();
  }
  kLog.debug("direct connect to ", target_address, " blocked; using proxy ",
             proxy_address);
  return proxy_connect(transport, proxy_address, service);
}

}  // namespace tdp::net
