// test_event_fd.cpp - AttrClient::readable_fd() is honest (Section 3.3):
// it polls readable exactly while service_events() has work, including
// work a blocking call read off the wire on the caller's behalf.
//
// The historical bug: readable_fd() was the raw transport descriptor. A
// notify that arrived while a blocking put awaited its ack was queued
// inside the client (or left in the TCP receive buffer by the same recv
// that carried the ack), so the descriptor stayed silent while the work
// waited for the daemon's next timer tick.
#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "attrspace/attr_client.hpp"
#include "attrspace/attr_protocol.hpp"
#include "attrspace/attr_server.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace tdp {
namespace {

/// poll(2) on one descriptor: 1 readable, 0 not within `timeout_ms`.
int poll_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms);
}

TEST(AttrClientEventFd, NotifyReadDuringBlockingPutKeepsFdReadable) {
  auto transport = net::InProcTransport::create();
  attr::AttrServer server("evfd-lass", transport);
  auto address = server.start("inproc://evfd");
  ASSERT_TRUE(address.is_ok()) << address.status().to_string();
  auto daemon = attr::AttrClient::connect(*transport, address.value(), "evfd");
  auto writer = attr::AttrClient::connect(*transport, address.value(), "evfd");
  ASSERT_TRUE(daemon.is_ok() && writer.is_ok());

  const int fd = daemon.value()->readable_fd();
  ASSERT_GE(fd, 0);
  int notifies = 0;
  ASSERT_TRUE(daemon.value()
                  ->subscribe("req.*", [&](const std::string&, const std::string&) {
                    ++notifies;
                  })
                  .is_ok());
  daemon.value()->service_events();
  ASSERT_EQ(poll_readable(fd, 0), 0);

  // The writer's put returns once the server has sent the notify, so the
  // daemon's next blocking call reads it off the wire before its own ack.
  ASSERT_TRUE(writer.value()->put("req.1", "pause").is_ok());
  ASSERT_TRUE(daemon.value()->put("state", "running").is_ok());
  EXPECT_EQ(notifies, 0) << "callbacks run only from service_events()";
  EXPECT_EQ(poll_readable(fd, 0), 1) << "queued notify not visible on the fd";
  EXPECT_EQ(poll_readable(fd, 0), 1) << "the fd must stay readable until serviced";

  EXPECT_EQ(daemon.value()->service_events(), 1);
  EXPECT_EQ(notifies, 1);
  EXPECT_EQ(poll_readable(fd, 0), 0);
  server.stop();
}

/// A scripted LASS on a real socket: answers init and subscribe, then
/// writes the ack of the first put and a notify for the subscription with
/// one send(), as a busy server's coalesced writes would arrive.
class CoalescingServer {
 public:
  CoalescingServer() {
    auto listener = transport_.listen("127.0.0.1:0");
    EXPECT_TRUE(listener.is_ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { serve(); });
  }
  ~CoalescingServer() {
    stop_.store(true);
    thread_.join();
  }
  [[nodiscard]] std::string address() const { return listener_->address(); }

 private:
  void serve() {
    auto accepted = listener_->accept(5000);
    if (!accepted.is_ok()) return;
    std::unique_ptr<net::Endpoint> peer = std::move(accepted).value();
    std::uint64_t subscription = 0;
    while (!stop_.load()) {
      auto request = peer->receive(50);
      if (!request.is_ok()) {
        if (request.status().code() == ErrorCode::kTimeout) continue;
        return;
      }
      const net::Message& msg = request.value();
      net::Message ack(msg.type() == net::MsgType::kAttrInit
                           ? net::MsgType::kAttrInitReply
                           : net::MsgType::kAttrPutReply);
      ack.set_seq(msg.seq());
      ack.set(attr::field::kStatus, "ok");
      if (msg.type() == net::MsgType::kAttrSubscribe) subscription = msg.seq();
      if (msg.type() != net::MsgType::kAttrPut) {
        peer->send(ack);
        continue;
      }
      net::Message notify(net::MsgType::kAttrNotify);
      notify.set_seq(subscription);
      notify.set(attr::field::kAttribute, "req.1");
      notify.set(attr::field::kValue, "pause");
      std::vector<std::uint8_t> burst = ack.encode();
      const std::vector<std::uint8_t> second = notify.encode();
      burst.insert(burst.end(), second.begin(), second.end());
      peer->send_frame(burst.data(), burst.size());
    }
  }

  net::TcpTransport transport_;
  std::unique_ptr<net::Listener> listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(AttrClientEventFd, NotifyCoalescedWithPutAckOverTcp) {
  CoalescingServer server;
  net::TcpTransport transport;
  auto daemon = attr::AttrClient::connect(transport, server.address(), "evfd");
  ASSERT_TRUE(daemon.is_ok()) << daemon.status().to_string();
  const int fd = daemon.value()->readable_fd();
  std::vector<std::string> seen;
  ASSERT_TRUE(daemon.value()
                  ->subscribe("req.*",
                              [&](const std::string& attribute, const std::string& value) {
                                seen.push_back(attribute + "=" + value);
                              })
                  .is_ok());
  daemon.value()->service_events();
  ASSERT_EQ(poll_readable(fd, 0), 0);

  ASSERT_TRUE(daemon.value()->put("state", "running").is_ok());
  // The notify came in the same recv() as the ack; it must not hide in the
  // transport's buffer where the socket's readiness cannot show it.
  EXPECT_EQ(poll_readable(fd, 0), 1);
  daemon.value()->service_events();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "req.1=pause");
  EXPECT_EQ(poll_readable(fd, 0), 0);
  daemon.value()->abandon();
}

}  // namespace
}  // namespace tdp
