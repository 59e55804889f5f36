// Tests for TdpSession inside a real Reactor poll loop — the Section 3.3
// daemon structure at the C++ level — plus coverage for async_put,
// CASS operations, and the tdp_fd contract.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>

#include <atomic>
#include <thread>

#include "attrspace/attr_server.hpp"
#include "core/tdp.hpp"
#include "net/inproc.hpp"
#include "net/reactor.hpp"
#include "proc/posix_backend.hpp"
#include "proc/sim_backend.hpp"

namespace tdp {
namespace {

class SessionEventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    transport_ = net::InProcTransport::create();
    lass_ = std::make_unique<attr::AttrServer>("LASS", transport_);
    lass_address_ = lass_->start("inproc://loop-lass").value();
  }

  void TearDown() override { lass_->stop(); }

  std::unique_ptr<TdpSession> make_session(Role role) {
    InitOptions options;
    options.role = role;
    options.lass_address = lass_address_;
    options.transport = transport_;
    if (role == Role::kResourceManager) {
      options.backend = std::make_shared<proc::SimProcessBackend>();
    }
    return TdpSession::init(std::move(options)).value();
  }

  std::shared_ptr<net::InProcTransport> transport_;
  std::unique_ptr<attr::AttrServer> lass_;
  std::string lass_address_;
};

TEST_F(SessionEventLoopTest, ReactorDrivenDaemonLoop) {
  // The canonical daemon structure: the session's event fd registered in
  // a Reactor; the handler calls service_events. Exactly the paper's
  // "asynchronous events simply cause activity on a descriptor".
  auto rm = make_session(Role::kResourceManager);
  auto tool = make_session(Role::kTool);

  net::Reactor reactor;
  int completions = 0;
  reactor.add_readable(tool->event_fd(), [&] { completions += tool->service_events(); });

  tool->async_get("pid", [](const Status&, const std::string&, const std::string&) {});
  tool->async_get("executable_name",
                  [](const Status&, const std::string&, const std::string&) {});
  EXPECT_EQ(reactor.run_once(50), 0);  // nothing completed yet

  rm->put("executable_name", "/bin/app");
  int spins = 0;
  while (completions < 1 && spins++ < 200) reactor.run_once(100);
  EXPECT_EQ(completions, 1);

  rm->put("pid", "99");
  while (completions < 2 && spins++ < 400) reactor.run_once(100);
  EXPECT_EQ(completions, 2);
}

TEST_F(SessionEventLoopTest, AsyncPutCompletesViaServiceEvents) {
  auto session = make_session(Role::kTool);
  Status seen = make_error(ErrorCode::kInternal, "pending");
  auto fd = session->async_put("key", "value",
                               [&seen](const Status& status, const std::string&,
                                       const std::string&) { seen = status; });
  ASSERT_TRUE(fd.is_ok());
  struct pollfd pfd{fd.value(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 3000), 1);
  while (!seen.is_ok()) session->service_events();
  EXPECT_EQ(session->try_get("key").value(), "value");
}

TEST_F(SessionEventLoopTest, CassOpsRequireConfiguration) {
  auto session = make_session(Role::kTool);
  EXPECT_EQ(session->cass_put("a", "b").code(), ErrorCode::kInvalidState);
  EXPECT_EQ(session->cass_get("a", 10).status().code(), ErrorCode::kInvalidState);
  EXPECT_FALSE(session->has_cass());
}

TEST_F(SessionEventLoopTest, CassOpsWorkWhenConfigured) {
  attr::AttrServer cass("CASS", transport_);
  auto cass_address = cass.start("inproc://loop-cass").value();

  InitOptions options;
  options.lass_address = lass_address_;
  options.cass_address = cass_address;
  options.transport = transport_;
  auto session = TdpSession::init(std::move(options)).value();
  ASSERT_TRUE(session->has_cass());

  ASSERT_TRUE(session->cass_put("global", "value").is_ok());
  EXPECT_EQ(session->cass_get("global", 2000).value(), "value");
  // LASS and CASS are distinct spaces.
  EXPECT_EQ(session->try_get("global").status().code(), ErrorCode::kNotFound);

  session->exit();
  cass.stop();
}

TEST_F(SessionEventLoopTest, EventFdIsPollable) {
  auto session = make_session(Role::kTool);
  EXPECT_GE(session->event_fd(), 0);
  struct pollfd pfd{session->event_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);  // quiescent session: nothing pending
}

TEST_F(SessionEventLoopTest, SubscriptionSurvivesManyEvents) {
  auto rm = make_session(Role::kResourceManager);
  auto tool = make_session(Role::kTool);
  int notifications = 0;
  ASSERT_TRUE(tool->subscribe("tick*", [&](const std::string&, const std::string&) {
                     ++notifications;
                   })
                  .is_ok());
  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    rm->put("tick" + std::to_string(i), "x");
  }
  for (int spins = 0; notifications < kEvents && spins < 1000; ++spins) {
    tool->service_events();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(notifications, kEvents);
}

// The RM loop's one descriptor covers both of its event sources: a tool's
// control request (attribute traffic) and a child's exit (the backend's
// pidfd), so an RM can block on it with no timer tick.
TEST_F(SessionEventLoopTest, RmEventFdWakesOnControlRequestAndChildExit) {
  InitOptions options;
  options.role = Role::kResourceManager;
  options.lass_address = lass_address_;
  options.transport = transport_;
  options.backend = std::make_shared<proc::PosixProcessBackend>();
  auto rm = TdpSession::init(std::move(options)).value();
  auto tool = make_session(Role::kTool);

  proc::CreateOptions child;
  child.argv = {"/bin/sleep", "30"};
  auto pid = rm->create_process(child);
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  const int fd = rm->event_fd();
  ASSERT_GE(fd, 0);
  rm->service_events();
  struct pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 0), 0);

  // A tool's pause travels through the space; only the fd wakes the RM.
  Status paused;
  std::atomic<bool> replied{false};
  std::thread tool_thread([&] {
    paused = tool->pause_process(pid.value());
    replied.store(true);
  });
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 5000), 1) << "control request did not wake the RM";
  for (int turns = 0; turns < 100 && !replied.load(); ++turns) {
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) == 1) rm->service_events();
  }
  tool_thread.join();
  ASSERT_TRUE(paused.is_ok()) << paused.to_string();
  rm->service_events();

  // The child dies behind the RM's back; its exit alone wakes the fd.
  ::kill(static_cast<pid_t>(pid.value()), SIGKILL);
  pfd.revents = 0;
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "child exit did not wake the RM";
  int handled = rm->service_events();
  for (int turns = 0; handled == 0 && turns < 100; ++turns) {
    pfd.revents = 0;
    ::poll(&pfd, 1, 50);
    handled += rm->service_events();
  }
  EXPECT_GE(handled, 1);
  EXPECT_EQ(rm->process_info(pid.value())->state, proc::ProcessState::kSignalled);
  EXPECT_EQ(tool->process_info(pid.value())->state, proc::ProcessState::kSignalled);
}

}  // namespace
}  // namespace tdp
