// decorators.hpp - timing wrappers installed at the program's injection
// seams in traced rounds only:
//
//   * TimingBackend  - a proc::ProcessBackend, through
//     PoolConfig::backend_factory and InitOptions::backend. Times creates,
//     signals and waits, counts poll_events calls and events, and checks
//     that each pid's event stream is a legal proc::valid_transition walk.
//   * TimingTransport - a net::Transport whose listeners and endpoints are
//     wrapped too, through PoolConfig::transport, InitOptions::transport and
//     the AttrServer constructor. Times connects and sends, counts messages
//     and bytes, samples messages for the codec timings, and on server
//     (accepted) endpoints times request -> reply and tdpreq put -> notify.
//     Every Endpoint virtual is forwarded, as net::FaultyEndpoint does, so
//     the raw-frame fast paths and wire-version negotiation are unchanged.
//   * TimingLauncher - a condor::ToolLauncher, through
//     PoolConfig::tool_launcher. Times each tool daemon launch.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "condor/starter.hpp"
#include "net/transport.hpp"
#include "proc/backend.hpp"
#include "util/sync.hpp"

namespace perfbench {

class TimingBackend final : public tdp::proc::ProcessBackend {
 public:
  /// Creates whose argv[0] is `tool_path` are tool daemon launches.
  TimingBackend(std::shared_ptr<tdp::proc::ProcessBackend> inner, std::string tool_path);

  tdp::Result<tdp::proc::Pid> create_process(const tdp::proc::CreateOptions& options) override;
  tdp::Status attach(tdp::proc::Pid pid) override;
  tdp::Status continue_process(tdp::proc::Pid pid) override;
  tdp::Status pause_process(tdp::proc::Pid pid) override;
  tdp::Status kill_process(tdp::proc::Pid pid) override;
  tdp::Result<tdp::proc::ProcessInfo> info(tdp::proc::Pid pid) override;
  std::vector<tdp::proc::ProcessEvent> poll_events() override;
  tdp::Result<tdp::proc::ProcessInfo> wait_terminal(tdp::proc::Pid pid, int timeout_ms) override;
  std::size_t managed_count() override;
  tdp::Result<std::string> checkpoint(tdp::proc::Pid pid) override;
  tdp::Result<tdp::proc::Pid> restore(const std::string& checkpoint,
                                      const tdp::proc::CreateOptions& options) override;

 private:
  void check_walk(const std::vector<tdp::proc::ProcessEvent>& events);

  std::shared_ptr<tdp::proc::ProcessBackend> inner_;
  std::string tool_path_;
  tdp::Mutex mutex_{"perfbench::TimingBackend::mutex_"};
  /// Last state seen per pid, seeded at create with the state the launch
  /// mode leaves it in, and whether any event for it arrived yet.
  struct Walk {
    tdp::proc::ProcessState state;
    bool seen = false;
  };
  std::map<tdp::proc::Pid, Walk> walks_ TDP_GUARDED_BY(mutex_);
};

/// State shared by every endpoint of one TimingTransport: when each
/// tdpreq.* put arrived at a server, so the notify it triggers (sent on
/// the RM's connection) can be timed against it.
struct NotifyClock {
  tdp::Mutex mutex{"perfbench::NotifyClock::mutex"};
  std::map<std::string, Nanos> put_at TDP_GUARDED_BY(mutex);
};

class TimingTransport final : public tdp::net::Transport {
 public:
  explicit TimingTransport(std::shared_ptr<tdp::net::Transport> inner)
      : inner_(std::move(inner)), notify_(std::make_shared<NotifyClock>()) {}

  tdp::Result<std::unique_ptr<tdp::net::Listener>> listen(const std::string& address) override;
  tdp::Result<std::unique_ptr<tdp::net::Endpoint>> connect(const std::string& address) override;

 private:
  std::shared_ptr<tdp::net::Transport> inner_;
  std::shared_ptr<NotifyClock> notify_;
};

class TimingLauncher final : public tdp::condor::ToolLauncher {
 public:
  explicit TimingLauncher(tdp::condor::ToolLauncher& inner) : inner_(inner) {}

  tdp::Result<tdp::proc::Pid> launch(const tdp::condor::ToolDaemonSpec& spec,
                                     const std::vector<std::string>& argv,
                                     const std::string& lass_address,
                                     const std::string& context,
                                     const std::string& pid_attribute,
                                     tdp::TdpSession& rm_session) override;

 private:
  tdp::condor::ToolLauncher& inner_;
};

}  // namespace perfbench
