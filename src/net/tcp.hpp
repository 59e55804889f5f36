// tcp.hpp - real TCP transport with length-prefixed message framing.
//
// This is the transport a deployed TDP installation would use between the
// submit host (RM/RT front-ends, CASS) and the execution hosts (starter,
// paradynd, LASS). Addresses are "host:port"; listeners may bind port 0 to
// get a kernel-assigned port, mirroring how the Paradyn front-end publishes
// its -p/-P listener ports (Figure 5B).
#pragma once

#include <memory>
#include <string>

#include "net/transport.hpp"

namespace tdp::net {

class TcpTransport final : public Transport {
 public:
  /// `address` forms: "host:port" or ":port"; host defaults to 127.0.0.1.
  /// Binding port 0 allocates an ephemeral port, reported by address().
  Result<std::unique_ptr<Listener>> listen(const std::string& address) override;
  Result<std::unique_ptr<Endpoint>> connect(const std::string& address) override;
};

}  // namespace tdp::net
