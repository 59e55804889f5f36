#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

#include "util/clock.hpp"
#include "util/fd.hpp"
#include "util/string_util.hpp"
#include "util/sync.hpp"

namespace tdp::net {

namespace {

Status errno_status(ErrorCode code, const char* what) {
  return make_error(code, std::string(what) + ": " + std::strerror(errno));
}

/// Remaining milliseconds until `deadline` (util/clock micros); -1 means
/// "no deadline".
int remaining_ms(Micros deadline, bool has_deadline) {
  if (!has_deadline) return -1;
  const Micros now = RealClock::instance().now_micros();
  if (now >= deadline) return 0;
  return static_cast<int>((deadline - now) / 1000 + 1);
}

/// Waits for events on fd. Returns kOk when ready, kTimeout otherwise.
Status poll_fd(int fd, short events, int timeout_ms) {
  struct pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::ok();
    if (rc == 0) return make_error(ErrorCode::kTimeout, "poll timed out");
    if (errno == EINTR) continue;
    return errno_status(ErrorCode::kConnectionError, "poll");
  }
}

bool parse_address(const std::string& address, sockaddr_in* out) {
  std::string host;
  int port = 0;
  if (!str::parse_host_port(address, &host, &port)) {
    // Accept ":port" form.
    if (!address.empty() && address[0] == ':' && str::is_integer(address.substr(1))) {
      host = "127.0.0.1";
      port = std::stoi(address.substr(1));
    } else {
      return false;
    }
  }
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) return false;
  return true;
}

std::string address_of(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return str::format_host_port(buf, ntohs(sa.sin_port));
}

/// A connected stream socket speaking the Message framing.
class TcpEndpoint final : public Endpoint {
 public:
  explicit TcpEndpoint(UniqueFd fd) : fd_(std::move(fd)) {
    int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&peer), &len) == 0) {
      peer_ = address_of(peer);
    }
  }

  ~TcpEndpoint() override { TcpEndpoint::close(); }

  using Endpoint::send;

  Status send(const Message& msg) override {
    LockGuard lock(send_mutex_);
    // Encode into the reused per-endpoint buffer: steady-state senders pay
    // one resize into warm capacity instead of an allocation per message.
    msg.encode_into(send_buf_);
    return send_bytes_locked(send_buf_.data(), send_buf_.size());
  }

  Status send_frame(const std::uint8_t* data, std::size_t size) override {
    LockGuard lock(send_mutex_);
    // Relay fast path: the frame is already encoded; write it through
    // verbatim.
    return send_bytes_locked(data, size);
  }

  Result<Message> receive(int timeout_ms) override {
    LockGuard lock(recv_mutex_);
    auto frame_size = await_frame(timeout_ms);
    if (!frame_size.is_ok()) return frame_size.status();
    // Mark consumed before validating: a rejected frame must not be
    // re-delivered to the next receive call (consumption is lazy, so the
    // bytes stay readable through this call).
    consume_ = frame_size.value();
    return Message::decode(buffer_.data(), consume_);
  }

  Status receive_view(int timeout_ms, MessageView* view) override {
    LockGuard lock(recv_mutex_);
    auto frame_size = await_frame(timeout_ms);
    if (!frame_size.is_ok()) return frame_size.status();
    consume_ = frame_size.value();
    // The view borrows buffer_; the frame is consumed lazily at the next
    // receive call, which is what keeps this zero-copy.
    return view->parse(buffer_.data(), consume_);
  }

  Status receive_frame(int timeout_ms, std::vector<std::uint8_t>* frame) override {
    LockGuard lock(recv_mutex_);
    auto frame_size = await_frame(timeout_ms);
    if (!frame_size.is_ok()) return frame_size.status();
    frame->assign(buffer_.data(), buffer_.data() + frame_size.value());
    consume_ = frame_size.value();
    return Status::ok();
  }

  Status receive_frames(int timeout_ms, std::vector<std::uint8_t>* frames) override {
    LockGuard lock(recv_mutex_);
    auto frame_size = await_frame(timeout_ms);
    if (!frame_size.is_ok()) return frame_size.status();
    // Coalesce: one recv() typically lands a burst of pipelined frames in
    // buffer_; hand the relay every complete one so it forwards the burst
    // with a single write. An oversized length here is left for the next
    // receive call to reject - this path never consumes a partial frame.
    std::size_t take = frame_size.value();
    while (buffer_.size() - take >= Message::kLenPrefixSize) {
      const std::uint32_t payload = Message::peek_length(buffer_.data() + take);
      if (payload > Message::kMaxPayload) break;
      const std::size_t next = Message::kLenPrefixSize + payload;
      if (buffer_.size() - take < next) break;
      take += next;
    }
    frames->assign(buffer_.data(), buffer_.data() + take);
    consume_ = take;
    return Status::ok();
  }

  [[nodiscard]] int readable_fd() const override { return fd_.get(); }

  [[nodiscard]] bool is_open() const override {
    return !closed_.load(std::memory_order_acquire);
  }

  /// Thread-safe against concurrent send/receive: the fd is only marked
  /// closed and shut down (which wakes blocked peers); the descriptor
  /// itself stays allocated until destruction, so no thread ever polls a
  /// reused fd number.
  void close() override {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }

  [[nodiscard]] std::string peer_address() const override { return peer_; }

 private:
  Status send_bytes_locked(const std::uint8_t* data, std::size_t size)
      TDP_REQUIRES(send_mutex_) {
    if (closed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kConnectionError, "endpoint closed");
    }
    std::size_t sent = 0;
    while (sent < size) {
      ssize_t n = ::send(fd_.get(), data + sent, size - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        TDP_RETURN_IF_ERROR(poll_fd(fd_.get(), POLLOUT, -1));
        continue;
      }
      return errno_status(ErrorCode::kConnectionError, "send");
    }
    return Status::ok();
  }

  /// Waits until buffer_ holds one complete frame and returns its size.
  /// Consumes the previously returned frame first.
  Result<std::size_t> await_frame(int timeout_ms) TDP_REQUIRES(recv_mutex_) {
    if (closed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kConnectionError, "endpoint closed");
    }
    if (consume_ > 0) {
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consume_));
      consume_ = 0;
    }

    const bool has_deadline = timeout_ms >= 0;
    const Micros deadline = RealClock::instance().now_micros() +
                            static_cast<Micros>(timeout_ms) * 1000;

    while (true) {
      if (buffer_.size() >= Message::kLenPrefixSize) {
        const std::uint32_t payload = Message::peek_length(buffer_.data());
        if (payload > Message::kMaxPayload) {
          close();
          return make_error(ErrorCode::kInvalidArgument, "oversized frame from peer");
        }
        const std::size_t frame_size = Message::kLenPrefixSize + payload;
        if (buffer_.size() >= frame_size) return frame_size;
      }

      int wait = remaining_ms(deadline, has_deadline);
      if (has_deadline && wait == 0 && timeout_ms != 0) {
        return make_error(ErrorCode::kTimeout, "receive timed out");
      }
      if (timeout_ms == 0) wait = 0;
      Status ready = poll_fd(fd_.get(), POLLIN, wait);
      if (!ready.is_ok()) return ready;

      std::uint8_t chunk[16 * 1024];
      ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.insert(buffer_.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) {
        return make_error(ErrorCode::kConnectionError, "peer closed connection");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (timeout_ms == 0) return make_error(ErrorCode::kTimeout, "no data available");
        continue;
      }
      return errno_status(ErrorCode::kConnectionError, "recv");
    }
  }

  UniqueFd fd_;
  std::string peer_;
  std::atomic<bool> closed_{false};
  Mutex send_mutex_{"TcpEndpoint::send_mutex_"};
  std::vector<std::uint8_t> send_buf_ TDP_GUARDED_BY(send_mutex_);
  Mutex recv_mutex_{"TcpEndpoint::recv_mutex_"};
  std::vector<std::uint8_t> buffer_ TDP_GUARDED_BY(recv_mutex_);
  /// Bytes of buffer_ handed out as the last frame.
  std::size_t consume_ TDP_GUARDED_BY(recv_mutex_) = 0;
};

class TcpListener final : public Listener {
 public:
  TcpListener(UniqueFd fd, std::string address)
      : fd_(std::move(fd)), address_(std::move(address)) {}

  ~TcpListener() override { TcpListener::close(); }

  Result<std::unique_ptr<Endpoint>> accept(int timeout_ms) override {
    if (closed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kCancelled, "listener closed");
    }
    Status ready = poll_fd(fd_.get(), POLLIN, timeout_ms);
    if (!ready.is_ok()) return ready;
    while (true) {
      if (closed_.load(std::memory_order_acquire)) {
        return make_error(ErrorCode::kCancelled, "listener closed");
      }
      int client = ::accept(fd_.get(), nullptr, nullptr);
      if (client >= 0) {
        return std::unique_ptr<Endpoint>(new TcpEndpoint(UniqueFd(client)));
      }
      if (errno == EINTR) continue;
      return errno_status(ErrorCode::kConnectionError, "accept");
    }
  }

  [[nodiscard]] std::string address() const override { return address_; }

  [[nodiscard]] int readable_fd() const override { return fd_.get(); }

  /// Marks closed without releasing the descriptor: an accept loop blocked
  /// in poll (always with a bounded timeout) re-checks the flag on its next
  /// pass, and no thread can ever race a reused fd number. The socket is
  /// actually closed at destruction.
  void close() override { closed_.store(true, std::memory_order_release); }

 private:
  UniqueFd fd_;
  std::string address_;
  std::atomic<bool> closed_{false};
};

}  // namespace

Result<std::unique_ptr<Listener>> TcpTransport::listen(const std::string& address) {
  sockaddr_in sa{};
  if (!parse_address(address, &sa)) {
    return make_error(ErrorCode::kInvalidArgument, "bad TCP listen address: " + address);
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(ErrorCode::kInternal, "socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return errno_status(ErrorCode::kConnectionError, "bind");
  }
  if (::listen(fd.get(), 128) != 0) {
    return errno_status(ErrorCode::kConnectionError, "listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return errno_status(ErrorCode::kInternal, "getsockname");
  }
  return std::unique_ptr<Listener>(new TcpListener(std::move(fd), address_of(bound)));
}

Result<std::unique_ptr<Endpoint>> TcpTransport::connect(const std::string& address) {
  sockaddr_in sa{};
  if (!parse_address(address, &sa)) {
    return make_error(ErrorCode::kInvalidArgument, "bad TCP connect address: " + address);
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(ErrorCode::kInternal, "socket");
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (errno == EINTR) continue;
    return errno_status(ErrorCode::kConnectionError, "connect");
  }
  return std::unique_ptr<Endpoint>(new TcpEndpoint(std::move(fd)));
}

}  // namespace tdp::net
