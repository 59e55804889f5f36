// attr_server.hpp - the attribute space server process logic.
//
// One class serves both deployment roles from Figure 2:
//   * LASS - "Each host on which an application process (and tool daemon)
//     runs has a local instance of the attribute space server", started by
//     the RM on the execution host;
//   * CASS - "a central attribute space server process on the host running
//     the tool front-end", started by the RM front-end.
//
// The server parks blocking gets until a matching put arrives (this is what
// lets paradynd block in tdp_get("pid") until the starter's tdp_put, per
// Figure 6 step 3), maintains persistent subscriptions for asynchronous
// notification, and reference counts contexts across client connections,
// treating an unexpected disconnect as an implicit tdp_exit (crash
// cleanup — part of the paper's fault-detection requirement).
//
// Threading model: one I/O thread drives a Reactor that multiplexes the
// listener plus every client endpoint (Section 3.3's "central polling
// loop"), so the server's thread count is constant no matter how many
// daemons connect. Requests are parsed zero-copy into a per-connection
// MessageView and handled inline on the I/O thread; parked-get and
// subscription callbacks fire from whichever thread performs the matching
// put (normally also the I/O thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "attrspace/attr_store.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/flightrec.hpp"
#include "util/sync.hpp"

namespace tdp::attr {

class AttrServer {
 public:
  /// `name` is used for logging only ("LASS@node3", "CASS").
  AttrServer(std::string name, std::shared_ptr<net::Transport> transport);
  ~AttrServer();

  AttrServer(const AttrServer&) = delete;
  AttrServer& operator=(const AttrServer&) = delete;

  /// Binds and starts the I/O thread. Returns the concrete bound address
  /// clients should use.
  Result<std::string> start(const std::string& listen_address);

  /// Stops serving, closes all client connections, joins the I/O thread.
  void stop();

  [[nodiscard]] std::string address() const { return address_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Direct access to the store, e.g. for tests and for an RM embedding
  /// the LASS in-process.
  AttributeStore& store() noexcept { return store_; }

  /// Number of client connections served so far.
  [[nodiscard]] std::size_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Batches applied / acknowledged-without-applying because their batch id
  /// was already seen (a client replayed after losing the ack). Tests use
  /// these to assert exactly-once batch application under retry.
  [[nodiscard]] std::size_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t batches_deduped() const {
    return batches_deduped_.load(std::memory_order_relaxed);
  }

  /// Attaches the server's flight recorder (PR 9): start/stop, accepted
  /// connections and teardowns land in the ring. Set before start();
  /// recorded into on the I/O thread with no server lock held.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// Per-connection state, owned by the I/O thread (created on accept,
  /// destroyed on disconnect or stop()).
  struct Connection {
    std::shared_ptr<net::Endpoint> endpoint;
    std::vector<std::uint64_t> watcher_ids;    ///< waiters/subscriptions owned here
    std::vector<std::string> opened_contexts;  ///< for implicit-exit crash cleanup
    net::MessageView view;                     ///< reused across receives
    /// Subscribe-request seq -> watcher id, so a replayed subscribe (the
    /// client lost the ack) re-acks instead of double-registering.
    std::map<std::uint64_t, std::uint64_t> subs_by_seq;
  };

  /// Remembers `batch_id` in the bounded recent-batch window; returns false
  /// when it was already present (replay). I/O thread only (asserted in
  /// Debug), which is why the window needs no lock.
  bool remember_batch(const std::string& batch_id) TDP_EXCLUDES(conns_mutex_);

  /// Debug check that the caller is the reactor I/O thread — the lock-free
  /// dedup window and per-connection state rely on it.
  void assert_io_thread() const;

  void on_acceptable();
  void on_readable(int fd);
  void handle_message(const net::MessageView& msg, Connection& conn);
  /// Cancels watchers, applies implicit exits, closes the endpoint.
  void teardown(Connection& conn);

  std::string name_;
  std::shared_ptr<net::Transport> transport_;
  std::unique_ptr<net::Listener> listener_;
  std::string address_;
  AttributeStore store_;

  net::Reactor reactor_;
  std::thread io_thread_;
  /// Published by the I/O thread before its first reactor turn; callbacks
  /// assert against it in Debug.
  std::atomic<std::thread::id> io_thread_id_{};
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> connections_{0};
  std::atomic<std::size_t> batches_applied_{0};
  std::atomic<std::size_t> batches_deduped_{0};

  /// Recently applied batch ids (bounded FIFO window); touched only on the
  /// I/O thread, so no lock. The window must exceed any plausible number of
  /// batches in flight between a client's send and its retry, not the
  /// lifetime batch count — 1024 is orders of magnitude beyond that.
  std::unordered_set<std::string> recent_batch_ids_;
  std::deque<std::string> recent_batch_order_;
  static constexpr std::size_t kBatchWindow = 1024;

  std::shared_ptr<flightrec::Recorder> recorder_ =
      flightrec::Recorder::disabled();

  /// The I/O thread mutates the connection table, stop() (any thread)
  /// drains it.
  Mutex conns_mutex_{"AttrServer::conns_mutex_"};
  std::map<int, std::shared_ptr<Connection>> conns_ TDP_GUARDED_BY(conns_mutex_);
};

}  // namespace tdp::attr
