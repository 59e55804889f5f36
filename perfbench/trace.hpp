// trace.hpp - the benchmark's span recorder and layer counters.
//
// Spans are recorded only from benchmark code: around the benchmark's own
// calls into each layer, and inside the decorators it installs at the
// program's injection seams (decorators.hpp). Each span carries its name,
// start and end (wall and thread CPU), the span that was open on the same
// thread when it began (its parent) and a trace id: the job id or control
// op id the recording thread was working for. Spans stay in memory until
// the run ends; reduce_spans() turns them into per-layer figures and write()
// dumps them as TSV.
//
// Recording is off unless a traced round turned it on, so the untraced
// rounds measure the bare program.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/message.hpp"
#include "util/sync.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< "<layer>.<what>", a string literal
  Nanos start = 0;
  Nanos end = 0;
  Nanos cpu = 0;          ///< thread CPU consumed between start and end
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none
  std::uint32_t thread = 0;
  std::int64_t trace = 0;    ///< job or op id; 0 = not tied to one
};

/// Event counts taken at the layer boundaries (traced rounds only).
struct Counters {
  std::atomic<std::uint64_t> msgs{0};       ///< messages sent, all endpoints
  std::atomic<std::uint64_t> bytes{0};      ///< their encoded size
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::uint64_t> polls{0};      ///< ProcessBackend::poll_events calls
  std::atomic<std::uint64_t> events{0};     ///< events those calls returned
  std::atomic<std::uint64_t> illegal{0};    ///< events breaking valid_transition
  std::atomic<std::uint64_t> tool_launches{0};
};

class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// The job or op the calling thread works for; spans it opens carry it.
  static void set_trace(std::int64_t id) noexcept;

  /// An open span; closes (and is recorded) when destroyed. Inert when
  /// tracing was off at construction.
  class Scope {
   public:
    explicit Scope(const char* name);
    /// Opens a span that began at `start` (e.g. when a request arrived).
    Scope(const char* name, Nanos start);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] bool active() const noexcept { return active_; }

   private:
    bool active_ = false;
    Span span_;
    Nanos cpu_start_ = 0;
  };

  /// Records a span that did not nest on one thread (a job's lifetime in
  /// the sim workload, which many loop turns serve at once).
  void record_root(const char* name, Nanos start, Nanos end, std::int64_t trace);

  Counters& counters() noexcept { return counters_; }

  /// A sample of the messages sent in traced rounds, with the wire version
  /// they went out in, for the codec timings taken after the run.
  void capture(const tdp::net::Message& msg, tdp::net::WireVersion version);
  std::vector<std::pair<tdp::net::Message, tdp::net::WireVersion>> take_captured();

  [[nodiscard]] std::vector<Span> spans() const;
  /// Spans dropped because the in-memory buffer was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes every span as TSV: id parent thread trace name start_ns end_ns cpu_ns.
  bool write(const std::string& path) const;

 private:
  Tracer() = default;
  void push(const Span& span);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  Counters counters_;

  mutable tdp::Mutex mutex_{"perfbench::Tracer::mutex_"};
  std::vector<Span> spans_ TDP_GUARDED_BY(mutex_);
  std::uint64_t sent_seen_ TDP_GUARDED_BY(mutex_) = 0;
  std::vector<std::pair<tdp::net::Message, tdp::net::WireVersion>> captured_
      TDP_GUARDED_BY(mutex_);

  static constexpr std::size_t kMaxSpans = 2'000'000;
  static constexpr std::size_t kMaxCaptured = 2048;
};

/// Per-layer reduction of the recorded spans.
struct LayerTimes {
  /// Self wall time (span minus its children) summed per layer, ns.
  std::vector<std::pair<std::string, double>> self_ns;
  /// Sum of each named span's duration and its call count.
  struct Named {
    double total_ns = 0;
    double self_ns = 0;
    double self_cpu_ns = 0;
    std::uint64_t count = 0;
  };
  std::vector<std::pair<std::string, Named>> by_name;
  /// Root span time covered by no other span on the root's thread, summed.
  double unattributed_ns = 0;
  std::uint64_t roots = 0;

  [[nodiscard]] Named named(const std::string& name) const;
  [[nodiscard]] double layer_self_ns(const std::string& layer) const;
};

/// Reduces `spans`; names starting with "e2e." are the roots.
LayerTimes reduce_spans(const std::vector<Span>& spans);

}  // namespace perfbench
