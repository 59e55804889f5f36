#include "util/flightrec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/blockio.hpp"
#include "util/journal.hpp"
#include "util/telemetry.hpp"

namespace tdp::flightrec {

namespace {

/// Record types inside a capsule block payload (one journal-style line
/// per record, newline-joined).
constexpr const char* kMetaType = "capsule";
constexpr const char* kEventType = "event";
constexpr const char* kCapsuleVersion = "1";

Result<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty integer field");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return make_error(ErrorCode::kInvalidArgument,
                        "bad integer field: " + text);
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

Result<Micros> parse_micros(const std::string& text) {
  std::string body = text;
  bool negative = false;
  if (!body.empty() && body.front() == '-') {
    negative = true;
    body.erase(body.begin());
  }
  auto magnitude = parse_u64(body);
  if (!magnitude.is_ok()) return magnitude.status();
  auto value = static_cast<Micros>(*magnitude);
  return negative ? -value : value;
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string control_attr(std::string_view role, std::string_view host) {
  std::string attr{kControlPrefix};
  attr += role;
  attr += '.';
  attr += host;
  return attr;
}

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kLog: return "log";
    case EventKind::kSpan: return "span";
    case EventKind::kState: return "state";
    case EventKind::kFault: return "fault";
    case EventKind::kLease: return "lease";
    case EventKind::kReplay: return "replay";
    case EventKind::kControl: return "control";
  }
  return "?";
}

Result<EventKind> parse_kind(std::string_view name) {
  for (auto kind : {EventKind::kLog, EventKind::kSpan, EventKind::kState,
                    EventKind::kFault, EventKind::kLease, EventKind::kReplay,
                    EventKind::kControl}) {
    if (name == kind_name(kind)) return kind;
  }
  return make_error(ErrorCode::kInvalidArgument,
                    "unknown event kind: " + std::string(name));
}

Recorder::Recorder(Config config) : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.capacity < config_.shards) config_.capacity = config_.shards;
  if (config_.clock == nullptr) config_.clock = &RealClock::instance();
  per_shard_ = config_.capacity / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      LockGuard lock(shard->mutex);
      shard->ring.resize(per_shard_);
    }
    shards_.push_back(std::move(shard));
  }
}

Recorder::Recorder() : enabled_(false) {
  config_.capacity = 0;
  config_.shards = 0;
  config_.clock = &RealClock::instance();
}

std::shared_ptr<Recorder> Recorder::disabled() {
  static const std::shared_ptr<Recorder> instance(new Recorder());
  return instance;
}

Micros Recorder::now() const noexcept { return config_.clock->now_micros(); }

void Recorder::record(EventKind kind, std::string what, std::string detail,
                      std::uint64_t trace_id, std::uint64_t span_id,
                      std::uint8_t severity) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Event ev;
  ev.kind = kind;
  ev.severity = severity;
  ev.at_micros = now();
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.what = std::move(what);
  ev.detail = std::move(detail);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ev.seq = seq;
  Shard& shard = *shards_[seq % shards_.size()];
  LockGuard lock(shard.mutex);
  shard.ring[(seq / shards_.size()) % per_shard_] = std::move(ev);
  ++shard.written;
}

void Recorder::log_event(log::Level level, std::string_view component,
                         std::string_view message) {
  if (!enabled() || level < config_.log_threshold) return;
  record(EventKind::kLog, std::string(component), std::string(message),
         /*trace_id=*/0, /*span_id=*/0,
         static_cast<std::uint8_t>(static_cast<int>(level)));
}

void Recorder::state(std::string_view transition, std::string_view detail,
                     std::uint64_t trace_id, std::uint64_t span_id) {
  if (!enabled()) return;
  record(EventKind::kState, std::string(transition), std::string(detail),
         trace_id, span_id);
}

void Recorder::fault(std::string_view kind, std::string_view detail) {
  if (!enabled()) return;
  record(EventKind::kFault, std::string(kind), std::string(detail));
}

void Recorder::lease(std::string_view what, std::string_view detail) {
  if (!enabled()) return;
  record(EventKind::kLease, std::string(what), std::string(detail));
}

void Recorder::span(const telemetry::SpanRecord& rec) {
  if (!enabled()) return;
  std::string detail = "dur_us=" + std::to_string(rec.end_us - rec.start_us);
  if (rec.parent_id != 0) {
    detail += " parent=" + std::to_string(rec.parent_id);
  }
  record(EventKind::kSpan, rec.name, std::move(detail), rec.trace_id,
         rec.span_id);
}

void Recorder::replay(std::string_view source,
                      const journal::ReplayStats& stats) {
  if (!enabled()) return;
  std::ostringstream oss;
  oss << "records=" << stats.records << " blocks=" << stats.blocks
      << " resyncs=" << stats.resyncs << " bytes_skipped=" << stats.bytes_skipped
      << " torn_tail=" << (stats.torn_tail ? 1 : 0);
  record(EventKind::kReplay, std::string(source), oss.str());
}

std::uint64_t Recorder::overwritten() const noexcept {
  std::uint64_t lost = 0;
  for (const auto& shard : shards_) {
    LockGuard lock(shard->mutex);
    if (shard->written > shard->ring.size()) {
      lost += shard->written - shard->ring.size();
    }
  }
  return lost;
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> events;
  events.reserve(config_.capacity);
  for (const auto& shard : shards_) {
    LockGuard lock(shard->mutex);
    const std::size_t live = std::min<std::size_t>(
        static_cast<std::size_t>(shard->written), shard->ring.size());
    for (std::size_t i = 0; i < live; ++i) {
      events.push_back(shard->ring[i]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return events;
}

std::string Recorder::encode_capsule(std::string_view reason) const {
  // Snapshot under the shard locks (one at a time); everything below is
  // lock-free serialization.
  const std::vector<Event> events = snapshot();
  const std::uint64_t total = recorded();
  const std::uint64_t lost = overwritten();

  journal::Record meta;
  meta.type = kMetaType;
  meta.fields = {kCapsuleVersion,
                 config_.role,
                 config_.host,
                 std::string(reason),
                 std::to_string(now()),
                 u64s(total),
                 u64s(lost),
                 u64s(events.size())};

  std::string out = blockio::encode_block(journal::encode_record(meta));

  for (std::size_t base = 0; base < events.size();
       base += kEventsPerBlock) {
    std::string payload;
    const std::size_t end = std::min(events.size(), base + kEventsPerBlock);
    for (std::size_t i = base; i < end; ++i) {
      const Event& ev = events[i];
      journal::Record rec;
      rec.type = kEventType;
      rec.fields = {kind_name(ev.kind), u64s(ev.severity), u64s(ev.seq),
                    std::to_string(ev.at_micros), u64s(ev.trace_id),
                    u64s(ev.span_id), ev.what, ev.detail};
      if (!payload.empty()) payload += '\n';
      payload += journal::encode_record(rec);
    }
    out += blockio::encode_block(payload);
  }
  return out;
}

Status Recorder::dump(const std::string& path, std::string_view reason) {
  if (shards_.empty()) {
    return make_error(ErrorCode::kInvalidState, "flight recorder disabled");
  }
  record(EventKind::kControl, "dump",
         std::string(reason) + " path=" + path);
  // Serialize (takes and releases shard locks), then write with no lock
  // held — capsule I/O must never happen under a ring lock.
  const std::string bytes = encode_capsule(reason);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(ErrorCode::kInternal, "cannot open capsule " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return make_error(ErrorCode::kInternal, "short capsule write " + path);
  }
  return Status::ok();
}

Result<Capsule> decode_capsule(std::string_view bytes,
                               blockio::ScanStats* stats) {
  blockio::BlockReader reader(bytes);
  Capsule capsule;
  bool saw_meta = false;
  while (true) {
    auto block = reader.next();
    if (!block.is_ok()) {
      if (block.status().code() == ErrorCode::kNotFound) break;
      return block.status();
    }
    std::istringstream lines(block->payload);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      auto rec = journal::decode_record(line);
      if (!rec.is_ok()) return rec.status();
      if (rec->type == kMetaType) {
        if (rec->fields.size() < 8 || rec->fields[0] != kCapsuleVersion) {
          return make_error(ErrorCode::kInvalidArgument,
                            "bad capsule meta record");
        }
        capsule.role = rec->fields[1];
        capsule.host = rec->fields[2];
        capsule.reason = rec->fields[3];
        auto at = parse_micros(rec->fields[4]);
        auto total = parse_u64(rec->fields[5]);
        auto lost = parse_u64(rec->fields[6]);
        if (!at.is_ok()) return at.status();
        if (!total.is_ok()) return total.status();
        if (!lost.is_ok()) return lost.status();
        capsule.dumped_at = *at;
        capsule.recorded = *total;
        capsule.overwritten = *lost;
        saw_meta = true;
        continue;
      }
      if (rec->type != kEventType) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unknown capsule record type: " + rec->type);
      }
      if (!saw_meta) {
        return make_error(ErrorCode::kInvalidArgument,
                          "capsule events before meta block");
      }
      if (rec->fields.size() < 8) {
        return make_error(ErrorCode::kInvalidArgument,
                          "short capsule event record");
      }
      Event ev;
      auto kind = parse_kind(rec->fields[0]);
      auto severity = parse_u64(rec->fields[1]);
      auto seq = parse_u64(rec->fields[2]);
      auto at = parse_micros(rec->fields[3]);
      auto trace = parse_u64(rec->fields[4]);
      auto span = parse_u64(rec->fields[5]);
      if (!kind.is_ok()) return kind.status();
      if (!severity.is_ok()) return severity.status();
      if (!seq.is_ok()) return seq.status();
      if (!at.is_ok()) return at.status();
      if (!trace.is_ok()) return trace.status();
      if (!span.is_ok()) return span.status();
      ev.kind = *kind;
      ev.severity = static_cast<std::uint8_t>(*severity);
      ev.seq = *seq;
      ev.at_micros = *at;
      ev.trace_id = *trace;
      ev.span_id = *span;
      ev.what = rec->fields[6];
      ev.detail = rec->fields[7];
      capsule.events.push_back(std::move(ev));
    }
  }
  if (stats != nullptr) *stats = reader.stats();
  if (!saw_meta) {
    return make_error(ErrorCode::kInvalidArgument,
                      "not a capsule: no meta block");
  }
  return capsule;
}

Result<Capsule> read_capsule(const std::string& path,
                             blockio::ScanStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "no capsule at " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  return decode_capsule(bytes, stats);
}

std::vector<TimelineEvent> merge_timeline(
    const std::vector<Capsule>& capsules) {
  std::vector<TimelineEvent> timeline;
  for (const auto& capsule : capsules) {
    for (const auto& ev : capsule.events) {
      timeline.push_back(TimelineEvent{capsule.role, capsule.host, ev});
    }
  }
  std::sort(timeline.begin(), timeline.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              if (a.event.at_micros != b.event.at_micros) {
                return a.event.at_micros < b.event.at_micros;
              }
              if (a.role != b.role) return a.role < b.role;
              if (a.host != b.host) return a.host < b.host;
              return a.event.seq < b.event.seq;
            });
  return timeline;
}

// ---------------------------------------------------------------------------
// Log tap: one log::Observer fanning lines out to registered recorders.
// ---------------------------------------------------------------------------

namespace {

tdp::Mutex& tap_mutex() {
  static tdp::Mutex m{"flightrec::tap_mutex"};
  return m;
}

std::vector<std::weak_ptr<Recorder>>& tap_list() {
  static std::vector<std::weak_ptr<Recorder>> recorders;
  return recorders;
}

void tap_dispatch(log::Level level, std::string_view component,
                  std::string_view message) {
  // Copy the live targets under the tap lock, record outside it: the
  // recorder's shard mutex must stay a leaf with no edge from tap_mutex.
  std::vector<std::shared_ptr<Recorder>> targets;
  {
    LockGuard lock(tap_mutex());
    auto& list = tap_list();
    for (auto it = list.begin(); it != list.end();) {
      if (auto strong = it->lock()) {
        targets.push_back(std::move(strong));
        ++it;
      } else {
        it = list.erase(it);
      }
    }
  }
  for (auto& recorder : targets) {
    recorder->log_event(level, component, message);
  }
}

}  // namespace

void register_log_recorder(const std::shared_ptr<Recorder>& recorder) {
  bool install = false;
  {
    LockGuard lock(tap_mutex());
    auto& list = tap_list();
    install = list.empty();
    list.push_back(recorder);
  }
  if (install) log::set_observer(&tap_dispatch);
}

void unregister_log_recorder(const Recorder* recorder) {
  bool uninstall = false;
  {
    LockGuard lock(tap_mutex());
    auto& list = tap_list();
    for (auto it = list.begin(); it != list.end();) {
      auto strong = it->lock();
      if (!strong || strong.get() == recorder) {
        it = list.erase(it);
      } else {
        ++it;
      }
    }
    uninstall = list.empty();
  }
  if (uninstall) log::set_observer(nullptr);
}

}  // namespace tdp::flightrec
