#include "util/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/blockio.hpp"

namespace tdp::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

int bucket_index(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  int b = std::bit_width(v);  // 1..64
  return b >= Histogram::kBuckets ? Histogram::kBuckets - 1 : b;
}

/// Upper bound of bucket b (the representative value snapshot() reports).
double bucket_upper(int b) noexcept {
  if (b <= 0) return 0.0;
  if (b >= 63) return static_cast<double>(std::uint64_t{1} << 63);
  return static_cast<double>((std::uint64_t{1} << b) - 1);
}

/// Shared by snapshot() and snapshot_from_buckets(): a value at cumulative
/// rank r is in the first bucket where the running total reaches r. Ranks
/// are 1-based ceilings, p100 == max.
double bucket_percentile(const std::uint64_t* buckets, int n,
                         std::uint64_t count, double q) noexcept {
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < n; ++b) {
    seen += buckets[b];
    if (seen >= rank) return bucket_upper(b);
  }
  return bucket_upper(n - 1);
}

}  // namespace

void Histogram::record(std::uint64_t v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  std::uint64_t buckets[kBuckets];
  for (int b = 0; b < kBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.p50 = bucket_percentile(buckets, kBuckets, snap.count, 0.50);
  snap.p95 = bucket_percentile(buckets, kBuckets, snap.count, 0.95);
  snap.p99 = bucket_percentile(buckets, kBuckets, snap.count, 0.99);
  return snap;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(kBuckets));
  for (int b = 0; b < kBuckets; ++b) {
    out[static_cast<std::size_t>(b)] =
        buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

Histogram::Snapshot snapshot_from_buckets(
    const std::vector<std::uint64_t>& buckets, std::uint64_t sum) {
  Histogram::Snapshot snap;
  const int n = std::min(static_cast<int>(buckets.size()),
                         Histogram::kBuckets);
  for (int b = 0; b < n; ++b) snap.count += buckets[static_cast<std::size_t>(b)];
  snap.sum = sum;
  if (snap.count == 0 || n == 0) return snap;
  snap.p50 = bucket_percentile(buckets.data(), n, snap.count, 0.50);
  snap.p95 = bucket_percentile(buckets.data(), n, snap.count, 0.95);
  snap.p99 = bucket_percentile(buckets.data(), n, snap.count, 0.99);
  return snap;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

Registry::Shard& Registry::shard_for(std::string_view name) noexcept {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

Counter& Registry::counter(std::string_view name) {
  Shard& s = shard_for(name);
  LockGuard lock(s.mutex);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    it = s.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Shard& s = shard_for(name);
  LockGuard lock(s.mutex);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    it = s.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Shard& s = shard_for(name);
  LockGuard lock(s.mutex);
  auto it = s.histograms.find(name);
  if (it == s.histograms.end()) {
    it = s.histograms.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  for (const Shard& s : shards_) {
    LockGuard lock(s.mutex);
    for (const auto& [name, c] : s.counters) {
      Sample sample;
      sample.name = name;
      sample.kind = Sample::Kind::kCounter;
      sample.value = static_cast<std::int64_t>(c->value());
      out.push_back(std::move(sample));
    }
    for (const auto& [name, g] : s.gauges) {
      Sample sample;
      sample.name = name;
      sample.kind = Sample::Kind::kGauge;
      sample.value = g->value();
      out.push_back(std::move(sample));
    }
    for (const auto& [name, h] : s.histograms) {
      Sample sample;
      sample.name = name;
      sample.kind = Sample::Kind::kHistogram;
      sample.hist = h->snapshot();
      out.push_back(std::move(sample));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

// ---------------------------------------------------------------------------
// Trace context header
// ---------------------------------------------------------------------------

std::string format_context(const SpanContext& ctx) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "1-%016" PRIx64 "-%016" PRIx64, ctx.trace_id,
                ctx.span_id);
  return buf;
}

namespace {

bool parse_hex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

}  // namespace

SpanContext parse_context(std::string_view header) {
  SpanContext ctx;
  // "1-" + 16 hex + "-" + 16 hex. Unknown versions parse as invalid, which
  // callers treat exactly like "no trace header" - forward compatible.
  if (header.size() != 35 || header[0] != '1' || header[1] != '-' ||
      header[18] != '-') {
    return ctx;
  }
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  if (!parse_hex16(header.substr(2, 16), &trace) ||
      !parse_hex16(header.substr(19, 16), &span)) {
    return ctx;
  }
  ctx.trace_id = trace;
  ctx.span_id = span;
  return ctx;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all users
  return *tracer;
}

void Tracer::set_clock(const Clock* clock) noexcept {
  clock_.store(clock, std::memory_order_release);
}

Micros Tracer::now() const noexcept {
  const Clock* clock = clock_.load(std::memory_order_acquire);
  return clock ? clock->now_micros() : RealClock::instance().now_micros();
}

void Tracer::set_enabled(bool enabled) noexcept {
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::finished() const {
  LockGuard lock(mutex_);
  return finished_;
}

void Tracer::clear() {
  LockGuard lock(mutex_);
  finished_.clear();
  next_trace_.store(1, std::memory_order_relaxed);
  next_span_.store(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::add_span_observer(SpanObserver observer) {
  LockGuard lock(observers_mutex_);
  const std::uint64_t id =
      next_observer_.fetch_add(1, std::memory_order_relaxed);
  observers_.emplace(id, std::move(observer));
  has_observers_.store(true, std::memory_order_release);
  return id;
}

void Tracer::remove_span_observer(std::uint64_t id) {
  LockGuard lock(observers_mutex_);
  observers_.erase(id);
  has_observers_.store(!observers_.empty(), std::memory_order_release);
}

void Tracer::record(SpanRecord rec) {
  if (has_observers_.load(std::memory_order_acquire)) {
    // Copy the observer list under its leaf lock, invoke outside any lock.
    std::vector<SpanObserver> observers;
    {
      LockGuard lock(observers_mutex_);
      observers.reserve(observers_.size());
      for (const auto& [id, fn] : observers_) observers.push_back(fn);
    }
    for (const auto& fn : observers) fn(rec);
  }
  LockGuard lock(mutex_);
  if (finished_.size() >= kMaxFinished) {
    // Dropped spans still count, so the gap is visible in tdptop.
    Registry::instance().counter("telemetry.spans_dropped").inc();
    return;
  }
  finished_.push_back(std::move(rec));
}

namespace {

void json_escape_into(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = finished();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const SpanRecord& s : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    json_escape_into(&out, s.name);
    out += "\",\"cat\":\"";
    json_escape_into(&out, s.role.empty() ? std::string("tdp") : s.role);
    // "X" complete events: ts/dur in micros. pid 1 (one trace file per
    // process); tid = trace id so each causal tree gets its own track.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                  ",\"pid\":1,\"tid\":%" PRIu64
                  ",\"args\":{\"trace\":\"%" PRIx64 "\",\"span\":\"%" PRIx64
                  "\",\"parent\":\"%" PRIx64 "\"}}",
                  s.start_us, s.end_us - s.start_us, s.trace_id, s.trace_id,
                  s.span_id, s.parent_id);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::dump_chrome_trace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    return make_error(ErrorCode::kInternal,
                      "dump_chrome_trace: cannot open " + path);
  }
  f << chrome_trace_json();
  f.close();
  if (!f) {
    return make_error(ErrorCode::kInternal,
                      "dump_chrome_trace: write failed for " + path);
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Span block export (util/blockio container)
// ---------------------------------------------------------------------------

namespace {

// One span inside a block payload, little-endian:
//   u32 name_len | name | u32 role_len | role |
//   u64 trace | u64 span | u64 parent | i64 start_us | i64 end_us
// Length-delimited like the wire's fields, so a reader that trusts the
// block CRC can slice records without a terminator scan.

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

bool get_u32(std::string_view data, std::size_t* pos, std::uint32_t* v) {
  if (data.size() - *pos < 4) return false;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[*pos + i])) << (8 * i);
  }
  *pos += 4;
  *v = out;
  return true;
}

bool get_u64(std::string_view data, std::size_t* pos, std::uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[*pos + i])) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

bool get_string(std::string_view data, std::size_t* pos, std::string* out) {
  std::uint32_t len = 0;
  if (!get_u32(data, pos, &len)) return false;
  if (data.size() - *pos < len) return false;
  out->assign(data.data() + *pos, len);
  *pos += len;
  return true;
}

}  // namespace

Status Tracer::dump_span_blocks(const std::string& path) const {
  const std::vector<SpanRecord> spans = finished();
  std::string payload;
  for (const SpanRecord& s : spans) {
    put_u32(&payload, static_cast<std::uint32_t>(s.name.size()));
    payload += s.name;
    put_u32(&payload, static_cast<std::uint32_t>(s.role.size()));
    payload += s.role;
    put_u64(&payload, s.trace_id);
    put_u64(&payload, s.span_id);
    put_u64(&payload, s.parent_id);
    put_u64(&payload, static_cast<std::uint64_t>(s.start_us));
    put_u64(&payload, static_cast<std::uint64_t>(s.end_us));
  }
  if (payload.empty()) return Status::ok();
  std::ofstream f(path, std::ios::binary | std::ios::app);
  if (!f) {
    return make_error(ErrorCode::kInternal,
                      "dump_span_blocks: cannot open " + path);
  }
  f << blockio::encode_block(payload);
  f.close();
  if (!f) {
    return make_error(ErrorCode::kInternal,
                      "dump_span_blocks: write failed for " + path);
  }
  return Status::ok();
}

Result<std::vector<SpanRecord>> load_span_blocks(const std::string& path,
                                                 std::uint64_t offset,
                                                 blockio::ScanStats* stats) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return make_error(ErrorCode::kNotFound,
                      "load_span_blocks: cannot open " + path);
  }
  std::ostringstream contents;
  contents << f.rdbuf();
  const std::string stream = contents.str();
  if (offset > stream.size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "load_span_blocks: offset past end of " + path);
  }
  std::vector<SpanRecord> spans;
  blockio::BlockReader reader(stream, offset);
  while (true) {
    auto block = reader.next();
    if (!block.is_ok()) break;  // end of stream (torn tail lands in stats)
    const std::string_view payload = block->payload;
    std::size_t pos = 0;
    while (pos < payload.size()) {
      SpanRecord s;
      std::uint64_t start = 0;
      std::uint64_t end = 0;
      if (!get_string(payload, &pos, &s.name) ||
          !get_string(payload, &pos, &s.role) ||
          !get_u64(payload, &pos, &s.trace_id) ||
          !get_u64(payload, &pos, &s.span_id) ||
          !get_u64(payload, &pos, &s.parent_id) ||
          !get_u64(payload, &pos, &start) || !get_u64(payload, &pos, &end)) {
        // The block CRC vouched for these bytes, so a short record means a
        // writer bug, not disk damage; surface it instead of resyncing.
        return make_error(ErrorCode::kInvalidArgument,
                          "load_span_blocks: malformed span record in " + path);
      }
      s.start_us = static_cast<Micros>(start);
      s.end_us = static_cast<Micros>(end);
      spans.push_back(std::move(s));
    }
  }
  if (stats != nullptr) *stats = reader.stats();
  return spans;
}

// ---------------------------------------------------------------------------
// Thread-local span stack + ambient context
// ---------------------------------------------------------------------------

namespace {

struct ThreadTraceState {
  std::vector<SpanContext> stack;
  SpanContext ambient;
};

ThreadTraceState& thread_state() {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace

SpanContext current_context() {
  ThreadTraceState& st = thread_state();
  if (!st.stack.empty()) return st.stack.back();
  return st.ambient;
}

SpanContext ambient_context() { return thread_state().ambient; }

void set_ambient_context(const SpanContext& ctx) {
  thread_state().ambient = ctx;
}

ScopedAmbient::ScopedAmbient(const SpanContext& ctx)
    : saved_(thread_state().ambient) {
  thread_state().ambient = ctx;
}

ScopedAmbient::~ScopedAmbient() { thread_state().ambient = saved_; }

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

Span::Span(std::string_view name, std::string_view role) {
  begin(name, role, current_context());
}

Span::Span(std::string_view name, std::string_view role,
           const SpanContext& parent) {
  begin(name, role, parent);
}

void Span::begin(std::string_view name, std::string_view role,
                 const SpanContext& parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  if (parent.valid()) {
    ctx_.trace_id = parent.trace_id;
    parent_ = parent.span_id;
  } else {
    ctx_.trace_id = tracer.next_trace_id();
  }
  ctx_.span_id = tracer.next_span_id();
  name_.assign(name);
  role_.assign(role);
  start_ = tracer.now();
  thread_state().stack.push_back(ctx_);
  open_ = true;
}

void Span::end() {
  if (!open_) return;
  open_ = false;
  auto& stack = thread_state().stack;
  // Normally LIFO; tolerate out-of-order destruction by searching from the
  // top (a mismatched entry would otherwise mis-parent later spans).
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->span_id == ctx_.span_id) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  Tracer& tracer = Tracer::instance();
  SpanRecord rec;
  rec.name = std::move(name_);
  rec.role = std::move(role_);
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_id = parent_;
  rec.start_us = start_;
  rec.end_us = tracer.now();
  tracer.record(std::move(rec));
}

Span::~Span() { end(); }

}  // namespace tdp::telemetry
