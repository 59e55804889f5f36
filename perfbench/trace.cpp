#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<std::uint32_t> t_stack;
thread_local std::int64_t t_trace = 0;
thread_local std::uint32_t t_thread = 0;
std::atomic<std::uint32_t> g_next_thread{1};

std::uint32_t thread_index() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return t_thread;
}

std::string layer_of(const char* name) {
  std::string layer(name);
  auto dot = layer.find('.');
  return dot == std::string::npos ? layer : layer.substr(0, dot);
}

bool is_root(const Span& span) { return std::string_view(span.name).starts_with("e2e."); }

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_trace(std::int64_t id) noexcept { t_trace = id; }

Tracer::Scope::Scope(const char* name) : Scope(name, 0) {}

Tracer::Scope::Scope(const char* name, Nanos start) {
  Tracer& tracer = instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_stack.empty() ? 0 : t_stack.back();
  span_.thread = thread_index();
  span_.trace = t_trace;
  span_.start = start != 0 ? start : now_ns();
  cpu_start_ = thread_cpu_ns();
  t_stack.push_back(span_.id);
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end = now_ns();
  span_.cpu = thread_cpu_ns() - cpu_start_;
  if (!t_stack.empty() && t_stack.back() == span_.id) t_stack.pop_back();
  instance().push(span_);
}

void Tracer::record_root(const char* name, Nanos start, Nanos end, std::int64_t trace) {
  if (!enabled()) return;
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.thread = thread_index();
  span.trace = trace;
  span.start = start;
  span.end = end;
  push(span);
}

void Tracer::push(const Span& span) {
  tdp::LockGuard lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

void Tracer::capture(const tdp::net::Message& msg, tdp::net::WireVersion version) {
  tdp::LockGuard lock(mutex_);
  // Every 8th message, so the sample spans the whole run, not its start.
  if ((sent_seen_++ & 7) != 0 || captured_.size() >= kMaxCaptured) return;
  captured_.emplace_back(msg, version);
}

std::vector<std::pair<tdp::net::Message, tdp::net::WireVersion>> Tracer::take_captured() {
  tdp::LockGuard lock(mutex_);
  return std::move(captured_);
}

std::vector<Span> Tracer::spans() const {
  tdp::LockGuard lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tthread\ttrace\tname\tstart_ns\tend_ns\tcpu_ns\n");
  {
    tdp::LockGuard lock(mutex_);
    for (const Span& s : spans_) {
      std::fprintf(out, "%u\t%u\t%u\t%lld\t%s\t%lld\t%lld\t%lld\n", s.id, s.parent,
                   s.thread, static_cast<long long>(s.trace), s.name,
                   static_cast<long long>(s.start), static_cast<long long>(s.end),
                   static_cast<long long>(s.cpu));
    }
  }
  return std::fclose(out) == 0;
}

LayerTimes::Named LayerTimes::named(const std::string& name) const {
  for (const auto& [n, value] : by_name) {
    if (n == name) return value;
  }
  return {};
}

double LayerTimes::layer_self_ns(const std::string& layer) const {
  for (const auto& [l, value] : self_ns) {
    if (l == layer) return value;
  }
  return 0;
}

LayerTimes reduce_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<double> child_wall(spans.size(), 0);
  std::vector<double> child_cpu(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    child_wall[it->second] += static_cast<double>(s.end - s.start);
    child_cpu[it->second] += static_cast<double>(s.cpu);
  }

  std::map<std::string, double> self_by_layer;
  std::map<std::string, LayerTimes::Named> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (is_root(s)) continue;
    const double wall = static_cast<double>(s.end - s.start);
    const double self = std::max(0.0, wall - child_wall[i]);
    auto& named = by_name[s.name];
    named.total_ns += wall;
    named.self_ns += self;
    named.self_cpu_ns += std::max(0.0, static_cast<double>(s.cpu) - child_cpu[i]);
    ++named.count;
    self_by_layer[layer_of(s.name)] += self;
  }

  // Unattributed root time: the part of each root covered by no top-level
  // span (or child of the root) on the root's own thread.
  std::map<std::uint32_t, std::vector<std::pair<Nanos, Nanos>>> cover;
  for (const Span& s : spans) {
    if (is_root(s)) continue;
    bool top = s.parent == 0;
    if (!top) {
      auto it = index.find(s.parent);
      top = it != index.end() && is_root(spans[it->second]);
    }
    if (top) cover[s.thread].emplace_back(s.start, s.end);
  }
  for (auto& [thread, intervals] : cover) std::sort(intervals.begin(), intervals.end());

  LayerTimes result;
  for (const Span& root : spans) {
    if (!is_root(root)) continue;
    ++result.roots;
    Nanos covered = 0;
    auto it = cover.find(root.thread);
    if (it != cover.end()) {
      const auto& intervals = it->second;
      // Intervals starting before the root may still overlap it; spans on
      // one thread are short, so back up a bounded distance.
      auto from = std::lower_bound(intervals.begin(), intervals.end(),
                                   std::make_pair(root.start, Nanos{0}));
      while (from != intervals.begin() && std::prev(from)->second > root.start) --from;
      Nanos reach = root.start;
      for (auto iv = from; iv != intervals.end() && iv->first < root.end; ++iv) {
        const Nanos lo = std::max(iv->first, reach);
        const Nanos hi = std::min(iv->second, root.end);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    result.unattributed_ns += static_cast<double>(root.end - root.start - covered);
  }
  result.self_ns.assign(self_by_layer.begin(), self_by_layer.end());
  result.by_name.assign(by_name.begin(), by_name.end());
  return result;
}

}  // namespace perfbench
