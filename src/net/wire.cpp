#include "net/wire.hpp"

#include <string>
#include <unordered_map>
#include <vector>

namespace tdp::net {

namespace {

/// The interned key table, in id order starting at id 1 (id 0 is reserved
/// as "no id"). Wire format: APPEND ONLY - renumbering changes what every
/// encoded frame means. A nullptr entry is a retired id: it keeps its
/// number, maps to no key, and a reader skips a field that carries it. The
/// batch slots k0..k31 / v0..v31 are appended programmatically after this
/// list.
constexpr const char* kWellKnownKeys[] = {
    // attrspace protocol fields (attr_protocol.hpp)
    "ctx", "attr", "value", "status", "error", "block", "pattern", "sub_id",
    "count", "bid",
    // reserved cross-cutting fields
    "_tc", nullptr,  // id 12: retired (a version advert no sender emits)
    // proxy / process-control / ping payloads
    "service", "payload", "cmd",
    // standard attribute names that double as message fields
    "pid", "executable_name", "app_args", "frontend_host", "frontend_port",
    "frontend_port2", "proxy_address", "stdio_address", "app_state",
    "rt_ready", "working_dir", "job_id", "num_procs",
    // condor / paradyn / mrnet message fields
    "job", "machine", "executable", "daemon", "module", "function", "metric",
    "host", "rank", "state", "final", "mod", "fn", "m", "v",
    // liveness / telemetry publish fields (PR 4/5)
    "seq", "micros", "role", "lease_ttl_ms", "beat",
};

constexpr std::size_t kBatchSlots = 32;  // k0..k31, v0..v31

struct Registry {
  std::unordered_map<std::string_view, std::uint16_t> by_key;
  std::vector<std::string> by_id;  // index = id; [0] unused

  Registry() {
    // Reserve the exact final size up front: the by_key string_views point
    // into by_id's strings, so the vector must never reallocate (SSO moves
    // the character buffers with the string objects).
    const std::size_t total =
        1 + std::size(kWellKnownKeys) + 2 * kBatchSlots;
    by_id.reserve(total);
    by_key.reserve(total);
    by_id.emplace_back();  // id 0 = "no id"
    for (const char* key : kWellKnownKeys) {
      if (key == nullptr) {
        by_id.emplace_back();  // retired: wire_field_name() returns empty
        continue;
      }
      add(key);
    }
    for (std::size_t i = 0; i < kBatchSlots; ++i) {
      add("k" + std::to_string(i));
      add("v" + std::to_string(i));
    }
  }

  void add(std::string key) {
    by_id.push_back(std::move(key));
    by_key.emplace(by_id.back(), static_cast<std::uint16_t>(by_id.size() - 1));
  }
};

const Registry& registry() {
  static const Registry instance;
  return instance;
}

}  // namespace

bool wire_field_id(std::string_view key, std::uint16_t* id) {
  const auto& reg = registry();
  auto it = reg.by_key.find(key);
  if (it == reg.by_key.end()) return false;
  *id = it->second;
  return true;
}

std::string_view wire_field_name(std::uint16_t id) {
  const auto& reg = registry();
  if (id == 0 || id >= reg.by_id.size()) return {};
  return reg.by_id[id];
}

std::size_t wire_field_registry_size() { return registry().by_id.size(); }

}  // namespace tdp::net
