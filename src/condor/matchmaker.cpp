#include "condor/matchmaker.hpp"

#include <cstdio>
#include <optional>

#include "util/string_util.hpp"

namespace tdp::condor {

namespace {

/// Canonical index key for a literal value, mirroring the ClassAd `==`
/// semantics the index stands in for (classads compare()): numbers compare
/// as double across int/real, strings case-insensitively, bools only with
/// bools. Distinct prefixes keep the kinds apart — a number never equals a
/// string, so they must never share a bucket.
std::optional<std::string> index_key(const classads::Value& value) {
  using classads::ValueKind;
  switch (value.kind()) {
    case ValueKind::kBool:
      return std::string("b:") + (value.as_bool() ? "1" : "0");
    case ValueKind::kInt:
    case ValueKind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "n:%.17g", value.to_double());
      return std::string(buf);
    }
    case ValueKind::kString:
      return "s:" + str::to_lower(value.as_string());
    default:
      return std::nullopt;
  }
}

}  // namespace

void Matchmaker::index_machine_locked(const std::string& name,
                                      const classads::ClassAd& ad) {
  auto& keys = machine_keys_[name];
  for (const std::string& attribute : ad.names()) {
    const auto literal = classads::literal_value(ad.lookup(attribute));
    if (literal.has_value()) {
      if (auto key = index_key(*literal); key.has_value()) {
        index_[attribute][*key].insert(name);
        keys.emplace_back(attribute, *key);
        continue;
      }
    }
    // Computed (or unkeyable) value: candidate for every probe of this
    // attribute — correctness over pruning.
    unindexed_[attribute].insert(name);
    keys.emplace_back(attribute, std::string());
  }
}

void Matchmaker::deindex_machine_locked(const std::string& name) {
  auto it = machine_keys_.find(name);
  if (it == machine_keys_.end()) return;
  for (const auto& [attribute, key] : it->second) {
    if (key.empty()) {
      auto un_it = unindexed_.find(attribute);
      if (un_it == unindexed_.end()) continue;
      un_it->second.erase(name);
      if (un_it->second.empty()) unindexed_.erase(un_it);
      continue;
    }
    auto attr_it = index_.find(attribute);
    if (attr_it == index_.end()) continue;
    auto key_it = attr_it->second.find(key);
    if (key_it == attr_it->second.end()) continue;
    key_it->second.erase(name);
    if (key_it->second.empty()) attr_it->second.erase(key_it);
    if (attr_it->second.empty()) index_.erase(attr_it);
  }
  machine_keys_.erase(it);
}

void Matchmaker::advertise_machine(const std::string& name, classads::ClassAd ad) {
  LockGuard lock(mutex_);
  deindex_machine_locked(name);
  auto [it, inserted] = machines_.insert_or_assign(name, std::move(ad));
  index_machine_locked(name, it->second);
}

void Matchmaker::withdraw_machine(const std::string& name) {
  LockGuard lock(mutex_);
  deindex_machine_locked(name);
  machines_.erase(name);
}

std::size_t Matchmaker::machine_count() const {
  LockGuard lock(mutex_);
  return machines_.size();
}

std::vector<Matchmaker::Match> Matchmaker::negotiate(
    const std::vector<std::pair<JobId, classads::ClassAd>>& idle_jobs,
    const std::set<std::string>& busy) {
  LockGuard lock(mutex_);
  ++stats_.cycles;

  std::set<std::string> taken(busy);
  std::size_t free_machines = 0;
  for (const auto& [name, ad] : machines_) {
    if (taken.count(name) == 0) ++free_machines;
  }
  std::vector<Match> matches;
  for (const auto& [job_id, job_ad] : idle_jobs) {
    // Every machine claimed: no job later in the cycle can match.
    if (free_machines == 0) break;

    // Candidate pruning: intersect the index buckets of the job's
    // `attr == literal` requirements. Empty probe list -> full scan.
    bool use_index = false;
    bool impossible = false;
    std::set<std::string> candidates;
    const auto probes =
        classads::indexable_equalities(job_ad.lookup(classads::ads::kRequirements));
    for (const classads::IndexableEq& eq : probes) {
      // A bare (unscoped) name resolves MY-first: it only constrains
      // the machine when the job ad itself lacks the attribute.
      if (!eq.target_scoped && job_ad.has(eq.attribute)) continue;
      const auto key = index_key(eq.value);
      if (!key.has_value()) continue;
      std::set<std::string> bucket;
      if (auto attr_it = index_.find(eq.attribute); attr_it != index_.end()) {
        if (auto key_it = attr_it->second.find(*key);
            key_it != attr_it->second.end()) {
          bucket = key_it->second;
        }
      }
      if (auto un_it = unindexed_.find(eq.attribute); un_it != unindexed_.end()) {
        bucket.insert(un_it->second.begin(), un_it->second.end());
      }
      if (!use_index) {
        candidates = std::move(bucket);
        use_index = true;
      } else {
        for (auto it = candidates.begin(); it != candidates.end();) {
          it = bucket.count(*it) != 0 ? std::next(it) : candidates.erase(it);
        }
      }
      if (candidates.empty()) {
        impossible = true;  // no machine can satisfy this conjunct
        break;
      }
    }
    if (use_index) {
      ++stats_.indexed_jobs;
      stats_.pruned += machines_.size() - candidates.size();
      if (impossible) continue;
    }

    const std::string* best_machine = nullptr;
    double best_job_rank = 0.0, best_machine_rank = 0.0;

    // One evaluation pass over either the pruned candidates or all
    // machines; the candidate set is a superset filter, so the winner is
    // the same either way.
    auto candidate_it = candidates.begin();
    auto machine_it = machines_.begin();
    while (true) {
      const std::map<std::string, classads::ClassAd>::value_type* entry = nullptr;
      if (use_index) {
        if (candidate_it == candidates.end()) break;
        auto found = machines_.find(*candidate_it++);
        if (found == machines_.end()) continue;  // withdrawn since indexing
        entry = &*found;
      } else {
        if (machine_it == machines_.end()) break;
        entry = &*machine_it++;
      }
      const std::string& name = entry->first;
      const classads::ClassAd& machine_ad = entry->second;
      if (taken.count(name) != 0) continue;
      ++stats_.evaluations;
      if (!classads::symmetric_match(job_ad, machine_ad)) continue;
      const double job_rank = classads::rank_of(job_ad, machine_ad);
      const double machine_rank = classads::rank_of(machine_ad, job_ad);
      if (best_machine == nullptr || job_rank > best_job_rank ||
          (job_rank == best_job_rank && machine_rank > best_machine_rank)) {
        best_machine = &name;
        best_job_rank = job_rank;
        best_machine_rank = machine_rank;
      }
    }
    if (best_machine != nullptr) {
      matches.push_back({job_id, *best_machine, best_job_rank, best_machine_rank});
      taken.insert(*best_machine);
      --free_machines;
      ++stats_.matches;
    }
  }
  return matches;
}

Matchmaker::Stats Matchmaker::stats() const {
  LockGuard lock(mutex_);
  return stats_;
}

}  // namespace tdp::condor
