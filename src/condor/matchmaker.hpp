// matchmaker.hpp - the match_maker entity of Figure 4.
//
// "The matchmaking algorithm is responsible for locating compatible
// resource requests with offers. When a compatible match is found, the
// matchmaker notifies the corresponding job and machine about it."
//
// Negotiation is cycle-based, as in Condor's negotiator: each cycle walks
// the idle jobs, evaluates symmetric Requirements against unclaimed
// machines, and picks the candidate maximizing (job rank, machine rank)
// lexicographically. The subsequent claiming protocol — "either party may
// decide not to complete the allocation" — is the schedd/startd's
// business; a refused claim simply returns the job to the idle pool for
// the next cycle.
//
// PR 10 replaces the per-job full scan with attribute-indexed candidate
// pruning: machine ads are indexed by their literal-valued attributes, and
// a job whose Requirements carry `attr == literal` conjuncts (see
// classads::indexable_equalities) only evaluates the machines in the
// intersection of the matching index buckets — plus every machine whose
// value for that attribute is a computed expression (those can never be
// keyed, so they stay candidates for everything). Pruning is a strict
// superset filter: symmetric_match still decides, so results are
// identical to the full scan, just with far fewer evaluations.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "classads/classad.hpp"
#include "condor/job.hpp"
#include "util/sync.hpp"

namespace tdp::condor {

class Matchmaker {
 public:
  /// A startd advertisement; replaces any previous ad for `name`.
  void advertise_machine(const std::string& name, classads::ClassAd ad);

  /// Removes a machine (host gone or shutting down).
  void withdraw_machine(const std::string& name);

  [[nodiscard]] std::size_t machine_count() const;

  struct Match {
    JobId job = 0;
    std::string machine;
    double job_rank = 0.0;
    double machine_rank = 0.0;
  };

  /// One negotiation cycle. `idle_jobs` come from the schedd in queue
  /// order; machines in `busy` are excluded (already claimed). A machine
  /// matched earlier in the same cycle is not offered twice.
  std::vector<Match> negotiate(
      const std::vector<std::pair<JobId, classads::ClassAd>>& idle_jobs,
      const std::set<std::string>& busy);

  /// Lifetime statistics for the pipeline benches.
  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t matches = 0;
    std::uint64_t evaluations = 0;   ///< symmetric_match calls performed
    std::uint64_t indexed_jobs = 0;  ///< jobs negotiated via index pruning
    std::uint64_t pruned = 0;        ///< machine evaluations skipped by the index
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Adds `name`'s literal attributes to the inverted index (computed
  /// attributes land in the per-attribute unindexed set).
  void index_machine_locked(const std::string& name,
                            const classads::ClassAd& ad) TDP_REQUIRES(mutex_);
  void deindex_machine_locked(const std::string& name) TDP_REQUIRES(mutex_);

  mutable Mutex mutex_{"Matchmaker::mutex_"};
  std::map<std::string, classads::ClassAd> machines_ TDP_GUARDED_BY(mutex_);
  Stats stats_ TDP_GUARDED_BY(mutex_);
  /// attribute -> canonical value key -> machines advertising that value.
  std::map<std::string, std::map<std::string, std::set<std::string>>> index_
      TDP_GUARDED_BY(mutex_);
  /// attribute -> machines whose value is a computed expression (cannot be
  /// keyed; always candidates when that attribute is probed).
  std::map<std::string, std::set<std::string>> unindexed_ TDP_GUARDED_BY(mutex_);
  /// machine -> its (attribute, key) entries, "" key = unindexed set; makes
  /// deindexing O(own attributes) instead of a full index walk.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      machine_keys_ TDP_GUARDED_BY(mutex_);
};

}  // namespace tdp::condor
