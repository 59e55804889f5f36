// startd.hpp - condor_startd: "represents a given resource in the Condor
// pool ... When the condor_startd is ready to execute a Condor job, it
// spawns the condor_starter." It owns the machine's side of the claiming
// protocol: a claim may be refused ("either party may decide not to
// complete the allocation").
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "classads/classad.hpp"
#include "condor/starter.hpp"
#include "util/flightrec.hpp"
#include "util/journal.hpp"
#include "util/sync.hpp"

namespace tdp::condor {

class Startd {
 public:
  enum class State : std::uint8_t { kUnclaimed = 0, kClaimed, kBusy };

  Startd(std::string name, classads::ClassAd ad);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Snapshot of the current advertisement (updated concurrently by
  /// update_ad(), hence by value).
  [[nodiscard]] classads::ClassAd ad() const;
  [[nodiscard]] State state() const;

  /// Updates the advertisement (e.g. load changes).
  void update_ad(classads::ClassAd ad);

  /// The claiming protocol, machine side: verifies the machine is still
  /// unclaimed and that its Requirements still hold against the job ad.
  /// Returns false to refuse the claim.
  bool request_claim(JobId job, const classads::ClassAd& job_ad);

  /// Releases an existing claim without running (schedd backed out).
  void release_claim();

  /// Activation: spawns the starter for the claimed job. The startd owns
  /// the starter until the job finishes and retire() is called.
  Result<Starter*> activate(JobRecord job, StarterConfig config, StatusSink* sink);

  [[nodiscard]] Starter* starter() const;

  /// Tears down the finished starter and returns to kUnclaimed.
  void retire();

  [[nodiscard]] JobId claimed_job() const;

  // --- claim-table journal (PR 5) ---

  /// Attaches a write-ahead journal for the claim table (not owned). Claim
  /// grants and releases are recorded so a startd restarted after a crash
  /// knows which job it was holding.
  void set_journal(journal::Journal* journal);

  /// Replays the claim journal. Returns the orphaned claim - the job the
  /// dead incarnation held - if one was live, so the pool can requeue it
  /// exactly once. The recovered startd always comes back kUnclaimed (the
  /// starter and its processes died with the old incarnation).
  Result<std::optional<JobId>> recover();

  // --- black-box flight recorder (PR 9) ---

  /// Attaches the machine's flight recorder (shared with the pool, which
  /// keeps it alive across kill_startd the way claim journals survive).
  /// Claim transitions and journal replays land in the ring; events are
  /// recorded with no startd lock held.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// Journals the claim state: a live claim writes ("claim", job), release
  /// writes ("clear").
  void journal_claim_locked() TDP_REQUIRES(mutex_);

  std::string name_;
  mutable Mutex mutex_{"Startd::mutex_"};
  classads::ClassAd ad_ TDP_GUARDED_BY(mutex_);
  State state_ TDP_GUARDED_BY(mutex_) = State::kUnclaimed;
  JobId claimed_job_ TDP_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<Starter> starter_ TDP_GUARDED_BY(mutex_);
  journal::Journal* journal_ TDP_GUARDED_BY(mutex_) = nullptr;
  /// Set once at creation, before concurrent use; recorded into outside
  /// mutex_ so the recorder's shard lock stays a leaf with no edge from
  /// Startd::mutex_.
  std::shared_ptr<flightrec::Recorder> recorder_ =
      flightrec::Recorder::disabled();
};

const char* startd_state_name(Startd::State state) noexcept;

}  // namespace tdp::condor
