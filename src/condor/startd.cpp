#include "condor/startd.hpp"

#include "util/log.hpp"

namespace tdp::condor {

namespace {
const log::Logger kLog("startd");
}

const char* startd_state_name(Startd::State state) noexcept {
  switch (state) {
    case Startd::State::kUnclaimed: return "unclaimed";
    case Startd::State::kClaimed: return "claimed";
    case Startd::State::kBusy: return "busy";
  }
  return "?";
}

Startd::Startd(std::string name, classads::ClassAd ad)
    : name_(std::move(name)), ad_(std::move(ad)) {}

Startd::State Startd::state() const {
  LockGuard lock(mutex_);
  return state_;
}

classads::ClassAd Startd::ad() const {
  LockGuard lock(mutex_);
  return ad_;
}

Starter* Startd::starter() const {
  LockGuard lock(mutex_);
  return starter_.get();
}

void Startd::update_ad(classads::ClassAd ad) {
  LockGuard lock(mutex_);
  ad_ = std::move(ad);
}

bool Startd::request_claim(JobId job, const classads::ClassAd& job_ad) {
  bool granted = false;
  {
    LockGuard lock(mutex_);
    if (state_ != State::kUnclaimed) {
      kLog.debug(name_, ": claim for job ", job, " refused (",
                 startd_state_name(state_), ")");
      return false;
    }
    // Machine-side re-verification: conditions may have changed since the
    // matchmaker's cycle (stale ad); the startd gets the final word.
    if (ad_.has(classads::ads::kRequirements) &&
        !ad_.evaluate(classads::ads::kRequirements, &job_ad).is_true()) {
      kLog.debug(name_, ": claim for job ", job, " refused (requirements)");
      return false;
    }
    state_ = State::kClaimed;
    claimed_job_ = job;
    journal_claim_locked();
    granted = true;
  }
  if (granted) {
    recorder_->state("claim", "job=" + std::to_string(job));
  }
  return granted;
}

void Startd::release_claim() {
  bool released = false;
  {
    LockGuard lock(mutex_);
    if (state_ == State::kClaimed) {
      state_ = State::kUnclaimed;
      claimed_job_ = 0;
      journal_claim_locked();
      released = true;
    }
  }
  if (released) recorder_->state("release", "");
}

Result<Starter*> Startd::activate(JobRecord job, StarterConfig config,
                                  StatusSink* sink) {
  const JobId job_id = job.id;
  UniqueLock lock(mutex_);
  if (state_ != State::kClaimed || claimed_job_ != job.id) {
    return make_error(ErrorCode::kInvalidState,
                      name_ + ": activation without a matching claim");
  }
  config.machine_name = name_;
  auto starter = std::make_unique<Starter>(std::move(job), std::move(config), sink);
  lock.unlock();
  Status launched = starter->launch();  // may spawn processes: no lock held
  lock.lock();
  if (!launched.is_ok()) {
    state_ = State::kUnclaimed;
    claimed_job_ = 0;
    return launched;
  }
  starter_ = std::move(starter);
  state_ = State::kBusy;
  Starter* active = starter_.get();
  lock.unlock();
  recorder_->state("activate", "job=" + std::to_string(job_id));
  return active;
}

void Startd::retire() {
  UniqueLock lock(mutex_);
  std::unique_ptr<Starter> starter = std::move(starter_);
  state_ = State::kUnclaimed;
  claimed_job_ = 0;
  journal_claim_locked();
  lock.unlock();
  if (starter != nullptr) recorder_->state("retire", "");
  starter.reset();  // shutdown outside the lock
}

JobId Startd::claimed_job() const {
  LockGuard lock(mutex_);
  return claimed_job_;
}

// ---------------------------------------------------------------------
// Claim-table journal (PR 5)
// ---------------------------------------------------------------------

void Startd::journal_claim_locked() {
  if (journal_ == nullptr) return;
  // The claim table is one slot, so every write is a full snapshot of it;
  // no separate compaction pass is ever needed.
  journal::Record record;
  if (claimed_job_ != 0) {
    record.type = "claim";
    record.fields = {std::to_string(claimed_job_)};
  } else {
    record.type = "clear";
  }
  Status written = journal_->write_snapshot({record});
  if (!written.is_ok()) {
    kLog.warn(name_, ": claim journal write failed: ", written.to_string());
  }
}

void Startd::set_journal(journal::Journal* journal) {
  // Attach only: the journal may still hold the previous incarnation's
  // claim, which recover() must be able to read before anything overwrites
  // it.
  LockGuard lock(mutex_);
  journal_ = journal;
}

Result<std::optional<JobId>> Startd::recover() {
  UniqueLock lock(mutex_);
  if (journal_ == nullptr) {
    return make_error(ErrorCode::kInvalidState, name_ + ": no claim journal");
  }
  journal::ReplayStats replay_stats;
  auto replayed = journal_->replay(&replay_stats);
  if (!replayed.is_ok()) return replayed.status();
  if (replay_stats.resyncs > 0 || replay_stats.torn_tail) {
    kLog.warn(name_, ": claim journal recovery skipped ",
              replay_stats.bytes_skipped, " byte(s) across ",
              replay_stats.resyncs, " resync(s)",
              replay_stats.torn_tail ? " plus a torn tail" : "");
  }
  std::optional<JobId> orphan;
  for (const journal::Record& record : replayed.value()) {
    if (record.type == "claim" && !record.fields.empty()) {
      try {
        orphan = std::stoll(record.fields[0]);
      } catch (const std::exception&) {
        kLog.warn(name_, ": damaged claim record ignored");
      }
    } else if (record.type == "clear") {
      orphan.reset();
    }
  }
  // The new incarnation starts unclaimed either way: the dead starter's
  // processes are gone, so holding the claim open would wedge the machine.
  state_ = State::kUnclaimed;
  claimed_job_ = 0;
  journal_claim_locked();
  if (orphan.has_value()) {
    kLog.warn(name_, ": recovered with orphaned claim for job ", *orphan);
  }
  lock.unlock();
  recorder_->replay("claim-journal", replay_stats);
  recorder_->state("recover", orphan.has_value()
                                  ? "orphan=" + std::to_string(*orphan)
                                  : "clean");
  return orphan;
}

}  // namespace tdp::condor
