#include "condor/schedd.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace tdp::condor {

namespace {
const log::Logger kLog("schedd");
}

// ---------------------------------------------------------------------
// Shadow
// ---------------------------------------------------------------------

Shadow::Shadow(JobId job, std::string submit_dir, UpdateFn on_update)
    : job_(job), submit_dir_(std::move(submit_dir)), on_update_(std::move(on_update)) {}

void Shadow::on_job_status(JobId id, JobStatus status, int exit_code,
                           const std::string& detail) {
  // Status updates arrive from the starter's thread while its launch/pump
  // span (or the job's ambient context) is active; join that tree. An
  // untraced update (unit tests driving a bare Shadow) records nothing.
  std::optional<telemetry::Span> span;
  if (telemetry::current_context().valid()) {
    span.emplace("shadow.update", "shadow");
  }
  {
    LockGuard lock(mutex_);
    last_status_ = status;
    if (job_status_terminal(status)) exit_code_ = exit_code;
    ++updates_;
  }
  if (on_update_) on_update_(id, status, exit_code, detail);
}

void Shadow::on_job_output(JobId id, const std::string& chunk) {
  (void)id;
  LockGuard lock(mutex_);
  live_output_ += chunk;
}

std::string Shadow::live_output() const {
  LockGuard lock(mutex_);
  return live_output_;
}

JobStatus Shadow::last_status() const {
  LockGuard lock(mutex_);
  return last_status_;
}

int Shadow::exit_code() const {
  LockGuard lock(mutex_);
  return exit_code_;
}

std::size_t Shadow::updates_received() const {
  LockGuard lock(mutex_);
  return updates_;
}

Result<std::string> Shadow::remote_read(const std::string& path) {
  {
    LockGuard lock(mutex_);
    ++remote_syscalls_;
  }
  std::ifstream in(submit_dir_ + "/" + path, std::ios::binary);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "remote_read: no such file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status Shadow::remote_write(const std::string& path, const std::string& data) {
  {
    LockGuard lock(mutex_);
    ++remote_syscalls_;
  }
  std::ofstream out(submit_dir_ + "/" + path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(ErrorCode::kInternal, "remote_write: cannot open: " + path);
  }
  out << data;
  return out.good() ? Status::ok()
                    : make_error(ErrorCode::kInternal, "remote_write failed: " + path);
}

std::size_t Shadow::remote_syscalls() const {
  LockGuard lock(mutex_);
  return remote_syscalls_;
}

// ---------------------------------------------------------------------
// Schedd
// ---------------------------------------------------------------------

Schedd::Schedd(std::string name) : name_(std::move(name)) {}

JobId Schedd::enqueue_locked(const JobDescription& description,
                             std::string tenant, bool best_effort,
                             std::string trace) {
  JobRecord record;
  record.id = next_id_++;
  record.description = description;
  record.status = JobStatus::kIdle;
  record.tenant = std::move(tenant);
  record.best_effort = best_effort;
  record.trace = std::move(trace);
  journal_record_locked(record);
  const JobId id = record.id;
  jobs_[id] = std::move(record);
  track_job_locked(jobs_[id]);
  kLog.debug(name_, ": queued job ", id);
  return id;
}

JobId Schedd::submit(const JobDescription& description) {
  // The root of the job's causal tree: every later span - startd claim,
  // starter launch, paradynd attach - parents here via record.trace.
  telemetry::Span span("schedd.submit", "schedd");
  telemetry::Registry::instance().counter("schedd.submits").inc();
  UniqueLock lock(mutex_);
  const JobId id = enqueue_locked(  // NOLINT: journal-under-lock debt already baselined at journal_record_locked
      description, tenant_of(description), /*best_effort=*/false,
      span.context().valid() ? telemetry::format_context(span.context())
                             : std::string());
  lock.unlock();
  recorder_->state("submit", "job=" + std::to_string(id), span.context().trace_id,
                   span.context().span_id);
  return id;
}

Result<JobId> Schedd::try_submit(const JobDescription& description) {
  telemetry::Span span("schedd.submit", "schedd");
  telemetry::Registry::instance().counter("schedd.submits").inc();
  const std::string tenant = tenant_of(description);
  UniqueLock lock(mutex_);
  bool best_effort = false;
  if (front_door_ != nullptr) {
    auto load_it = tenant_load_.find(tenant);
    const TenantLoad load =
        load_it == tenant_load_.end() ? TenantLoad{} : load_it->second;
    const Admission decision = front_door_->admit(tenant, load.idle, load.active);
    if (!decision.admitted()) {
      lock.unlock();
      telemetry::Registry::instance().counter("schedd.submits_refused").inc();
      // The hint rides in the message the same way a busy attr reply
      // carries it, so attr::retry_after_hint_ms() parses both.
      return make_error(ErrorCode::kBusy,
                        decision.reason + "; retry_after_ms=" +
                            std::to_string(decision.retry_after_ms));
    }
    best_effort = decision.verdict == Admission::Verdict::kAdmitBestEffort;
  }
  const JobId id = enqueue_locked(
      description, tenant, best_effort,
      span.context().valid() ? telemetry::format_context(span.context())
                             : std::string());
  lock.unlock();
  recorder_->state("submit", "job=" + std::to_string(id), span.context().trace_id,
                   span.context().span_id);
  return id;
}

std::vector<JobId> Schedd::submit(const SubmitFile& file) {
  std::vector<JobId> ids;
  ids.reserve(file.jobs().size());
  for (const JobDescription& description : file.jobs()) {
    ids.push_back(submit(description));
  }
  return ids;
}

std::vector<std::pair<JobId, classads::ClassAd>> Schedd::idle_job_ads() const {
  LockGuard lock(mutex_);
  std::vector<std::pair<JobId, classads::ClassAd>> out;
  for (const auto& [id, record] : jobs_) {
    if (record.status == JobStatus::kIdle && !record.shed) {
      out.emplace_back(id, record.description.to_classad());
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Front door (PR 10)
// ---------------------------------------------------------------------

int Schedd::tenant_weight_locked(const std::string& tenant) const {
  // FrontDoor::mutex_ is a strict leaf under Schedd::mutex_ (DESIGN.md §10).
  return front_door_ == nullptr ? 1 : front_door_->policy(tenant).weight;
}

void Schedd::track_job_locked(const JobRecord& record) {
  const std::string& tenant =
      record.tenant.empty() ? kDefaultTenant : record.tenant;
  TenantLoad& load = tenant_load_[tenant];
  switch (record.status) {
    case JobStatus::kIdle:
      if (!record.shed) {
        ++load.idle;
        wrr_.push(tenant, tenant_weight_locked(tenant), record.id);
      }
      break;
    case JobStatus::kMatched:
    case JobStatus::kClaimed:
    case JobStatus::kRunning:
      ++load.active;
      break;
    default:
      break;
  }
}

void Schedd::untrack_job_locked(const JobRecord& record) {
  const std::string& tenant =
      record.tenant.empty() ? kDefaultTenant : record.tenant;
  wrr_.erase(record.id);
  auto it = tenant_load_.find(tenant);
  if (it == tenant_load_.end()) return;
  switch (record.status) {
    case JobStatus::kIdle:
      if (!record.shed && it->second.idle > 0) --it->second.idle;
      break;
    case JobStatus::kMatched:
    case JobStatus::kClaimed:
    case JobStatus::kRunning:
      if (it->second.active > 0) --it->second.active;
      break;
    default:
      break;
  }
}

void Schedd::rebuild_tenant_state_locked() {
  wrr_ = WrrQueues{};
  tenant_load_.clear();
  for (const auto& [id, record] : jobs_) track_job_locked(record);
}

void Schedd::set_front_door(FrontDoor* front_door) {
  LockGuard lock(mutex_);
  front_door_ = front_door;
  // WRR weights come from the front door's policies: re-queue everything.
  rebuild_tenant_state_locked();
}

FrontDoor* Schedd::front_door() const {
  LockGuard lock(mutex_);
  return front_door_;
}

HealthTransition Schedd::on_health(health::Severity severity) {
  HealthTransition transition;
  std::size_t newly_shed = 0;
  std::size_t unshed = 0;
  {
    UniqueLock lock(mutex_);
    if (front_door_ == nullptr) return transition;
    transition = front_door_->on_health(severity);
    if (transition.state != BrownoutState::kNormal) {
      // Shed every dispatchable job of a tenant below the floor. Runs on
      // every brownout tick, not just the entering one, so jobs that slip
      // back to idle mid-brownout (machine-failure requeues) are caught.
      // The `record.shed` guard plus the journal append make each decision
      // exactly-once: a replayed journal sees one flip, not two.
      for (auto& [id, record] : jobs_) {
        if (record.status != JobStatus::kIdle || record.shed) continue;
        const std::string& tenant =
            record.tenant.empty() ? kDefaultTenant : record.tenant;
        if (front_door_->policy(tenant).priority >= transition.shed_floor) {
          continue;
        }
        untrack_job_locked(record);
        record.shed = true;
        track_job_locked(record);
        journal_record_locked(record);
        ++newly_shed;
      }
    } else if (transition.exited) {
      for (auto& [id, record] : jobs_) {
        if (!record.shed) continue;
        untrack_job_locked(record);
        record.shed = false;
        track_job_locked(record);
        journal_record_locked(record);
        ++unshed;
      }
    }
  }
  if (transition.entered || transition.exited) {
    recorder_->state("brownout",
                     std::string(brownout_state_name(transition.state)) +
                         " shed=" + std::to_string(newly_shed) +
                         " unshed=" + std::to_string(unshed));
  }
  if (newly_shed > 0) {
    telemetry::Registry::instance().counter("schedd.jobs_shed").add(newly_shed);
  }
  return transition;
}

std::size_t Schedd::shed_jobs() const {
  LockGuard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, record] : jobs_) {
    if (record.shed) ++count;
  }
  return count;
}

std::size_t Schedd::best_effort_jobs() const {
  LockGuard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, record] : jobs_) {
    if (record.best_effort) ++count;
  }
  return count;
}

std::size_t Schedd::tenant_idle(const std::string& tenant) const {
  LockGuard lock(mutex_);
  auto it = tenant_load_.find(tenant);
  return it == tenant_load_.end() ? 0 : it->second.idle;
}

std::size_t Schedd::tenant_active(const std::string& tenant) const {
  LockGuard lock(mutex_);
  auto it = tenant_load_.find(tenant);
  return it == tenant_load_.end() ? 0 : it->second.active;
}

std::vector<std::pair<JobId, classads::ClassAd>> Schedd::dispatch_ads(
    std::size_t limit) {
  LockGuard lock(mutex_);
  std::vector<std::pair<JobId, classads::ClassAd>> out;
  if (front_door_ == nullptr) {
    // Legacy path: the whole idle queue in id order (the seed behaviour).
    for (const auto& [id, record] : jobs_) {
      if (record.status == JobStatus::kIdle && !record.shed) {
        out.emplace_back(id, record.description.to_classad());
      }
    }
    return out;
  }
  for (JobId id : wrr_.pop_round(limit)) {
    auto it = jobs_.find(id);
    // Popping is destructive; drop ids that stopped being dispatchable
    // between push and pop (matched, removed, shed).
    if (it == jobs_.end() || it->second.status != JobStatus::kIdle ||
        it->second.shed) {
      continue;
    }
    out.emplace_back(id, it->second.description.to_classad());
    // Rotate: back of the lane, so an unmatched job yields its turn but a
    // matched one is simply erased by its status transition.
    const std::string& tenant =
        it->second.tenant.empty() ? kDefaultTenant : it->second.tenant;
    wrr_.push(tenant, tenant_weight_locked(tenant), id);
  }
  return out;
}

Result<JobRecord> Schedd::job(JobId id) const {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(ErrorCode::kNotFound, "no such job: " + std::to_string(id));
  }
  return it->second;
}

Status Schedd::update_job(JobId id, JobStatus status, int exit_code,
                          const std::string& detail) {
  {
    UniqueLock lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return make_error(ErrorCode::kNotFound, "no such job: " + std::to_string(id));
    }
    if (job_status_terminal(it->second.status) && status != it->second.status) {
      return make_error(ErrorCode::kInvalidState,
                        "job " + std::to_string(id) + " already terminal");
    }
    untrack_job_locked(it->second);
    it->second.status = status;
    track_job_locked(it->second);
    if (job_status_terminal(status)) it->second.exit_code = exit_code;
    if (!detail.empty() && status == JobStatus::kFailed) {
      it->second.failure_reason = detail;
    }
    journal_record_locked(it->second);
  }
  recorder_->state("job", "job=" + std::to_string(id) + " status=" +
                              job_status_name(status));
  return Status::ok();
}

Status Schedd::set_matched(JobId id, const std::string& machine) {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(ErrorCode::kNotFound, "no such job: " + std::to_string(id));
  }
  if (it->second.status != JobStatus::kIdle) {
    return make_error(ErrorCode::kInvalidState,
                      "job " + std::to_string(id) + " is not idle");
  }
  untrack_job_locked(it->second);
  it->second.status = JobStatus::kMatched;
  track_job_locked(it->second);
  it->second.matched_machine = machine;
  journal_record_locked(it->second);
  return Status::ok();
}

Status Schedd::remove_job(JobId id) {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(ErrorCode::kNotFound, "no such job: " + std::to_string(id));
  }
  if (job_status_terminal(it->second.status)) {
    return make_error(ErrorCode::kInvalidState, "job already terminal");
  }
  untrack_job_locked(it->second);
  it->second.status = JobStatus::kRemoved;
  track_job_locked(it->second);
  journal_record_locked(it->second);
  return Status::ok();
}

Status Schedd::requeue_job(JobId id, const std::string& checkpoint) {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(ErrorCode::kNotFound, "no such job: " + std::to_string(id));
  }
  if (job_status_terminal(it->second.status)) {
    return make_error(ErrorCode::kInvalidState, "job already terminal");
  }
  untrack_job_locked(it->second);
  it->second.status = JobStatus::kIdle;
  track_job_locked(it->second);
  it->second.matched_machine.clear();
  it->second.description.checkpoint = checkpoint;
  ++it->second.restarts;
  journal_record_locked(it->second);
  shadows_.erase(id);  // a fresh shadow is spawned on the next activation
  kLog.info(name_, ": job ", id, " requeued (restart #", it->second.restarts,
            checkpoint.empty() ? ", from scratch)" : ", from checkpoint)");
  return Status::ok();
}

std::vector<JobId> Schedd::jobs_on_machine(const std::string& machine) const {
  LockGuard lock(mutex_);
  std::vector<JobId> ids;
  for (const auto& [id, record] : jobs_) {
    if (record.matched_machine == machine && !job_status_terminal(record.status)) {
      ids.push_back(id);
    }
  }
  return ids;
}

Shadow* Schedd::spawn_shadow(JobId id, const std::string& submit_dir) {
  LockGuard lock(mutex_);
  auto shadow = std::make_unique<Shadow>(
      id, submit_dir,
      [this](JobId job_id, JobStatus status, int exit_code, const std::string& detail) {
        // Shadow -> schedd status propagation (Figure 4's update path).
        update_job(job_id, status, exit_code, detail);
      });
  Shadow* raw = shadow.get();
  shadows_[id] = std::move(shadow);
  return raw;
}

Shadow* Schedd::shadow(JobId id) {
  LockGuard lock(mutex_);
  auto it = shadows_.find(id);
  return it == shadows_.end() ? nullptr : it->second.get();
}

std::size_t Schedd::queue_size() const {
  LockGuard lock(mutex_);
  return jobs_.size();
}

// ---------------------------------------------------------------------
// Crash recovery (PR 5)
// ---------------------------------------------------------------------

void Schedd::journal_record_locked(const JobRecord& record) {
  // The journal mutex is a strict leaf (DESIGN.md §10): appending under
  // Schedd::mutex_ is the intended order and the append never calls out.
  static constexpr std::size_t kCompactTailRecords = 256;
  if (journal_ == nullptr) return;
  Status appended = journal_->append(job_to_journal(record));
  if (!appended.is_ok()) {
    kLog.warn(name_, ": journal append failed: ", appended.to_string());
    return;
  }
  if (journal_->tail_size() >= kCompactTailRecords) {
    std::vector<journal::Record> snapshot;
    snapshot.reserve(jobs_.size() + 1);
    for (const auto& [id, live] : jobs_) {
      if (live.id == record.id) continue;  // the in-flight mutation
      snapshot.push_back(job_to_journal(live));
    }
    snapshot.push_back(job_to_journal(record));
    Status written = journal_->write_snapshot(snapshot);
    if (!written.is_ok()) {
      kLog.warn(name_, ": journal compaction failed: ", written.to_string());
    }
  }
}

void Schedd::set_journal(journal::Journal* journal) {
  LockGuard lock(mutex_);
  journal_ = journal;
  if (journal_ == nullptr || jobs_.empty()) return;
  // Adopt the live queue as journal truth (attach-to-running-daemon case).
  std::vector<journal::Record> snapshot;
  snapshot.reserve(jobs_.size());
  for (const auto& [id, record] : jobs_) {
    snapshot.push_back(job_to_journal(record));
  }
  Status written = journal_->write_snapshot(snapshot);
  if (!written.is_ok()) {
    kLog.warn(name_, ": journal adoption snapshot failed: ", written.to_string());
  }
}

void Schedd::crash() {
  std::size_t dropped = 0;
  {
    LockGuard lock(mutex_);
    kLog.warn(name_, ": simulated crash; dropping ", jobs_.size(),
              " job(s) and ", shadows_.size(), " shadow(s) from memory");
    dropped = jobs_.size();
    jobs_.clear();
    shadows_.clear();
    wrr_ = WrrQueues{};
    tenant_load_.clear();
    next_id_ = 1;
    crashed_ = true;
  }
  // The recorder is the pool's, not the dead object's memory: like the
  // journal, it survives the crash and carries the last pre-death events.
  recorder_->state("crash", "jobs_dropped=" + std::to_string(dropped));
}

bool Schedd::crashed() const {
  LockGuard lock(mutex_);
  return crashed_;
}

Status Schedd::recover() {
  telemetry::Span span("schedd.recover", "schedd");
  UniqueLock lock(mutex_);
  if (journal_ == nullptr) {
    return make_error(ErrorCode::kInvalidState, "schedd has no journal");
  }
  journal::ReplayStats replay_stats;
  auto replayed = journal_->replay(&replay_stats);
  if (!replayed.is_ok()) return replayed.status();
  if (replay_stats.resyncs > 0 || replay_stats.torn_tail) {
    kLog.warn(name_, ": journal recovery skipped ", replay_stats.bytes_skipped,
              " byte(s) across ", replay_stats.resyncs, " resync(s)",
              replay_stats.torn_tail ? " plus a torn tail" : "");
    telemetry::Registry::instance()
        .counter("schedd.journal_resyncs")
        .add(replay_stats.resyncs + (replay_stats.torn_tail ? 1 : 0));
  }
  jobs_.clear();
  shadows_.clear();
  JobId max_id = 0;
  for (const journal::Record& raw : replayed.value()) {
    if (raw.type != "job") continue;
    auto record = job_from_journal(raw);
    if (!record.is_ok()) {
      kLog.warn(name_, ": skipping damaged journal record: ",
                record.status().to_string());
      continue;
    }
    max_id = std::max(max_id, record->id);
    jobs_[record->id] = std::move(record.value());
  }
  next_id_ = std::max<JobId>(next_id_, max_id + 1);
  // Jobs that were in flight died with the daemon's shadows and claims:
  // return them to the idle queue. Brownout is likewise re-derived from
  // live health after recovery, so a stale shed flag (which would strand
  // the job if the overload died with the daemon) is cleared here.
  std::size_t requeued = 0;
  bool dirty = false;
  for (auto& [id, record] : jobs_) {
    if (record.tenant.empty()) record.tenant = kDefaultTenant;
    if (record.shed) {
      record.shed = false;
      dirty = true;
    }
    if (record.status == JobStatus::kIdle || job_status_terminal(record.status)) {
      continue;
    }
    record.status = JobStatus::kIdle;
    record.matched_machine.clear();
    ++record.restarts;
    dirty = true;
    ++requeued;
  }
  rebuild_tenant_state_locked();
  // Durability for the fixups is ONE compaction snapshot instead of
  // per-record appends, written outside the lock: the daemon still reads
  // as crashed until the snapshot lands, so nothing can interleave a newer
  // mutation behind it, and the file write stays off the lock graph. This
  // keeps recovery exactly-once either way - a crash before the snapshot
  // replays the old journal and redoes the same idempotent fixups, a crash
  // after it replays the recovered state.
  std::vector<JobRecord> live;
  if (dirty) {
    live.reserve(jobs_.size());
    for (const auto& [id, record] : jobs_) live.push_back(record);
  }
  const std::size_t recovered = jobs_.size();
  journal::Journal* journal = journal_;  // guarded pointer, used unlocked below
  lock.unlock();
  if (dirty) {
    std::vector<journal::Record> snapshot;
    snapshot.reserve(live.size());
    for (const JobRecord& record : live) {
      snapshot.push_back(job_to_journal(record));
    }
    Status written = journal->write_snapshot(snapshot);
    if (!written.is_ok()) {
      kLog.warn(name_, ": recovery snapshot failed: ", written.to_string());
    }
  }
  lock.lock();
  crashed_ = false;
  lock.unlock();
  kLog.info(name_, ": recovered ", recovered, " job(s) from journal, ",
            requeued, " requeued");
  telemetry::Registry::instance().counter("schedd.recoveries").inc();
  recorder_->replay("queue-journal", replay_stats);
  recorder_->state("recover", "jobs=" + std::to_string(recovered) +
                                  " requeued=" + std::to_string(requeued));
  return Status::ok();
}

std::size_t Schedd::count_with_status(JobStatus status) const {
  LockGuard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, record] : jobs_) {
    if (record.status == status) ++count;
  }
  return count;
}

}  // namespace tdp::condor
