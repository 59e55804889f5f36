// schedd.hpp - condor_schedd and condor_shadow (the submit-side daemons).
//
// "condor_schedd ... takes care of the job until a suitable and available
// resource is found for the job. The condor_schedd spawns a condor_shadow
// daemon to serve that particular request." The shadow "acts as the
// resource manager for the request" on the submit side: it receives the
// starter's status stream and serves remote system calls (file I/O
// performed on the submit machine on behalf of the remote job).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condor/frontdoor.hpp"
#include "condor/job.hpp"
#include "condor/starter.hpp"
#include "condor/submit_file.hpp"
#include "util/flightrec.hpp"
#include "util/health.hpp"
#include "util/journal.hpp"
#include "util/sync.hpp"

namespace tdp::condor {

/// The per-job submit-side agent. Implements StatusSink so a starter can
/// report straight into it; forwards every update to the schedd.
class Shadow final : public StatusSink {
 public:
  using UpdateFn =
      std::function<void(JobId, JobStatus, int exit_code, const std::string&)>;

  Shadow(JobId job, std::string submit_dir, UpdateFn on_update);

  void on_job_status(JobId id, JobStatus status, int exit_code,
                     const std::string& detail) override;

  /// Live stdout stream from the starter (live_stdio mode).
  void on_job_output(JobId id, const std::string& chunk) override;

  /// Everything received through on_job_output so far.
  [[nodiscard]] std::string live_output() const;

  [[nodiscard]] JobId job() const noexcept { return job_; }
  [[nodiscard]] JobStatus last_status() const;
  [[nodiscard]] int exit_code() const;
  [[nodiscard]] std::size_t updates_received() const;

  // --- remote system calls (the standard-universe mechanism: "any system
  // call performed on the remote execute machine is sent over the network
  // to the condor_shadow which actually performs the system call (such as
  // file I/O) on the submit machine") ---

  /// Reads a file relative to the submit directory. Also serves as the
  /// StatusSink remote-syscall channel the standard universe uses.
  Result<std::string> remote_read(const std::string& path) override;

  /// Writes/overwrites a file relative to the submit directory.
  Status remote_write(const std::string& path, const std::string& data) override;

  /// Remote syscalls served so far (standard-universe accounting).
  [[nodiscard]] std::size_t remote_syscalls() const;

 private:
  JobId job_;
  std::string submit_dir_;
  UpdateFn on_update_;

  mutable Mutex mutex_{"Shadow::mutex_"};
  JobStatus last_status_ TDP_GUARDED_BY(mutex_) = JobStatus::kIdle;
  int exit_code_ TDP_GUARDED_BY(mutex_) = -1;
  std::size_t updates_ TDP_GUARDED_BY(mutex_) = 0;
  std::string live_output_ TDP_GUARDED_BY(mutex_);
  std::size_t remote_syscalls_ TDP_GUARDED_BY(mutex_) = 0;
};

/// The submit-side queue manager.
class Schedd {
 public:
  explicit Schedd(std::string name = "schedd");

  /// Queues one job; returns its id. Bypasses the front door (internal
  /// and legacy callers); externally-facing submits go through
  /// try_submit().
  JobId submit(const JobDescription& description);

  /// Queues every job a submit file describes.
  std::vector<JobId> submit(const SubmitFile& file);

  // --- front door (PR 10) ---

  /// Attaches the admission layer (not owned; must outlive the schedd or
  /// be detached with nullptr). From then on try_submit() enforces
  /// per-tenant rate/depth/quota and dispatch_ads() drains the per-tenant
  /// queues weighted round-robin.
  void set_front_door(FrontDoor* front_door);
  [[nodiscard]] FrontDoor* front_door() const;

  /// Admission-controlled submit. Refusals return ErrorCode::kBusy with
  /// "retry_after_ms=<n>" in the message (attr::retry_after_hint_ms
  /// parses it) instead of growing the queue — the backpressure contract.
  /// Without an attached front door this is just submit().
  Result<JobId> try_submit(const JobDescription& description);

  /// Feeds the pool's folded health verdict into the brownout state
  /// machine and applies the consequences to the queue: entering a
  /// brownout (or escalating) sheds idle jobs of tenants below the floor,
  /// exiting un-sheds them. Both directions journal each touched job, so
  /// the decisions replay exactly-once across a crash.
  HealthTransition on_health(health::Severity severity);

  /// Jobs currently held out of dispatch by a brownout.
  [[nodiscard]] std::size_t shed_jobs() const;
  /// Jobs admitted as best-effort during a brownout (lifetime flag).
  [[nodiscard]] std::size_t best_effort_jobs() const;
  /// Idle (dispatchable) / in-flight job counts for one tenant.
  [[nodiscard]] std::size_t tenant_idle(const std::string& tenant) const;
  [[nodiscard]] std::size_t tenant_active(const std::string& tenant) const;

  /// Ads of up to `limit` dispatchable idle jobs, drained from the
  /// per-tenant queues weighted round-robin (shed jobs excluded). Without
  /// a front door falls back to idle_job_ads() — the legacy full scan in
  /// id order. The WRR queues rotate: jobs the matchmaker does not place
  /// return to the back of their tenant's lane.
  [[nodiscard]] std::vector<std::pair<JobId, classads::ClassAd>> dispatch_ads(
      std::size_t limit);

  /// Ads of all idle jobs, in queue order (input to the matchmaker).
  [[nodiscard]] std::vector<std::pair<JobId, classads::ClassAd>> idle_job_ads() const;

  /// Snapshot of a job. kNotFound for unknown ids.
  Result<JobRecord> job(JobId id) const;

  /// Status transition, recorded with detail; illegal regressions from a
  /// terminal state are rejected.
  Status update_job(JobId id, JobStatus status, int exit_code,
                    const std::string& detail);

  /// Marks the match target (set when the matchmaker notifies us).
  Status set_matched(JobId id, const std::string& machine);

  /// User-initiated removal; running jobs are the pool's business to kill.
  Status remove_job(JobId id);

  /// Returns an interrupted (non-terminal) job to the idle queue after a
  /// machine failure. When `checkpoint` is non-empty the job resumes from
  /// it on its next activation. Increments the restart counter.
  Status requeue_job(JobId id, const std::string& checkpoint);

  /// Ids of every non-terminal job currently matched to `machine` (orphan
  /// discovery after a startd death without a goodbye).
  [[nodiscard]] std::vector<JobId> jobs_on_machine(const std::string& machine) const;

  /// Spawns the shadow for a matched job. The schedd owns it.
  Shadow* spawn_shadow(JobId id, const std::string& submit_dir);
  [[nodiscard]] Shadow* shadow(JobId id);

  [[nodiscard]] std::size_t queue_size() const;
  [[nodiscard]] std::size_t count_with_status(JobStatus status) const;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- crash recovery (PR 5) ---

  /// Attaches a write-ahead journal (not owned; must outlive the schedd or
  /// be detached with nullptr). Every queue mutation is journaled from then
  /// on; any jobs already queued are snapshotted in. The journal is
  /// compacted to a snapshot when its tail grows past an internal bound.
  void set_journal(journal::Journal* journal);

  /// Simulates whole-process death: all in-memory state (queue, shadows,
  /// next id) vanishes; only the journal - the disk - survives. Queries on
  /// a crashed schedd see an empty daemon, exactly like calls into a dead
  /// process that was restarted cold.
  void crash();

  [[nodiscard]] bool crashed() const;

  /// Rebuilds the queue from the journal (last record per job id wins) and
  /// requeues every job that was in flight when the daemon died - its
  /// shadow died too, so the job restarts idle with restarts+1. Requires a
  /// journal.
  Status recover();

  // --- black-box flight recorder (PR 9) ---

  /// Attaches the schedd's flight recorder (shared with the pool so the
  /// ring survives crash()). Queue lifecycle transitions, the crash and
  /// the journal replay land in the ring; events are recorded with no
  /// schedd lock held.
  void set_recorder(std::shared_ptr<flightrec::Recorder> recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// Appends one job record to the journal and compacts when due.
  void journal_record_locked(const JobRecord& record) TDP_REQUIRES(mutex_);

  /// Creates, journals, inserts and tracks one idle job. `trace` is the
  /// submit span's serialized context.
  JobId enqueue_locked(const JobDescription& description, std::string tenant,
                       bool best_effort, std::string trace)
      TDP_REQUIRES(mutex_);

  /// Per-tenant queue accounting. Every status mutation brackets itself
  /// with untrack (old state) / track (new state) so the counters and the
  /// WRR queues always mirror the job table.
  void track_job_locked(const JobRecord& record) TDP_REQUIRES(mutex_);
  void untrack_job_locked(const JobRecord& record) TDP_REQUIRES(mutex_);
  /// Rebuilds counters and WRR queues from jobs_ (recovery).
  void rebuild_tenant_state_locked() TDP_REQUIRES(mutex_);
  [[nodiscard]] int tenant_weight_locked(const std::string& tenant) const
      TDP_REQUIRES(mutex_);

  struct TenantLoad {
    std::size_t idle = 0;    ///< dispatchable (kIdle, not shed)
    std::size_t active = 0;  ///< in flight (matched / claimed / running)
  };

  std::string name_;
  mutable Mutex mutex_{"Schedd::mutex_"};
  std::map<JobId, JobRecord> jobs_ TDP_GUARDED_BY(mutex_);
  std::map<JobId, std::unique_ptr<Shadow>> shadows_ TDP_GUARDED_BY(mutex_);
  JobId next_id_ TDP_GUARDED_BY(mutex_) = 1;
  journal::Journal* journal_ TDP_GUARDED_BY(mutex_) = nullptr;
  bool crashed_ TDP_GUARDED_BY(mutex_) = false;
  /// Admission layer; its mutex is a strict leaf under mutex_.
  FrontDoor* front_door_ TDP_GUARDED_BY(mutex_) = nullptr;
  WrrQueues wrr_ TDP_GUARDED_BY(mutex_);
  std::map<std::string, TenantLoad> tenant_load_ TDP_GUARDED_BY(mutex_);
  /// Set once at creation, before concurrent use; recorded into outside
  /// mutex_ (the recorder's shard lock stays a leaf).
  std::shared_ptr<flightrec::Recorder> recorder_ =
      flightrec::Recorder::disabled();
};

}  // namespace tdp::condor
