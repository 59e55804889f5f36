// pool.hpp - the assembled MiniCondor pool: one schedd, one matchmaker,
// many startds, plus the connection proxy of Section 2.4. Pool drives the
// Figure-4 pipeline end to end:
//
//   submit -> schedd queue -> negotiate() [matchmaker] -> claiming
//   [schedd <-> startd] -> activate [startd spawns starter] -> Figure 6
//   TDP dance [starter <-> tool daemon <-> app] -> status via shadow ->
//   schedd records completion.
//
// The pool is transport- and backend-agnostic: with TcpTransport +
// PosixProcessBackend it runs real processes; with InProcTransport +
// SimProcessBackend it becomes the virtual cluster the scalability benches
// sweep.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "condor/frontdoor.hpp"
#include "condor/master.hpp"
#include "condor/matchmaker.hpp"
#include "condor/schedd.hpp"
#include "condor/startd.hpp"
#include "mrnet/hierarchy.hpp"
#include "net/proxy.hpp"
#include "util/flightrec.hpp"
#include "util/journal.hpp"
#include "util/lease.hpp"

namespace tdp::condor {

struct PoolConfig {
  std::shared_ptr<net::Transport> transport;
  /// Creates the per-machine process backend (each execution host controls
  /// its own processes — the single-point-of-responsibility of Section 2.3).
  std::function<std::shared_ptr<proc::ProcessBackend>(const std::string& machine)>
      backend_factory;
  std::string submit_dir = "/tmp";
  std::string scratch_base = "/tmp";
  bool use_real_files = true;
  /// Optional shared tool launcher handed to every starter (not owned).
  ToolLauncher* tool_launcher = nullptr;
  /// Front-end contact info starters publish (Figure 5's -p/-P ports).
  std::string frontend_host;
  int frontend_port = 0;
  int frontend_port2 = 0;
  /// Give starters this proxy address to publish (Section 2.4).
  std::string proxy_address;
  /// Central attribute space address handed to every starter; used to
  /// disseminate front-end contact info when frontend_host is not set.
  std::string cass_address;
  int tool_wait_timeout_ms = 30'000;
  /// Stream job stdout to the shadow while jobs run (real-files mode).
  bool live_stdio = false;
  /// Explicit LASS listen address pattern; "%m"/"%j" expand to machine/job.
  std::string lass_listen_pattern;
  /// Failure-recovery policy handed to every starter's TDP session; enable
  /// when the pool's transport is lossy (chaos tests, flaky networks).
  attr::RetryPolicy retry;

  // --- daemon-death survival (PR 5) ---

  /// Lease-based startd liveness: every pump turn beats each live startd's
  /// tdp.liveness.startd.<machine> lease into the CASS aggregation tree; a
  /// lease that expires (the daemon died without a goodbye) withdraws the
  /// machine and requeues its job exactly once. Off by default: the seed
  /// pipeline stays byte-identical.
  bool enable_liveness = false;
  lease::Config startd_lease;

  /// Clock for lease expiry, master backoff and heartbeat pacing.
  const Clock* clock = &RealClock::instance();

  /// Schedd write-ahead journal (not owned; must outlive the pool). When
  /// set, every queue mutation is journaled and the master supervises the
  /// schedd: a crash() is answered by recover() from this journal.
  journal::Journal* schedd_journal = nullptr;

  /// Per-machine claim-journal factory (not owned; journals must outlive
  /// the pool). A revived startd replays its claim journal and the orphaned
  /// job is requeued exactly once.
  std::function<journal::Journal*(const std::string& machine)> startd_journal_factory;

  /// Master supervision policy (backoff, jitter, restart budget).
  Master::Policy restart_policy;

  /// Tool-daemon lease supervision, forwarded to every starter.
  bool tool_lease_enabled = false;
  lease::Config tool_lease;
  int tool_restart_budget = 2;

  // --- hierarchical CASS (PR 7) ---

  /// Fanout of the mrnet aggregation tree that carries startd liveness and
  /// health (built when enable_liveness is on or health_rules is set):
  /// interior comm nodes hold the leases and the root sees O(cass_fanout)
  /// writes, not O(machines). cass_fanout >= machines is the one-level
  /// tree: every startd beats straight at the root's lease monitor. The
  /// tree is (re)built only when machines are ADDED, carrying lease
  /// deadlines and health rate windows; startd kills and revives are
  /// observed through leases, never through topology edits. Values below
  /// 2 are raised to 2 (with a warning).
  int cass_fanout = 8;
  /// Optional store the CASS root writes beats, summaries and health
  /// verdicts into (context "cass"); not owned, may be null (stats still
  /// count the writes).
  attr::AttributeStore* cass_store = nullptr;

  // --- black-box flight recorder + health engine (PR 9) ---

  /// Directory capsules are dumped into when a death is detected (master
  /// restart, lease expiry) or an operator pokes
  /// tdp.control.blackbox.<role>.<host> in cass_store (context "cass").
  /// Set = every pool-side daemon (schedd, master, each startd and
  /// starter, the pool itself, the CASS tree) records into its own
  /// flight recorder ring. Empty (the default) = nothing records: every
  /// daemon holds the shared flightrec::Recorder::disabled().
  std::string capsule_dir;
  /// Declarative RED-style rules (util/health.hpp grammar) evaluated per
  /// machine by publish_health() and folded through the CASS tree.
  std::vector<std::string> health_rules;

  // --- multi-tenant front door (PR 10) ---

  /// Declarative tenant/quota/brownout rules (condor/frontdoor.hpp
  /// grammar). Non-empty = the pool builds a FrontDoor on its clock and
  /// attaches it to the schedd: try_submit() is rate-limited and
  /// quota-checked per tenant, negotiation dispatches weighted
  /// round-robin from per-tenant queues, and publish_health() drives
  /// brownout shedding. Empty (the default) keeps the seed pipeline:
  /// no admission, full-queue id-order negotiation.
  std::vector<std::string> frontdoor_rules;

  /// Idle jobs offered to the matchmaker per negotiation cycle when the
  /// front door is on (the WRR dispatch slice). 0 = automatic:
  /// max(64, 4 * machines). Ignored without frontdoor_rules.
  std::size_t dispatch_slice = 0;
};

class Pool {
 public:
  explicit Pool(PoolConfig config);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Adds an execution machine with the given advertisement.
  Startd& add_machine(const std::string& name, classads::ClassAd ad);

  /// Builds a generic Linux machine ad (helpers for tests/benches).
  static classads::ClassAd default_machine_ad(const std::string& name,
                                              int memory_mb = 1024);

  [[nodiscard]] Schedd& schedd() noexcept { return schedd_; }
  [[nodiscard]] Matchmaker& matchmaker() noexcept { return matchmaker_; }
  [[nodiscard]] Master& master() noexcept { return master_; }
  [[nodiscard]] Startd* startd(const std::string& name);
  [[nodiscard]] std::shared_ptr<proc::ProcessBackend> backend(
      const std::string& machine);

  /// Submits one job (or a whole submit file) into the schedd. Bypasses
  /// front-door admission (the trusted operator path).
  JobId submit(const JobDescription& description);
  std::vector<JobId> submit(const SubmitFile& file);

  /// Admission-checked submit: with frontdoor_rules configured this may
  /// refuse with kBusy carrying a "retry_after_ms=<n>" hint in the status
  /// message (attr::retry_after_hint_ms parses it). Without a front door
  /// it behaves exactly like submit().
  Result<JobId> try_submit(const JobDescription& description);

  /// One negotiation cycle: match idle jobs, run the claiming protocol,
  /// spawn shadows and activate starters. Returns the number of jobs
  /// activated.
  int negotiate();

  /// One pump turn over every busy starter: services TDP events, collects
  /// completions, retires finished startds. Returns the number of jobs
  /// that reached a terminal state during this call.
  int pump();

  /// Convenience for real-backend runs: negotiate+pump until the job is
  /// terminal or `timeout_ms` passes. `idle_hook` (if set) runs every
  /// iteration — the virtual-cluster benches use it to step sim backends.
  Result<JobRecord> run_to_completion(JobId id, int timeout_ms,
                                      const std::function<void()>& idle_hook = {});

  [[nodiscard]] std::size_t machine_count() const { return startds_.size(); }
  [[nodiscard]] std::size_t busy_count() const;

  /// Simulates a machine crash: any job running there is checkpointed (if
  /// the backend supports it), its processes are killed, and the job is
  /// returned to the idle queue to be rescheduled elsewhere — Condor's
  /// checkpoint/migrate behaviour. The machine is withdrawn from
  /// matchmaking until recover_machine().
  Status fail_machine(const std::string& name);

  /// Brings a failed machine back: re-advertises it to the matchmaker.
  Status recover_machine(const std::string& name);

  // --- daemon-death survival (PR 5) ---

  /// Simulates the startd daemon being killed (kill -9): the startd object
  /// and everything it supervised (starter, application processes) vanish
  /// with no checkpoint and no protocol goodbye. Only the claim journal
  /// survives. Its heartbeats stop, so the lease expires; the master's
  /// probe sees the death and revives the machine per the restart policy.
  Status kill_startd(const std::string& name);

  /// Simulates the schedd being killed: running starters lose their shadows
  /// (retired first - they hold Shadow* sinks into the schedd), then the
  /// queue vanishes from memory. Recovery is the master's job, from the
  /// configured journal.
  void kill_schedd();

  /// Jobs requeued through the orphan paths (lease expiry or claim-journal
  /// replay) so far.
  [[nodiscard]] std::uint64_t orphan_requeues() const noexcept {
    return orphan_requeues_;
  }

  // --- hierarchical CASS (PR 7) ---

  /// The live aggregation tree: null until the first pump() with
  /// enable_liveness or publish_health() with health_rules builds it over
  /// the machines added so far. Tests use it to pick interior victims.
  [[nodiscard]] const mrnet::HierarchicalCass* cass() const {
    return cass_.get();
  }

  /// Kills an interior comm node of the aggregation tree: beats from its
  /// subtree are lost until its own summary lease expires at its parent
  /// and the children re-parent. Leaf and root ids are rejected.
  Status kill_cass_node(int node);

  /// Liveness writes the root attrspace absorbed: interior summaries plus
  /// the beats of startds whose leaf hangs straight off the root.
  [[nodiscard]] std::uint64_t root_liveness_writes() const noexcept {
    return cass_ ? cass_->root_liveness_writes() : 0;
  }

  // --- black-box flight recorder + health engine (PR 9) ---

  /// The flight recorder for a pool-side daemon, created on first use.
  /// Owned here, like claim journals: the ring outlives kill_startd /
  /// kill_schedd so the death-detector can dump the victim's capsule.
  /// Without a capsule_dir: the shared disabled recorder, never null.
  std::shared_ptr<flightrec::Recorder> recorder(const std::string& role,
                                                const std::string& host);

  /// Path dump_capsule writes the given daemon's capsule to
  /// (capsule_dir/<role>.<host>.capsule).
  [[nodiscard]] std::string capsule_path(const std::string& role,
                                         const std::string& host) const;

  /// Dumps the named daemon's last-known ring as a capsule into
  /// capsule_dir. kInvalidState without a capsule_dir, kNotFound when no
  /// such recorder exists.
  Status dump_capsule(const std::string& role, const std::string& host,
                      const std::string& reason);

  /// Evaluates the configured health rules over every machine's rollup
  /// samples (dead machines included, at machine.alive=0) and publishes
  /// tdp.health.startd.<machine> verdicts plus the overall
  /// tdp.health.startd fold through the CASS tree; the fold drives the
  /// front door's brownout. Returns attributes written at the root.
  int publish_health();

  // --- multi-tenant front door (PR 10) ---

  /// The pool's front door (null without frontdoor_rules).
  [[nodiscard]] FrontDoor* front_door() noexcept { return front_door_.get(); }

  /// Publishes per-tenant front-door state (queue depth, verdict
  /// counters, shed flag) plus the overall brownout state into cass_store
  /// (context "cass") for tdptop. Returns attributes written; 0 without a
  /// front door.
  int publish_frontdoor();

 private:
  /// Answers a tdp.control.blackbox.<role>.<host> put with a dump.
  void on_control_poke(const std::string& attribute, const std::string& value);

  /// Rebuilds a dead startd from its remembered ad, replays its claim
  /// journal, requeues the orphan (exactly once) and re-advertises.
  bool revive_startd(const std::string& name);

  /// Exactly-once requeue guard shared by the lease-expiry and the
  /// claim-journal paths: only a non-terminal, non-idle job still matched
  /// to `machine` is requeued.
  void requeue_orphan(JobId job, const std::string& machine);

  /// Beats every live startd's lease into the tree and pumps it; expired
  /// leases surface through on_machine_lease_expired (withdraw + orphan
  /// requeue).
  void check_liveness();

  void start_beats(const std::string& name);

  PoolConfig config_;
  Schedd schedd_;
  Matchmaker matchmaker_;
  Master master_;
  std::map<std::string, std::unique_ptr<Startd>> startds_;
  std::map<std::string, std::shared_ptr<proc::ProcessBackend>> backends_;

  /// Survival state (PR 5): remembered ads for revival, claim journals,
  /// per-machine heartbeats, and the set of machines currently dead (probe
  /// input for the master).
  std::map<std::string, classads::ClassAd> machine_ads_;
  std::map<std::string, journal::Journal*> startd_journals_;
  std::map<std::string, std::unique_ptr<lease::HeartbeatPublisher>> startd_beats_;
  std::set<std::string> dead_startds_;
  std::uint64_t orphan_requeues_ = 0;

  /// Hierarchical CASS state (PR 7): the tree is rebuilt only when the
  /// machine set GROWS (machine_ads_ never shrinks), so lease recovery
  /// logic — not topology edits — handles every death. A rebuild carries
  /// each machine's lease state over from the old tree (in-flight beat
  /// times preserved; already-detected deaths stay untracked so they do
  /// not expire twice).
  void ensure_cass();
  void on_machine_lease_expired(const std::string& machine);
  std::unique_ptr<mrnet::HierarchicalCass> cass_;
  std::size_t cass_hosts_ = 0;

  /// PR 9 state: recorders keyed "<role>.<host>" (the pool is the
  /// supervisor-side owner, so rings survive daemon kills) and the
  /// operator-poke subscription id on cass_store.
  std::map<std::string, std::shared_ptr<flightrec::Recorder>> recorders_;
  std::uint64_t control_subscription_ = 0;

  /// PR 10: the admission layer, owned here and attached to the schedd
  /// (which treats it as a strict leaf under its own mutex).
  std::unique_ptr<FrontDoor> front_door_;
};

}  // namespace tdp::condor
