#include "condor/pool.hpp"

#include <limits>
#include <optional>

#include "util/fd.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"

namespace tdp::condor {

namespace {
const log::Logger kLog("pool");

/// Upper bound on run_to_completion's wait between turns.
constexpr int kPumpTickMs = 2;

std::string expand_pattern(const std::string& pattern, const std::string& machine,
                           JobId job) {
  std::map<std::string, std::string> vars{{"m", machine},
                                          {"j", std::to_string(job)}};
  return str::expand_placeholders(pattern, vars);
}
}  // namespace

Pool::Pool(PoolConfig config) : config_(std::move(config)) {
  if (config_.cass_fanout < 2) {
    // The overlay needs a fanout of at least 2; a smaller value must not
    // leave the pool without its liveness tree.
    kLog.warn("cass_fanout ", config_.cass_fanout, " is below 2; using 2");
    config_.cass_fanout = 2;
  }
  master_.set_policy(config_.restart_policy);
  master_.set_clock(config_.clock);
  schedd_.set_recorder(recorder("schedd", "central"));
  master_.set_recorder(recorder("master", "central"));
  recorder("pool", "central")->state("start", "");
  if (config_.cass_store != nullptr && !config_.capsule_dir.empty()) {
    // The operator's capsule trigger: a put on
    // tdp.control.blackbox.<role>.<host> (context "cass") answers with a
    // dump. The callback fires outside the store's shard locks.
    control_subscription_ = config_.cass_store->subscribe(
        "cass", std::string(flightrec::kControlPrefix) + "*",
        [this](const std::string& /*context*/, const std::string& attribute,
               const std::string& value) { on_control_poke(attribute, value); });
  }
  if (config_.schedd_journal != nullptr) {
    schedd_.set_journal(config_.schedd_journal);
    // The master supervises the submit-side daemon too: a crashed schedd
    // is restarted cold and rebuilds its queue from the journal. Detecting
    // the death is also the dump trigger for the dead daemon's black box:
    // the pool still holds the ring the crashed object recorded into.
    master_.supervise(
        "schedd", [this] { return !schedd_.crashed(); },
        [this] {
          (void)dump_capsule("schedd", "central", "crash-detected");
          return schedd_.recover().is_ok();
        });
  }
  if (!config_.frontdoor_rules.empty()) {
    auto parsed = parse_frontdoor_config(config_.frontdoor_rules);
    if (parsed.is_ok()) {
      front_door_ =
          std::make_unique<FrontDoor>(std::move(parsed.value()), config_.clock);
      schedd_.set_front_door(front_door_.get());
    } else {
      // A bad admission config must not take the pool down with it: run
      // wide open (the seed behaviour) and say so.
      kLog.warn("frontdoor rules rejected, admission disabled: ",
                parsed.status().to_string());
    }
  }
}

Pool::~Pool() {
  if (control_subscription_ != 0 && config_.cass_store != nullptr) {
    config_.cass_store->unsubscribe(control_subscription_);
  }
  for (auto& [name, startd] : startds_) startd->retire();
}

Startd& Pool::add_machine(const std::string& name, classads::ClassAd ad) {
  machine_ads_[name] = ad;  // remembered so a dead startd can be rebuilt
  auto startd = std::make_unique<Startd>(name, std::move(ad));
  Startd* raw = startd.get();
  if (config_.startd_journal_factory) {
    journal::Journal* claim_journal = config_.startd_journal_factory(name);
    if (claim_journal != nullptr) {
      startd_journals_[name] = claim_journal;
      raw->set_journal(claim_journal);
    }
  }
  auto rec = recorder("startd", name);
  raw->set_recorder(rec);
  rec->state("start", "");
  startds_[name] = std::move(startd);
  matchmaker_.advertise_machine(name, raw->ad());
  if (config_.backend_factory) {
    backends_[name] = config_.backend_factory(name);
  }
  if (config_.enable_liveness) start_beats(name);
  // The master watches the startd role for this machine. The probe and
  // the restart action capture only the machine name: the Startd object a
  // kill destroys must not be reachable from supervision state.
  master_.supervise(
      "startd@" + name,
      [this, name] { return dead_startds_.find(name) == dead_startds_.end(); },
      [this, name] { return revive_startd(name); });
  return *raw;
}

classads::ClassAd Pool::default_machine_ad(const std::string& name, int memory_mb) {
  classads::ClassAd ad;
  ad.insert_string(classads::ads::kMyType, "Machine");
  ad.insert_string(classads::ads::kName, name);
  ad.insert_string(classads::ads::kOpSys, "LINUX");
  ad.insert_string(classads::ads::kArch, "INTEL");
  ad.insert_int(classads::ads::kMemory, memory_mb);
  ad.insert_real(classads::ads::kLoadAvg, 0.05);
  ad.insert_string(classads::ads::kState, "Unclaimed");
  return ad;
}

Startd* Pool::startd(const std::string& name) {
  auto it = startds_.find(name);
  return it == startds_.end() ? nullptr : it->second.get();
}

std::shared_ptr<proc::ProcessBackend> Pool::backend(const std::string& machine) {
  auto it = backends_.find(machine);
  return it == backends_.end() ? nullptr : it->second;
}

JobId Pool::submit(const JobDescription& description) {
  return schedd_.submit(description);
}

std::vector<JobId> Pool::submit(const SubmitFile& file) { return schedd_.submit(file); }

Result<JobId> Pool::try_submit(const JobDescription& description) {
  return schedd_.try_submit(description);
}

int Pool::negotiate() {
  // Match-cycle latency: one sample per negotiation cycle (pump cadence,
  // not per-message, so always-on sampling is cheap).
  static telemetry::Histogram& match_cycle_us =
      telemetry::Registry::instance().histogram("schedd.match_cycle_us");
  static telemetry::Counter& matches_counter =
      telemetry::Registry::instance().counter("schedd.matches");
  const Micros cycle_start = telemetry::Tracer::instance().now();

  // Busy set: machines currently claimed or running.
  std::set<std::string> busy;
  for (const auto& [name, startd] : startds_) {
    if (startd->state() != Startd::State::kUnclaimed) busy.insert(name);
  }

  // Dispatch order comes from the schedd: the whole idle queue in id
  // order without a front door (the seed behaviour), a bounded weighted
  // round-robin slice over the per-tenant queues with one.
  std::size_t slice = std::numeric_limits<std::size_t>::max();
  if (front_door_) {
    slice = config_.dispatch_slice != 0
                ? config_.dispatch_slice
                : std::max<std::size_t>(64, startds_.size() * 4);
  }
  auto matches = matchmaker_.negotiate(schedd_.dispatch_ads(slice), busy);
  int activated = 0;
  for (const Matchmaker::Match& match : matches) {
    Startd* startd = this->startd(match.machine);
    if (startd == nullptr) continue;
    auto record = schedd_.job(match.job);
    if (!record.is_ok()) continue;

    // Join the job's causal tree (rooted at schedd.submit) for the whole
    // claim+activate leg; Starter::launch nests under this span.
    const telemetry::SpanContext job_parent =
        telemetry::parse_context(record->trace);
    std::optional<telemetry::Span> claim_span;
    if (job_parent.valid()) {
      claim_span.emplace("startd.claim", "startd", job_parent);
    }

    // Claiming protocol (Figure 4): schedd contacts the startd; either
    // party may back out.
    classads::ClassAd job_ad = record->description.to_classad();
    if (!startd->request_claim(match.job, job_ad)) {
      // The refusal reveals the matchmaker's ad was stale; refresh it so
      // the next cycle negotiates against the machine's live state.
      matchmaker_.advertise_machine(match.machine, startd->ad());
      continue;  // job stays idle; next cycle retries
    }
    if (!schedd_.set_matched(match.job, match.machine).is_ok()) {
      startd->release_claim();
      continue;
    }
    schedd_.update_job(match.job, JobStatus::kClaimed, -1, "");

    // Activation: the schedd's shadow serves the request; the startd
    // spawns the starter.
    Shadow* shadow = schedd_.spawn_shadow(match.job, config_.submit_dir);
    StarterConfig starter_config;
    starter_config.submit_dir = config_.submit_dir;
    starter_config.scratch_base = config_.scratch_base;
    starter_config.transport = config_.transport;
    starter_config.backend = backends_[match.machine];
    starter_config.tool_launcher = config_.tool_launcher;
    starter_config.use_real_files = config_.use_real_files;
    starter_config.frontend_host = config_.frontend_host;
    starter_config.frontend_port = config_.frontend_port;
    starter_config.frontend_port2 = config_.frontend_port2;
    starter_config.proxy_address = config_.proxy_address;
    starter_config.cass_address = config_.cass_address;
    starter_config.tool_wait_timeout_ms = config_.tool_wait_timeout_ms;
    starter_config.live_stdio = config_.live_stdio;
    starter_config.retry = config_.retry;
    starter_config.tool_lease_enabled = config_.tool_lease_enabled;
    starter_config.tool_lease = config_.tool_lease;
    starter_config.tool_restart_budget = config_.tool_restart_budget;
    starter_config.lease_clock = config_.clock;
    starter_config.recorder = recorder("starter", match.machine);
    starter_config.capsule_dir = config_.capsule_dir;
    if (config_.tool_lease_enabled) {
      // The tool daemon's ring: launchers that run the tool in-process
      // (chaos tests) share this same ring via Pool::recorder, so the
      // starter can dump the victim's capsule on lease expiry.
      starter_config.tool_recorder = recorder("paradynd", match.machine);
    }
    if (!config_.lass_listen_pattern.empty()) {
      starter_config.lass_listen_address =
          expand_pattern(config_.lass_listen_pattern, match.machine, match.job);
    }

    JobRecord job_record = std::move(record).value();
    job_record.status = JobStatus::kClaimed;
    job_record.matched_machine = match.machine;
    auto starter = startd->activate(std::move(job_record), std::move(starter_config),
                                    shadow);
    if (!starter.is_ok()) {
      kLog.warn("activation of job ", match.job, " on ", match.machine,
                " failed: ", starter.status().to_string());
      schedd_.update_job(match.job, JobStatus::kFailed, -1,
                         starter.status().to_string());
      startd->release_claim();
      continue;
    }
    ++activated;
  }
  if (activated > 0) matches_counter.add(static_cast<std::uint64_t>(activated));
  match_cycle_us.record(static_cast<std::uint64_t>(std::max<Micros>(
      0, telemetry::Tracer::instance().now() - cycle_start)));
  return activated;
}

int Pool::pump() {
  master_.tick();  // probes every supervised daemon; restarts the dead
  if (config_.enable_liveness) check_liveness();
  int completed = 0;
  for (auto& [name, startd] : startds_) {
    Starter* starter = startd->starter();
    if (starter == nullptr) continue;
    if (starter->pump()) {
      ++completed;
      startd->retire();
      matchmaker_.advertise_machine(name, startd->ad());  // machine free again
    }
  }
  return completed;
}

Status Pool::fail_machine(const std::string& name) {
  Startd* startd = this->startd(name);
  if (startd == nullptr) {
    return make_error(ErrorCode::kNotFound, "no such machine: " + name);
  }
  matchmaker_.withdraw_machine(name);

  Starter* starter = startd->starter();
  if (starter != nullptr && !starter->done()) {
    const JobId job = starter->job().id;
    // Try to save the application's progress before the "crash" takes
    // everything down. Multi-rank jobs restart from scratch (coordinated
    // MPI checkpointing is beyond both this system and the paper).
    std::string checkpoint;
    auto backend = backends_.find(name);
    if (backend != backends_.end() &&
        starter->job().description.machine_count == 1) {
      auto saved = backend->second->checkpoint(starter->app_pid());
      if (saved.is_ok()) checkpoint = saved.value();
    }
    startd->retire();  // kills the starter's processes, stops its LASS
    Status requeued = schedd_.requeue_job(job, checkpoint);
    if (!requeued.is_ok()) {
      kLog.warn("failed to requeue job ", job, ": ", requeued.to_string());
    }
    kLog.info("machine ", name, " failed; job ", job,
              checkpoint.empty() ? " requeued from scratch"
                                 : " requeued from checkpoint");
  } else {
    startd->retire();
    kLog.info("machine ", name, " failed (idle)");
  }
  return Status::ok();
}

Status Pool::recover_machine(const std::string& name) {
  Startd* startd = this->startd(name);
  if (startd == nullptr) {
    return make_error(ErrorCode::kNotFound, "no such machine: " + name);
  }
  matchmaker_.advertise_machine(name, startd->ad());
  return Status::ok();
}

Status Pool::kill_startd(const std::string& name) {
  auto it = startds_.find(name);
  if (it == startds_.end()) {
    return make_error(ErrorCode::kNotFound, "no such machine: " + name);
  }
  kLog.warn("startd@", name, " killed: no checkpoint, no goodbye");
  recorder("pool", "central")->state("kill", "startd@" + name);
  matchmaker_.withdraw_machine(name);
  startd_beats_.erase(name);   // heartbeats stop; the lease will expire
  dead_startds_.insert(name);  // the master's probe now sees the death
  // Deliberately not retire(): a killed daemon does not get to checkpoint
  // or requeue anything. Destroying the Startd kills the starter's process
  // tree (the kernel reaping a dead daemon's children) without a status
  // report, and only the claim journal survives.
  startds_.erase(it);
  return Status::ok();
}

void Pool::kill_schedd() {
  kLog.warn("schedd killed: its shadows die with it");
  recorder("pool", "central")->state("kill", "schedd");
  // Starters report into Shadow* sinks the schedd owns. In real Condor a
  // starter whose shadow vanishes kills its job; model that by retiring
  // busy machines first so no starter is left holding a dangling sink.
  for (auto& [name, startd] : startds_) {
    if (startd->state() == Startd::State::kBusy) {
      startd->retire();
      matchmaker_.advertise_machine(name, startd->ad());
    } else if (startd->state() == Startd::State::kClaimed) {
      startd->release_claim();
    }
  }
  schedd_.crash();
}

bool Pool::revive_startd(const std::string& name) {
  auto ad_it = machine_ads_.find(name);
  if (ad_it == machine_ads_.end()) return false;
  // The master noticing the death is a dump trigger: capture the dead
  // incarnation's last-known ring before the new one records over it.
  (void)dump_capsule("startd", name, "death-detected");
  auto startd = std::make_unique<Startd>(name, ad_it->second);
  Startd* raw = startd.get();
  // The revived daemon shares the killed one's ring (like its claim
  // journal): one machine, one black box, across incarnations.
  raw->set_recorder(recorder("startd", name));
  std::optional<JobId> orphan;
  auto journal_it = startd_journals_.find(name);
  if (journal_it != startd_journals_.end()) {
    raw->set_journal(journal_it->second);
    auto replayed = raw->recover();
    if (replayed.is_ok()) {
      orphan = replayed.value();
    } else {
      kLog.warn("startd@", name,
                " claim-journal replay failed: ", replayed.status().to_string());
    }
  }
  startds_[name] = std::move(startd);
  dead_startds_.erase(name);
  if (orphan.has_value()) requeue_orphan(*orphan, name);
  matchmaker_.advertise_machine(name, raw->ad());
  if (config_.enable_liveness) start_beats(name);
  recorder("pool", "central")->state("revive", "startd@" + name);
  kLog.info("startd@", name, " revived from claim journal");
  return true;
}

void Pool::requeue_orphan(JobId job, const std::string& machine) {
  static telemetry::Counter& requeues_counter =
      telemetry::Registry::instance().counter("pool.orphan_requeues");
  // Exactly-once guard, shared by the claim-journal and lease-expiry
  // paths: only a job that is still in flight *on this machine* is
  // requeued. The first path through clears matched_machine, so the
  // second (and any later duplicate expiry) is a no-op.
  auto record = schedd_.job(job);
  if (!record.is_ok()) return;  // unknown, or the schedd itself is down
  if (job_status_terminal(record->status) || record->status == JobStatus::kIdle) {
    return;
  }
  if (record->matched_machine != machine) return;
  Status requeued = schedd_.requeue_job(job, "");
  if (!requeued.is_ok()) {
    kLog.warn("orphan requeue of job ", job, " failed: ", requeued.to_string());
    return;
  }
  ++orphan_requeues_;
  requeues_counter.inc();
  kLog.warn("job ", job, " orphaned by dead startd@", machine, "; requeued");
}

void Pool::start_beats(const std::string& name) {
  // Each beat also lands in the startd's own black box: after a kill, the
  // victim's capsule ends with its last beat, which the merged timeline
  // orders against the pool's lease-expiry event.
  std::shared_ptr<flightrec::Recorder> rec = recorder("startd", name);
  auto beat = std::make_unique<lease::HeartbeatPublisher>(
      lease::liveness_attr("startd", name), config_.startd_lease, config_.clock,
      [this, name, rec](const std::string& attribute, const std::string& value) {
        rec->lease("beat", value);
        // The beat enters the overlay at this machine's leaf. Before the
        // first pump builds the tree there is nobody to hear it, and none
        // is needed: build() seeds every member's lease fresh.
        if (cass_) cass_->observe_host(name, value, attribute);
        return Status::ok();
      });
  beat->beat_now();
  startd_beats_[name] = std::move(beat);
}

void Pool::on_machine_lease_expired(const std::string& machine) {
  kLog.warn("liveness lease expired for startd@", machine);
  // The detector's own record of the death, then the victim's black box:
  // the lease monitor is the peer that still holds the dead daemon's
  // last-known ring, so lease expiry is a capsule trigger.
  recorder("pool", "central")->lease("expired", "startd@" + machine);
  (void)dump_capsule("startd", machine, "lease-expired");
  matchmaker_.withdraw_machine(machine);
  for (JobId job : schedd_.jobs_on_machine(machine)) {
    requeue_orphan(job, machine);
  }
}

void Pool::ensure_cass() {
  if (machine_ads_.empty() || machine_ads_.size() == cass_hosts_) return;
  // Rebuild only on pool growth. The rebuild is safe mid-flight because
  // every machine's lease state is carried over from the old tree below,
  // so the topology change can neither falsely expire a machine nor reset
  // an in-flight detection deadline.
  std::vector<std::string> hosts;
  hosts.reserve(machine_ads_.size());
  for (const auto& [name, ad] : machine_ads_) hosts.push_back(name);
  mrnet::HierarchyConfig hierarchy;
  hierarchy.fanout = config_.cass_fanout;
  hierarchy.lease = config_.startd_lease;
  hierarchy.clock = config_.clock;
  auto built = mrnet::HierarchicalCass::build(hosts, hierarchy);
  if (!built.is_ok()) {
    kLog.warn("hierarchical CASS build failed: ", built.status().to_string());
    return;
  }
  std::unique_ptr<mrnet::HierarchicalCass> previous = std::move(cass_);
  cass_ = std::move(built.value());
  cass_hosts_ = machine_ads_.size();
  // build() seeded every member fresh-from-now; correct that against the
  // old tree. A machine whose lease was in flight keeps its last-beat time
  // (a machine that went silent just before this growth is still detected
  // on its original deadline, not ttl+grace later). A machine whose death
  // was already detected (untracked in the old tree, in dead_startds_)
  // stays untracked, so it cannot fire a second expiry — its next beat
  // after revival re-arms tracking. Machines new in this rebuild, and live
  // machines transiently untracked mid re-parent, keep the fresh seed.
  if (previous) {
    for (const std::string& name : hosts) {
      if (!previous->member(name)) continue;
      const Micros beat = previous->host_last_beat(name);
      if (beat >= 0) {
        cass_->carry_host_beat(name, beat);
      } else if (dead_startds_.count(name) != 0) {
        cass_->carry_host_beat(name, -1);
      }
    }
  }
  cass_->on_host_expired(
      [this](const std::string& machine) { on_machine_lease_expired(machine); });
  if (config_.cass_store != nullptr) {
    cass_->set_root_write(
        [this](const std::string& attribute, const std::string& value) {
          (void)config_.cass_store->put("cass", attribute, value);
        });
  }
  cass_->set_recorder(recorder("cass", "tree"));
  if (!config_.health_rules.empty()) {
    Status rules = cass_->set_health_rules(config_.health_rules);
    if (!rules.is_ok()) {
      kLog.warn("health rules rejected: ", rules.to_string());
    }
    // Same rules as the old tree: its engines keep their rate windows, so
    // a requeue burst is still seen as a rate across the growth.
    if (previous) cass_->carry_health_from(*previous);
  }
  kLog.info("CASS tree over ", cass_hosts_, " machines (fanout ",
            config_.cass_fanout, ", depth ", cass_->overlay().depth(), ")");
}

void Pool::check_liveness() {
  ensure_cass();
  // A live startd's beat is refreshed before the poll, so only a daemon
  // whose publisher is gone (killed) can ever be seen expired here.
  for (auto& [name, beat] : startd_beats_) beat->maybe_beat();
  // Expiries at any level surface through on_host_expired.
  if (cass_) cass_->pump();
}

Status Pool::kill_cass_node(int node) {
  if (!cass_) {
    return make_error(ErrorCode::kInvalidState, "CASS tree not built");
  }
  return cass_->kill_interior(node);
}

// ---------------------------------------------------------------------
// Black-box flight recorder + health engine (PR 9)
// ---------------------------------------------------------------------

std::shared_ptr<flightrec::Recorder> Pool::recorder(const std::string& role,
                                                    const std::string& host) {
  if (config_.capsule_dir.empty()) return flightrec::Recorder::disabled();
  std::shared_ptr<flightrec::Recorder>& slot = recorders_[role + "." + host];
  if (!slot) {
    flightrec::Config rec;
    rec.role = role;
    rec.host = host;
    rec.clock = config_.clock;
    slot = std::make_shared<flightrec::Recorder>(std::move(rec));
  }
  return slot;
}

std::string Pool::capsule_path(const std::string& role,
                               const std::string& host) const {
  return config_.capsule_dir + "/" + role + "." + host + ".capsule";
}

Status Pool::dump_capsule(const std::string& role, const std::string& host,
                          const std::string& reason) {
  if (config_.capsule_dir.empty()) {
    return make_error(ErrorCode::kInvalidState, "pool has no capsule_dir");
  }
  auto it = recorders_.find(role + "." + host);
  if (it == recorders_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "no flight recorder for " + role + "." + host);
  }
  return it->second->dump(capsule_path(role, host), reason);
}

void Pool::on_control_poke(const std::string& attribute,
                           const std::string& value) {
  // tdp.control.blackbox.<role>.<host>; the role never contains a dot,
  // the host may (first dot splits).
  std::string target = attribute.substr(flightrec::kControlPrefix.size());
  const std::size_t dot = target.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= target.size()) {
    kLog.warn("malformed blackbox poke: ", attribute);
    return;
  }
  const std::string role = target.substr(0, dot);
  const std::string host = target.substr(dot + 1);
  const std::string reason = value.empty() ? "operator" : value;
  recorder("pool", "central")
      ->record(flightrec::EventKind::kControl, "poke",
               role + "." + host + " reason=" + reason);
  Status dumped = dump_capsule(role, host, reason);
  if (!dumped.is_ok()) {
    kLog.warn("blackbox poke for ", role, ".", host,
              " failed: ", dumped.to_string());
  }
}

int Pool::publish_health() {
  if (config_.health_rules.empty()) return 0;
  ensure_cass();
  if (!cass_) return 0;
  // One sample set per machine ever added. Dead machines are included at
  // machine.alive=0: absence is exactly the signal a below-threshold rule
  // exists to catch.
  std::map<std::string, std::vector<telemetry::Sample>> per_host;
  for (const auto& [name, ad] : machine_ads_) {
    const auto it = startds_.find(name);
    const bool alive = dead_startds_.count(name) == 0 && it != startds_.end();
    std::vector<telemetry::Sample>& samples = per_host[name];
    telemetry::Sample sample;
    sample.kind = telemetry::Sample::Kind::kGauge;
    sample.name = "machine.alive";
    sample.value = alive ? 1 : 0;
    samples.push_back(sample);
    sample.name = "machine.busy";
    sample.value =
        alive && it->second->state() == Startd::State::kBusy ? 1 : 0;
    samples.push_back(sample);
    sample.name = "pool.orphan_requeues";
    sample.kind = telemetry::Sample::Kind::kCounter;
    sample.value = static_cast<std::int64_t>(orphan_requeues_);
    samples.push_back(sample);
  }
  const int written = cass_->rollup_health(per_host, "startd");
  // The tree's verdict drives brownout: warn/critical sheds, a sustained
  // ok streak recovers (hysteresis lives in the front door).
  schedd_.on_health(cass_->last_health_fold());
  return written;
}

int Pool::publish_frontdoor() {
  if (!front_door_) return 0;
  int written = 0;
  auto put = [&](const std::string& attribute, const std::string& value) {
    ++written;
    if (config_.cass_store != nullptr) {
      (void)config_.cass_store->put("cass", attribute, value);
    }
  };
  put("tdp.frontdoor.state", brownout_state_name(front_door_->state()));
  for (const std::string& tenant : front_door_->seen_tenants()) {
    const TenantCounters counters = front_door_->counters(tenant);
    // One flat line per tenant; tdptop splits on spaces.
    put("tdp.frontdoor.tenant." + tenant,
        "depth=" + std::to_string(schedd_.tenant_idle(tenant)) +
            " active=" + std::to_string(schedd_.tenant_active(tenant)) +
            " admitted=" + std::to_string(counters.admitted) +
            " best_effort=" + std::to_string(counters.best_effort) +
            " busy=" + std::to_string(counters.busy) +
            " shed=" + std::to_string(counters.shed) +
            " shedding=" + (front_door_->is_shed(tenant) ? "1" : "0"));
  }
  return written;
}

std::size_t Pool::busy_count() const {
  std::size_t count = 0;
  for (const auto& [name, startd] : startds_) {
    if (startd->state() == Startd::State::kBusy) ++count;
  }
  return count;
}

Result<JobRecord> Pool::run_to_completion(JobId id, int timeout_ms,
                                          const std::function<void()>& idle_hook) {
  // Wall-clock on purpose (not config_.clock): this is a real-time budget
  // for driving real backends, independent of any virtual clock the pool's
  // leases run on.
  const Clock& wall = RealClock::instance();
  const Micros deadline =
      wall.now_micros() + static_cast<Micros>(timeout_ms) * 1000;
  while (true) {
    auto record = schedd_.job(id);
    if (!record.is_ok()) return record.status();
    if (job_status_terminal(record->status)) return record;

    negotiate();
    pump();
    if (idle_hook) idle_hook();

    if (wall.now_micros() >= deadline) {
      return make_error(ErrorCode::kTimeout,
                        "job " + std::to_string(id) + " still " +
                            job_status_name(record->status) + " after " +
                            std::to_string(timeout_ms) + "ms");
    }
    if (!idle_hook) {
      // Block until some starter's RM has work (a child exited, a tool sent
      // a control request, ...), for at most the tick that keeps master
      // probes, leases, the tool-wait timeout and telemetry publishing at
      // their resolution.
      std::vector<int> fds;
      for (auto& [name, startd] : startds_) {
        const Starter* starter = startd->starter();
        if (starter != nullptr) fds.push_back(starter->event_fd());
      }
      wait_readable(fds, kPumpTickMs);
    }
  }
}

}  // namespace tdp::condor
