#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <utility>

#include "cache/persist.h"
#include "core/fingerprint.h"
#include "util/build_info.h"

namespace relcomp {

namespace {

/// Set while a pool thread is executing jobs. Re-entrant submissions — a
/// completion callback calling back into Decide/SubmitBatch/SubmitAsync —
/// then execute inline instead of enqueueing: a worker blocking on work
/// that only workers can drain would deadlock the pool.
thread_local bool tls_on_worker_thread = false;

/// Which worker-pool thread this is (trace-export track id);
/// Trace::kInlineTrack on submitter threads.
thread_local int tls_worker_index = obs::Trace::kInlineTrack;

void AppendNote(Decision* decision, const char* note) {
  if (decision->note.empty()) {
    decision->note = note;
  } else {
    decision->note += "; ";
    decision->note += note;
  }
}

Decision CancelledDecision() {
  Decision decision;
  decision.status =
      Status::Cancelled("request cancelled before evaluation started");
  return decision;
}

Decision ExpiredDecision() {
  Decision decision;
  decision.status = Status::DeadlineExceeded(
      "best-effort deadline passed while queued; request shed before "
      "evaluation");
  return decision;
}

Decision RejectedDecision() {
  Decision decision;
  decision.status = Status::Unavailable(
      "admission control rejected the request (tenant queue quota or rate "
      "limit exceeded)");
  return decision;
}

/// Whether a decision was shed by the scheduler or aborted mid-run rather
/// than answered — the members sharing it mirror its fate in the counters
/// instead of counting as cache hits.
bool IsShedStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

/// Whether an evaluation that RAN was aborted mid-run by a cooperative
/// checkpoint (deadline or joint cancellation).
bool IsAbortStatus(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Whether a decision is a definitive verdict that may live in the shard
/// LRU. Resource-dependent failures — mid-run aborts, admission rejections,
/// and a decider's own step-budget exhaustion — must never be replayed
/// from the cache as if they were answers.
bool IsCacheableDecision(const Decision& decision) {
  return !IsShedStatus(decision.status) &&
         decision.status.code() != StatusCode::kResourceExhausted;
}

/// Files one request under the partition bucket matching a shed or abort
/// status (kCancelled → cancelled, kDeadlineExceeded → expired,
/// kUnavailable → rejected). The ONE place that owns the mapping, so the
/// requests == hits+misses+rejected+expired+cancelled invariant cannot
/// drift between sites. Requires the shard mutex.
void CountShedLocked(EngineCounters& counters, const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      ++counters.cancelled;
      break;
    case StatusCode::kDeadlineExceeded:
      ++counters.expired;
      break;
    default:
      ++counters.rejected;
      break;
  }
}

/// Queue-wait accounting for one scheduled task: the shard counters plus
/// the tenant's queue-wait histogram (null = metrics off). Requires the
/// shard mutex.
void CountWaitLocked(EngineCounters& counters, std::chrono::microseconds wait,
                     obs::Histogram* histogram) {
  if (wait.count() < 0) return;  // never queued (refused by the queue)
  ++counters.waited;
  const uint64_t micros = static_cast<uint64_t>(wait.count());
  counters.wait_micros += micros;
  counters.max_wait_micros = std::max(counters.max_wait_micros, micros);
  if (histogram != nullptr) histogram->Record(micros);
}

/// The trace outcome tag of a finished decision: the verdict for served
/// answers, the status code for everything else.
std::string TraceOutcome(const Decision& decision) {
  if (decision.status.ok()) return decision.answer ? "YES" : "no";
  return StatusCodeName(decision.status.code());
}

}  // namespace

CompletenessService::CompletenessService(ServiceOptions options)
    : options_(options),
      cache_budget_(options.cache_budget_bytes > 0
                        ? std::make_unique<cache::CacheBudget>(
                              options.cache_budget_bytes)
                        : nullptr),
      queue_(options.policy, options.overload,
             sched::TenantOptions{/*weight=*/1, options.default_max_queue}) {
  tracer_.Configure(options_.trace_sample);
  slow_log_.Configure(options_.slow_log);
  trace_sink_.Configure(options_.trace_ring);
  if (options_.metrics) {
    windows_ = std::make_unique<Windows>();
    inflight_gauge_ = metrics_registry_.GetGauge(obs::kMetricInflightRequests);
    queue_.AttachMetrics(
        metrics_registry_.GetHistogram(obs::kMetricSchedTokenWaitMicros));
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<int>(i)); });
  }
  if (options_.recorder_interval_ms > 0 ||
      options_.watchdog_stall_micros > 0) {
    obs::InstallAbortReportHook();
    recorder_thread_ = JoinableThread([this] { RecorderLoop(); });
  }
}

CompletenessService::~CompletenessService() {
  // The observability endpoint's handler threads call back into this
  // service, so it stops before anything else is dismantled.
  StopObs();
  // The watchdog thread reads queue/window/registry state the rest of
  // this teardown dismantles, so it stops first.
  if (recorder_thread_.joinable()) {
    {
      MutexLock lock(recorder_wake_mu_);
      recorder_stop_ = true;
    }
    recorder_wake_cv_.NotifyAll();
    recorder_thread_.Join();
  }
  queue_.Shutdown();
  for (JoinableThread& worker : workers_) worker.Join();
}

void CompletenessService::WorkerLoop(int worker_index) {
  tls_on_worker_thread = true;
  tls_worker_index = worker_index;
  sched::Task task;
  sched::TaskOutcome outcome;
  while (queue_.Pop(&task, &outcome)) {
    task.fn(outcome, task.wait);
    task.fn = nullptr;  // drop captures before blocking in Pop again
  }
}

Result<SettingHandle> CompletenessService::RegisterSetting(
    PartiallyClosedSetting setting, const ShardOptions& shard_options) {
  const SettingKey key{FingerprintSetting(setting),
                       FingerprintSettingSeeded(setting,
                                                /*seed=*/0x5e771465eed2ULL)};
  {
    MutexLock lock(registry_mu_);
    auto it = handle_by_fingerprint_.find(key);
    if (it != handle_by_fingerprint_.end()) {
      ++shards_.at(it->second)->refcount;
      return SettingHandle{it->second};
    }
  }
  // Prepare outside the registry lock — validation, Adom seeding and master
  // projection can be heavy, and other settings keep registering meanwhile.
  // The dedup digest doubles as the prepared fingerprint: no re-scan.
  Result<PreparedSetting> prepared =
      PreparedSetting::Prepare(std::move(setting), key.primary);
  if (!prepared.ok()) return prepared.status();

  ShardOptions resolved = shard_options;
  if (resolved.cache_capacity == ShardOptions::kInherit) {
    resolved.cache_capacity = options_.cache_capacity;
  }
  if (resolved.max_queue == ShardOptions::kInherit) {
    resolved.max_queue = options_.default_max_queue;
  }
  if (resolved.weight == 0) resolved.weight = 1;

  cache::ShardCacheOptions cache_options;
  cache_options.max_entries = resolved.cache_capacity;
  auto shard_cache = std::make_shared<cache::ShardCache>(cache_options);
  if (cache_budget_ != nullptr && cache_options.max_entries > 0) {
    shard_cache->AttachBudget(cache_budget_.get(), shard_cache,
                              resolved.cache_floor_bytes);
  }

  MutexLock lock(registry_mu_);
  auto it = handle_by_fingerprint_.find(key);
  if (it != handle_by_fingerprint_.end()) {
    // Another thread registered the same setting while we prepared.
    ++shards_.at(it->second)->refcount;
    return SettingHandle{it->second};
  }
  // Warm start: replay any staged snapshot entries computed under this
  // exact setting fingerprint (coldest first, so recency survives the
  // round trip). A snapshot of different master data fingerprints
  // differently and simply never matches.
  if (cache_options.max_entries > 0) {
    auto warm = pending_warm_.find(key);
    if (warm != pending_warm_.end()) {
      for (auto& [entry_key, decision] : warm->second) {
        shard_cache->Restore(entry_key, std::move(decision));
      }
      pending_warm_.erase(warm);
    }
  }
  const uint64_t id = next_handle_id_++;
  auto shard = std::make_shared<Shard>(std::move(prepared).value(), key,
                                       resolved, std::move(shard_cache));
  shard->id = id;
  InitShardMetrics(*shard, id);
  shards_.emplace(id, std::move(shard));
  handle_by_fingerprint_.emplace(key, id);
  queue_.RegisterTenant(
      id, sched::TenantOptions{resolved.weight, resolved.max_queue});
  return SettingHandle{id};
}

Status CompletenessService::ReleaseSetting(SettingHandle handle) {
  MutexLock lock(registry_mu_);
  auto it = shards_.find(handle.id);
  if (it == shards_.end()) {
    return Status::NotFound("setting handle " + std::to_string(handle.id) +
                            " is not registered (or already fully released)");
  }
  if (--it->second->refcount == 0) {
    handle_by_fingerprint_.erase(it->second->setting_key);
    shards_.erase(it);  // in-flight requests hold their own shared_ptr
    queue_.ReleaseTenant(handle.id);
  }
  return Status::OK();
}

size_t CompletenessService::num_settings() const {
  MutexLock lock(registry_mu_);
  return shards_.size();
}

std::shared_ptr<CompletenessService::Shard> CompletenessService::FindShard(
    SettingHandle handle) const {
  MutexLock lock(registry_mu_);
  auto it = shards_.find(handle.id);
  return it == shards_.end() ? nullptr : it->second;
}

Decision CompletenessService::UnknownHandleDecision(SettingHandle handle) {
  Decision decision;
  decision.status =
      Status::NotFound("setting handle " + std::to_string(handle.id) +
                       " is not registered (or already fully released)");
  return decision;
}

void CompletenessService::InitShardMetrics(Shard& shard, uint64_t handle_id) {
  if (!options_.metrics) return;
  shard.recent_requests = std::make_unique<obs::WindowedCounter>();
  const obs::LabelSet tenant{{"tenant", std::to_string(handle_id)}};
  shard.metrics.e2e_latency =
      metrics_registry_.GetHistogram(obs::kMetricRequestLatencyMicros, tenant);
  shard.metrics.queue_wait =
      metrics_registry_.GetHistogram(obs::kMetricQueueWaitMicros, tenant);
  const std::vector<ProblemKind>& kinds = AllProblemKinds();
  shard.metrics.by_kind.assign(kinds.size(), nullptr);
  for (size_t i = 0; i < kinds.size(); ++i) {
    obs::LabelSet labels = tenant;
    labels.emplace_back("kind", ProblemKindName(kinds[i]));
    shard.metrics.by_kind[i] =
        metrics_registry_.GetCounter(obs::kMetricRequestsTotal, labels);
  }
  static constexpr const char* kPriorityNames[sched::kNumPriorities] = {
      "high", "normal", "low"};
  for (size_t i = 0; i < sched::kNumPriorities; ++i) {
    obs::LabelSet labels = tenant;
    labels.emplace_back("priority", kPriorityNames[i]);
    shard.metrics.by_priority[i] =
        metrics_registry_.GetCounter(obs::kMetricPriorityRequestsTotal, labels);
  }
  cache::CacheEventSink sink;
  sink.hits = metrics_registry_.GetCounter(obs::kMetricCacheHitsTotal, tenant);
  sink.misses =
      metrics_registry_.GetCounter(obs::kMetricCacheMissesTotal, tenant);
  sink.evictions =
      metrics_registry_.GetCounter(obs::kMetricCacheEvictionsTotal, tenant);
  sink.admission_rejects = metrics_registry_.GetCounter(
      obs::kMetricCacheAdmissionRejectsTotal, tenant);
  sink.resident_bytes =
      metrics_registry_.GetGauge(obs::kMetricCacheResidentBytes, tenant);
  sink.resident_entries =
      metrics_registry_.GetGauge(obs::kMetricCacheResidentEntries, tenant);
  shard.cache->AttachEvents(sink);
}

void CompletenessService::FinishRequest(
    Shard* shard, const std::shared_ptr<obs::Trace>& trace,
    sched::TimePoint submit, Decision* decision, const char* kind) {
  const sched::TimePoint now = sched::Clock::now();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(now - submit);
  const uint64_t micros =
      elapsed.count() > 0 ? static_cast<uint64_t>(elapsed.count()) : 0;
  decision->latency_micros = micros;
  if (shard != nullptr && inflight_gauge_ != nullptr) inflight_gauge_->Add(-1);
  if (shard != nullptr && shard->metrics.e2e_latency != nullptr) {
    shard->metrics.e2e_latency->Record(micros);
  }
  if (shard != nullptr && shard->recent_requests != nullptr) {
    shard->recent_requests->Record(1, now);
  }
  if (windows_ != nullptr) {
    windows_->requests.Record(1, now);
    windows_->latency.Record(micros, now);
  }
  if (trace != nullptr) {
    // The SAME instant closes the trace and stamps the latency: the span
    // durations sum to latency_micros exactly, not merely approximately.
    trace->Finish(TraceOutcome(*decision), now);
    obs::SlowEntry entry;
    entry.micros = micros;
    entry.trace_id = trace->id();
    if (shard != nullptr) entry.tenant = std::to_string(shard->id);
    if (kind != nullptr) entry.kind = kind;
    entry.trace = trace;
    entry.profile = decision->profile;
    slow_log_.Offer(std::move(entry));
    obs::TraceRecord record;
    record.trace = trace;
    if (shard != nullptr) record.tenant = std::to_string(shard->id);
    if (kind != nullptr) record.kind = kind;
    record.profile = decision->profile;
    record.worker = trace->track();
    trace_sink_.Offer(std::move(record));
  }
}

Result<PreparedSetting> CompletenessService::prepared(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->prepared;
}

Result<ShardOptions> CompletenessService::shard_options(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->options;
}

Result<uint64_t> CompletenessService::FingerprintRequest(
    SettingHandle handle, const DecisionRequest& request) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return RequestKeyFor(shard->prepared, request).primary;
}

Decision CompletenessService::RunEvaluation(
    Shard& shard, const DecisionRequest& request, SearchOptions* effective,
    const std::shared_ptr<obs::Trace>& trace) {
  // One clock read anchors the trace's "evaluate" phase AND the profile's
  // epoch, so profile slice offsets are offsets into the evaluate span
  // (what the trace exporter nests sub-slices by).
  auto profile = std::make_shared<SearchProfile>();
  const obs::TraceTime eval_start = obs::TraceClock::now();
  profile->Start(eval_start);
  effective->profile = profile.get();
  if (trace != nullptr) {
    trace->Phase("evaluate", eval_start);
    trace->SetTrack(tls_worker_index);
  }

  // Register with the stall watchdog for exactly the evaluation's
  // lifetime. Heartbeats flow through the chained progress hook below;
  // registering without enabling that hook would flag every long
  // evaluation as stalled, so both are gated on the same condition.
  const bool watched = options_.watchdog_stall_micros > 0;
  obs::ActiveEvaluations::Registration registration;
  obs::ActiveEvaluations::Record* heartbeat = nullptr;
  if (watched) {
    registration = active_.Register(std::to_string(shard.id),
                                    ProblemKindName(request.kind),
                                    trace != nullptr ? trace->id() : 0,
                                    eval_start);
    heartbeat = registration.record();
  }

  // Chain the checkpoint progress hook: watchdog heartbeat, then the
  // trace mark, then whatever hook the request itself supplied (which may
  // block — the heartbeat must land first so the watchdog sees the loop
  // the request's hook is stuck under).
  const SearchOptions::SearchProgressFn* original = effective->progress;
  SearchOptions::SearchProgressFn progress_fn;
  if (heartbeat != nullptr || trace != nullptr || original != nullptr) {
    progress_fn = [&trace, heartbeat, original](const char* what,
                                                uint64_t steps) {
      if (heartbeat != nullptr) heartbeat->Heartbeat(what, steps);
      if (trace != nullptr) {
        trace->Mark(std::string("eval:") + what,
                    "steps=" + std::to_string(steps));
      }
      if (original != nullptr && *original) (*original)(what, steps);
    };
    effective->progress = &progress_fn;
  }

  Decision decision = EvaluateRequest(request, shard.prepared, effective);

  const obs::TraceTime eval_end = obs::TraceClock::now();
  profile->Finish(eval_end);
  if (trace != nullptr) trace->Phase("cache-store", eval_end);
  decision.profile = std::move(profile);
  RecordSearchProfile(shard, request, *decision.profile);
  return decision;
}

void CompletenessService::RecordSearchProfile(const Shard& shard,
                                              const DecisionRequest& request,
                                              const SearchProfile& profile) {
  if (!options_.metrics) return;
  const std::string tenant = std::to_string(shard.id);
  const char* kind = ProblemKindName(request.kind);
  for (const SearchProfile::LoopTotal& total : profile.totals()) {
    obs::Counter* steps = metrics_registry_.GetCounter(
        obs::kMetricSearchStepsTotal,
        {{"tenant", tenant}, {"kind", kind}, {"loop", total.loop}});
    if (steps != nullptr) steps->Inc(total.steps);
    obs::Histogram* micros = metrics_registry_.GetHistogram(
        obs::kMetricSearchLoopMicros,
        {{"tenant", tenant}, {"loop", total.loop}});
    if (micros != nullptr) micros->Record(total.micros);
  }
}

void CompletenessService::ExtendRunDeadline(FlightGroup& group,
                                            sched::TimePoint deadline) {
  const sched::Clock::rep candidate = deadline.time_since_epoch().count();
  sched::Clock::rep current =
      group.run_deadline.load(std::memory_order_relaxed);
  while (current < candidate &&
         !group.run_deadline.compare_exchange_weak(current, candidate,
                                                   std::memory_order_relaxed)) {
  }
}

CompletenessService::Admission CompletenessService::Admit(
    Shard& shard, const DecisionRequest& request,
    const sched::SchedParams& sched, sched::TimePoint submit,
    std::function<void(Decision)> deliver, bool claim,
    RequestCacheKey* key, std::shared_ptr<FlightGroup>* group) {
  const size_t kind = static_cast<size_t>(request.kind);
  if (kind < shard.metrics.by_kind.size() &&
      shard.metrics.by_kind[kind] != nullptr) {
    shard.metrics.by_kind[kind]->Inc();
  }
  const size_t priority = static_cast<size_t>(sched.priority);
  if (priority < shard.metrics.by_priority.size() &&
      shard.metrics.by_priority[priority] != nullptr) {
    shard.metrics.by_priority[priority]->Inc();
  }
  if (inflight_gauge_ != nullptr) inflight_gauge_->Add(1);  // -1 at delivery

  FlightGroup::Member member;
  member.cancel =
      sched::CancelToken::AnyOf(request.options.cancel, sched.cancel);
  member.deadline = sched.deadline;
  member.deliver = std::move(deliver);
  member.submit = submit;
  member.trace = tracer_.MaybeTrace(submit);
  obs::Trace* trace = member.trace.get();
  if (trace != nullptr) trace->Phase("admit", submit);

  // Dead requests never reach the cache, the in-flight table or the queue.
  const bool cancelled = member.cancel.cancelled();
  const bool shed = cancelled || member.deadline < sched::Clock::now();
  Decision served;
  if (shed) {
    served = cancelled ? CancelledDecision() : ExpiredDecision();
    if (trace != nullptr) {
      trace->Phase("shed");
      trace->AnnotatePhase(cancelled ? "cancelled at admission"
                                     : "deadline passed at admission");
    }
  } else {
    *key = RequestKeyFor(shard.prepared, request);
    if (trace != nullptr) trace->Phase("cache-lookup");
  }
  {
    MutexLock lock(shard.mu);
    ++shard.counters.requests;
    if (shed) {
      ++(cancelled ? shard.counters.cancelled : shard.counters.expired);
    } else if (shard.cache->capacity() > 0 &&
               shard.cache->Get(*key, &served)) {
      ++shard.counters.cache_hits;
      served.from_cache = true;
      if (trace != nullptr) trace->AnnotatePhase("hit");
    } else {
      auto [it, created] = shard.in_flight.try_emplace(*key);
      if (created) it->second = std::make_shared<FlightGroup>();
      FlightGroup& flight = *it->second;
      // Whatever its role, the member's token keeps the (possibly already
      // running) computation alive, and its deadline extends the run's.
      flight.interest.Add(member.cancel);
      ExtendRunDeadline(flight, member.deadline);
      Admission admission;
      if (claim && !flight.started) {
        flight.started = true;
        flight.billed = flight.members.size();
        flight.run_trace = member.trace;
        ++shard.counters.cache_misses;
        admission = Admission::kClaimed;
      } else if (created) {
        if (trace != nullptr) trace->Phase("queue");
        admission = Admission::kParked;
      } else {
        if (trace != nullptr) {
          trace->Phase("coalesce-join");
          trace->AnnotatePhase(flight.run_trace != nullptr
                                   ? "joined run trace#" +
                                         std::to_string(flight.run_trace->id())
                                   : "joined in-flight run");
        }
        admission = Admission::kJoined;
      }
      flight.members.push_back(std::move(member));
      *group = it->second;
      return admission;
    }
  }
  DeliverMember(shard, member, std::move(served),
                ProblemKindName(request.kind));
  return Admission::kServed;
}

void CompletenessService::EvaluateForGroup(
    Shard& shard, const DecisionRequest& request, const RequestCacheKey& key,
    const std::shared_ptr<FlightGroup>& group) {
  // Written under the shard mutex by the claim on this thread.
  const std::shared_ptr<obs::Trace>& trace = group->run_trace;
  SearchOptions effective = request.options;
  // The joint interest token and the extendable run deadline: checkpoints
  // abort this run only once EVERY member — including ones that join
  // mid-run — has cancelled, and only past the LATEST deadline among them.
  // The group outlives the evaluation (the caller holds the shared_ptr).
  effective.cancel = group->interest.token();
  effective.shared_deadline = &group->run_deadline;
  Decision decision = RunEvaluation(shard, request, &effective, trace);
  const bool aborted = IsAbortStatus(decision.status);
  const bool memoize = shard.cache->capacity() > 0;
  // The request may die with its last member's delivery.
  const char* kind = ProblemKindName(request.kind);

  std::vector<Delivery> deliveries;
  {
    MutexLock lock(shard.mu);
    shard.counters.search += decision.stats;
    if (aborted) {
      // The claim-time miss becomes the abort's bucket; the wasted search
      // work shows as shed_running / aborted_steps.
      --shard.counters.cache_misses;
      CountShedLocked(shard.counters, decision.status);
      ++shard.counters.shed_running;
      shard.counters.aborted_steps += decision.stats.TotalSteps();
    } else if (!decision.status.ok()) {
      ++shard.counters.errors;
    }
    if (memoize && IsCacheableDecision(decision)) {
      const bool admitted = shard.cache->Put(key, decision);
      if (trace != nullptr) {
        trace->AnnotatePhase(admitted ? "admitted" : "admission rejected");
      }
    } else if (trace != nullptr) {
      trace->AnnotatePhase(memoize ? "not cacheable" : "memoization off");
    }
    // Retired in the same critical section as the insert: later arrivals
    // hit the cache instead.
    deliveries = RetireGroupLocked(shard, key, *group, decision);
  }
  DeliverMembers(shard, std::move(deliveries), kind, /*shed=*/false);
}

std::vector<CompletenessService::Delivery>
CompletenessService::RetireGroupLocked(Shard& shard, const RequestCacheKey& key,
                                       FlightGroup& group,
                                       const Decision& outcome) {
  shard.in_flight.erase(key);
  std::vector<Delivery> deliveries;
  deliveries.reserve(group.members.size());
  for (size_t i = 0; i < group.members.size(); ++i) {
    FlightGroup::Member& member = group.members[i];
    Decision decision;
    if (i == group.billed) {
      decision = outcome;  // charged at claim time
    } else if (member.cancel.cancelled()) {
      ++shard.counters.cancelled;
      decision = CancelledDecision();
    } else if (IsShedStatus(outcome.status)) {
      CountShedLocked(shard.counters, outcome.status);
      decision = outcome;
    } else {
      ++shard.counters.cache_hits;
      ++shard.counters.coalesced;
      decision = outcome;
      decision.from_cache = true;
      AppendNote(&decision, "coalesced with identical in-flight request");
    }
    deliveries.push_back(Delivery{std::move(member), std::move(decision)});
  }
  group.members.clear();
  return deliveries;
}

void CompletenessService::DeliverMember(Shard& shard,
                                        FlightGroup::Member& member,
                                        Decision decision, const char* kind) {
  FinishRequest(&shard, member.trace, member.submit, &decision, kind);
  member.deliver(std::move(decision));
}

void CompletenessService::DeliverMembers(Shard& shard,
                                         std::vector<Delivery> deliveries,
                                         const char* kind, bool shed) {
  for (Delivery& delivery : deliveries) {
    if (shed && delivery.member.trace != nullptr) {
      delivery.member.trace->Phase("shed");
    }
    DeliverMember(shard, delivery.member, std::move(delivery.decision), kind);
  }
}

void CompletenessService::ScheduleGroup(
    const std::shared_ptr<Shard>& shard, const RequestCacheKey& key,
    const std::shared_ptr<FlightGroup>& group,
    std::shared_ptr<const DecisionRequest> request,
    const sched::SchedParams& sched) {
  sched::Task task;
  task.tenant = shard->id;
  task.priority = sched.priority;
  task.deadline = sched.deadline;
  task.fn = [this, shard, key, group, request = std::move(request)](
                sched::TaskOutcome outcome, std::chrono::microseconds wait) {
    RunOwnerTask(*shard, key, group, request, outcome, wait);
  };
  if (!queue_.Push(std::move(task))) {
    task.fn(sched::TaskOutcome::kRejected, sched::kNotQueued);
  }
}

void CompletenessService::RunOwnerTask(
    Shard& shard, const RequestCacheKey& key,
    const std::shared_ptr<FlightGroup>& group,
    const std::shared_ptr<const DecisionRequest>& request,
    sched::TaskOutcome outcome, std::chrono::microseconds wait) {
  std::vector<Delivery> shed;
  {
    MutexLock lock(shard.mu);
    CountWaitLocked(shard.counters, wait, shard.metrics.queue_wait);
    if (group->started) return;  // a blocking caller stole it; it publishes
    group->started = true;
    if (outcome == sched::TaskOutcome::kRejected) {
      shed = RetireGroupLocked(shard, key, *group, RejectedDecision());
    } else {
      // Only a live member keeps the computation alive: a group whose
      // every member has cancelled or expired is shed before evaluation.
      const sched::TimePoint now = sched::Clock::now();
      for (size_t i = 0; i < group->members.size(); ++i) {
        const FlightGroup::Member& m = group->members[i];
        if (!m.cancel.cancelled() && m.deadline >= now) {
          group->billed = i;
          // Its trace becomes the run's: the timeline gains the evaluate /
          // cache-store phases, and later joiners note which run they
          // piggy-backed on.
          group->run_trace = m.trace;
          ++shard.counters.cache_misses;
          break;
        }
      }
      if (group->billed == FlightGroup::kNotBilled) {
        shed = RetireGroupLocked(shard, key, *group, ExpiredDecision());
      }
    }
  }
  // Claimed, so the request is still alive: no member was delivered yet.
  if (group->billed == FlightGroup::kNotBilled) {
    DeliverMembers(shard, std::move(shed), ProblemKindName(request->kind),
                   /*shed=*/true);
  } else {
    EvaluateForGroup(shard, *request, key, group);
  }
}

Decision CompletenessService::Decide(const ServiceRequest& request) {
  const sched::TimePoint submit = sched::Clock::now();
  std::shared_ptr<Shard> shard = FindShard(request.setting);
  if (shard == nullptr) return UnknownHandleDecision(request.setting);
  auto promise = std::make_shared<std::promise<Decision>>();
  std::future<Decision> decision = promise->get_future();
  RequestCacheKey key;
  std::shared_ptr<FlightGroup> group;
  const Admission admission = Admit(
      *shard, request.request, request.sched, submit,
      [promise](Decision d) { promise->set_value(std::move(d)); },
      /*claim=*/true, &key, &group);
  if (admission == Admission::kClaimed) {
    EvaluateForGroup(*shard, request.request, key, group);
  }
  // Served, evaluated here, or joined to a run already live on another
  // thread (never a parked one), so this wait always makes progress.
  return decision.get();
}

void CompletenessService::SubmitAsync(
    ServiceRequest request, std::function<void(Decision)> on_complete) {
  const sched::TimePoint submit = sched::Clock::now();
  std::shared_ptr<Shard> shard = FindShard(request.setting);
  if (shard == nullptr) {
    Decision unknown = UnknownHandleDecision(request.setting);
    FinishRequest(nullptr, nullptr, submit, &unknown,
                  ProblemKindName(request.request.kind));
    on_complete(std::move(unknown));
    return;
  }
  RequestCacheKey key;
  std::shared_ptr<FlightGroup> group;
  const bool inline_mode = workers_.empty() || tls_on_worker_thread;
  switch (Admit(*shard, request.request, request.sched, submit,
                std::move(on_complete), inline_mode, &key, &group)) {
    case Admission::kClaimed:
      EvaluateForGroup(*shard, request.request, key, group);
      break;
    case Admission::kParked:
      ScheduleGroup(shard, key, group,
                    std::make_shared<const DecisionRequest>(
                        std::move(request.request)),
                    request.sched);
      break;
    case Admission::kServed:
    case Admission::kJoined:
      break;
  }
}

std::future<Decision> CompletenessService::SubmitAsync(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<Decision>>();
  std::future<Decision> future = promise->get_future();
  SubmitAsync(std::move(request),
              [promise](Decision d) { promise->set_value(std::move(d)); });
  return future;
}

void CompletenessService::SubmitSlots(
    const std::vector<ServiceRequest>& requests, DecisionStream* stream,
    std::shared_ptr<const void> keep_alive) {
  const sched::TimePoint submit = sched::Clock::now();
  const bool inline_mode = workers_.empty() || tls_on_worker_thread;
  if (requests.empty()) {
    stream->Finish();
    return;
  }
  // Resolve each distinct handle once instead of taking the registry lock
  // per request.
  std::vector<std::shared_ptr<Shard>> shards(requests.size());
  {
    std::unordered_map<uint64_t, std::shared_ptr<Shard>> resolved;
    for (size_t i = 0; i < requests.size(); ++i) {
      auto [it, inserted] = resolved.try_emplace(requests[i].setting.id);
      if (inserted) it->second = FindShard(requests[i].setting);
      shards[i] = it->second;
    }
  }

  auto remaining = std::make_shared<std::atomic<size_t>>(requests.size());
  auto publish = [stream, remaining](size_t index, Decision decision) {
    stream->Publish(StreamedDecision{index, std::move(decision)});
    if (remaining->fetch_sub(1) == 1) stream->Finish();
  };

  // Every slot is admitted before any new group runs or is queued, so
  // duplicates within the batch always find their group still in flight.
  // A parked group's task runs at its batch members' most urgent priority
  // and latest deadline.
  struct Opened {
    size_t slot;
    RequestCacheKey key;
    std::shared_ptr<FlightGroup> group;
    bool claimed;
    sched::SchedParams sched;
  };
  std::vector<Opened> opened;
  std::unordered_map<const FlightGroup*, size_t> parked;  // -> opened index
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequest& request = requests[i];
    if (shards[i] == nullptr) {
      Decision unknown = UnknownHandleDecision(request.setting);
      FinishRequest(nullptr, nullptr, submit, &unknown,
                    ProblemKindName(request.request.kind));
      publish(i, std::move(unknown));
      continue;
    }
    Opened slot{i, {}, nullptr, false, request.sched};
    const Admission admission = Admit(
        *shards[i], request.request, request.sched, submit,
        [publish, i](Decision d) { publish(i, std::move(d)); },
        inline_mode, &slot.key, &slot.group);
    if (admission == Admission::kJoined) {
      auto it = parked.find(slot.group.get());
      if (it != parked.end()) {
        sched::SchedParams& merged = opened[it->second].sched;
        merged.priority = std::min(merged.priority, request.sched.priority);
        merged.deadline = std::max(merged.deadline, request.sched.deadline);
      }
    } else if (admission != Admission::kServed) {
      slot.claimed = admission == Admission::kClaimed;
      if (!slot.claimed) parked.emplace(slot.group.get(), opened.size());
      opened.push_back(std::move(slot));
    }
  }
  for (Opened& slot : opened) {
    const ServiceRequest& request = requests[slot.slot];
    if (slot.claimed) {
      EvaluateForGroup(*shards[slot.slot], request.request, slot.key,
                       slot.group);
    } else {
      // Shares ownership with `keep_alive` (non-owning when the caller
      // blocks until delivery).
      ScheduleGroup(shards[slot.slot], slot.key, slot.group,
                    std::shared_ptr<const DecisionRequest>(keep_alive,
                                                           &request.request),
                    slot.sched);
    }
  }
}

std::vector<Decision> CompletenessService::SubmitBatch(
    const std::vector<ServiceRequest>& requests) {
  DecisionStream stream;
  SubmitSlots(requests, &stream, nullptr);
  std::vector<Decision> results(requests.size());
  stream.Drain([&results](StreamedDecision item) {
    results[item.index] = std::move(item.decision);
  });
  return results;
}

void CompletenessService::SubmitStream(
    const std::vector<ServiceRequest>& requests, DecisionStream* stream) {
  // SubmitStream returns before delivery completes, so queued owner tasks
  // must not reference the caller's vector: admit a private copy, pinned by
  // every task until the last one ran.
  auto owned = std::make_shared<const std::vector<ServiceRequest>>(requests);
  SubmitSlots(*owned, stream, owned);
}

namespace {

/// Folds the cache-lifecycle stats into a shard's request counters. The
/// shard counters never carry these fields themselves — evictions can be
/// triggered by ANOTHER shard's insert (budget pressure), so the cache is
/// the one source of truth and the accessors overlay at read time.
EngineCounters WithCacheStats(EngineCounters counters,
                              const cache::CacheStats& cache_stats) {
  counters.evictions = cache_stats.evictions;
  counters.admission_rejects = cache_stats.admission_rejects;
  counters.cache_bytes = cache_stats.bytes;
  return counters;
}

}  // namespace

Result<EngineCounters> CompletenessService::counters(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  const cache::CacheStats cache_stats = shard->cache->stats();
  MutexLock lock(shard->mu);
  return WithCacheStats(shard->counters, cache_stats);
}

std::vector<std::pair<uint64_t, std::shared_ptr<CompletenessService::Shard>>>
CompletenessService::LiveShards() const {
  std::vector<std::pair<uint64_t, std::shared_ptr<Shard>>> shards;
  {
    MutexLock lock(registry_mu_);
    shards.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) shards.emplace_back(id, shard);
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return shards;
}

EngineCounters CompletenessService::TotalCounters() const {
  EngineCounters total;
  for (const auto& [id, shard] : LiveShards()) {
    const cache::CacheStats cache_stats = shard->cache->stats();
    MutexLock lock(shard->mu);
    total += WithCacheStats(shard->counters, cache_stats);
  }
  if (cache_budget_ != nullptr) {
    total.cache_bytes = cache_budget_->resident_bytes();
  }
  return total;
}

std::string CompletenessService::DumpMetrics(obs::DumpFormat format) const {
  obs::MetricsDump dump;
  metrics_registry_.DumpInto(&dump);

  // Derived per-tenant outcome counters, computed from the shard
  // EngineCounters at dump time: the counters are the request-partition
  // source of truth (requests == hits + misses + rejected + expired +
  // cancelled), so deriving rather than double-counting on the hot path
  // keeps the exposition consistent with counters()/TotalCounters() by
  // construction. Sorted by handle id for deterministic output.
  const auto shards = LiveShards();
  std::vector<std::pair<uint64_t, EngineCounters>> snapshots;
  snapshots.reserve(shards.size());
  for (const auto& [id, shard] : shards) {
    MutexLock shard_lock(shard->mu);
    snapshots.emplace_back(id, shard->counters);
  }
  struct Outcome {
    const char* name;
    uint64_t EngineCounters::* field;
  };
  static constexpr Outcome kOutcomes[] = {
      {"hit", &EngineCounters::cache_hits},
      {"miss", &EngineCounters::cache_misses},
      {"rejected", &EngineCounters::rejected},
      {"expired", &EngineCounters::expired},
      {"cancelled", &EngineCounters::cancelled},
  };
  // Outcome-major order keeps each hand-added family's rows contiguous, so
  // the Prometheus renderer emits one HELP/TYPE header per family.
  for (const Outcome& outcome : kOutcomes) {
    for (const auto& [id, counters] : snapshots) {
      dump.AddCounter(
          obs::kMetricDecisionsTotal,
          {{"outcome", outcome.name}, {"tenant", std::to_string(id)}},
          counters.*outcome.field);
    }
  }
  for (const auto& [id, counters] : snapshots) {
    dump.AddCounter(obs::kMetricErrorsTotal, {{"tenant", std::to_string(id)}},
                    counters.errors);
  }
  // Binary identity + uptime, so a scrape can tell which relcomp build
  // answered it and how long the process has been serving.
  dump.AddGauge(obs::kMetricBuildInfo,
                {{"git", BuildGitRevision()}, {"version", BuildVersion()}}, 1);
  dump.AddGauge(obs::kMetricUptimeSeconds, {},
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - start_time_)
                    .count());
  dump.AddCounter(obs::kMetricTracesSampledTotal, {}, tracer_.sampled());
  dump.AddGauge(obs::kMetricSlowLogEntries, {},
                static_cast<int64_t>(slow_log_.size()));
  dump.AddCounter(obs::kMetricWatchdogStallsTotal, {},
                  watchdog_stall_count_.load(std::memory_order_relaxed));
  if (options_.trace_ring > 0) {
    dump.AddGauge(obs::kMetricTraceRingEntries, {},
                  static_cast<int64_t>(trace_sink_.size()));
    dump.AddCounter(obs::kMetricTraceRingDroppedTotal, {},
                    trace_sink_.dropped());
  }

  // Sliding-window views: recent request rates (1s/10s/60s) and recent
  // latency distributions, service-wide and per tenant. One clock read so
  // every window row answers for the same instant.
  if (windows_ != nullptr) {
    const auto now = obs::WindowedCounter::Clock::now();
    static constexpr uint64_t kWindows[] = {1, 10, 60};
    for (const uint64_t secs : kWindows) {
      dump.AddRate(obs::RequestsRateFamily(secs), {},
                   windows_->requests.Rate(secs, now));
      for (const auto& [id, shard] : shards) {
        if (shard->recent_requests == nullptr) continue;
        dump.AddRate(obs::TenantRequestsRateFamily(secs),
                     {{"tenant", std::to_string(id)}},
                     shard->recent_requests->Rate(secs, now));
      }
    }
    static constexpr uint64_t kLatencyWindows[] = {10, 60};
    for (const uint64_t secs : kLatencyWindows) {
      dump.AddHistogram(obs::RecentLatencyFamily(secs), {},
                        windows_->latency.Snapshot(secs, now));
    }
  }
  return dump.Render(format);
}

std::vector<obs::SlowEntry> CompletenessService::SlowDecisions() const {
  return slow_log_.Worst();
}

std::string CompletenessService::DumpTraces() const {
  return obs::RenderChromeTrace(trace_sink_.Snapshot());
}

Result<cache::CacheStats> CompletenessService::CacheStats(
    SettingHandle handle) const {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  return shard->cache->stats();
}

Status CompletenessService::SaveCaches(const std::string& path) const {
  cache::Snapshot snapshot;
  for (const auto& [id, shard] : LiveShards()) {
    if (shard->cache->capacity() == 0) continue;  // nothing cached, ever
    cache::SnapshotShard image;
    image.setting_key = shard->setting_key;
    image.entries = shard->cache->SnapshotEntries();
    if (image.entries.empty()) continue;
    snapshot.shards.push_back(std::move(image));
  }
  return cache::SaveSnapshot(snapshot, path);
}

Result<size_t> CompletenessService::LoadCaches(const std::string& path) {
  Result<cache::Snapshot> snapshot = cache::LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  size_t accepted = 0;
  for (cache::SnapshotShard& image : snapshot->shards) {
    std::shared_ptr<Shard> live;
    {
      MutexLock lock(registry_mu_);
      auto it = handle_by_fingerprint_.find(image.setting_key);
      if (it == handle_by_fingerprint_.end()) {
        // Stage for a future RegisterSetting with this fingerprint; a
        // re-load of the same snapshot replaces the staged entries.
        pending_warm_[image.setting_key] = std::move(image.entries);
        ++accepted;
        continue;
      }
      live = shards_.at(it->second);
    }
    // A live shard with its cache disabled can never apply the image:
    // dropped, and NOT counted as accepted.
    if (live->cache->capacity() == 0) continue;
    for (auto& [key, decision] : image.entries) {
      live->cache->Restore(key, std::move(decision));
    }
    ++accepted;
  }
  return accepted;
}

Status CompletenessService::ClearCache(SettingHandle handle) {
  std::shared_ptr<Shard> shard = FindShard(handle);
  if (shard == nullptr) return UnknownHandleDecision(handle).status;
  shard->cache->Clear();
  return Status::OK();
}

void CompletenessService::RecorderLoop() {
  using std::chrono::microseconds;
  // Tick at the finer of the two cadences being served: the report
  // interval, and half the stall threshold (so a stall is flagged within
  // one threshold period of the heartbeat going quiet).
  uint64_t tick_us = options_.recorder_interval_ms * 1000;
  if (options_.watchdog_stall_micros > 0) {
    const uint64_t half =
        std::max<uint64_t>(options_.watchdog_stall_micros / 2, 100);
    tick_us = tick_us == 0 ? half : std::min(tick_us, half);
  }
  const uint64_t interval_us = options_.recorder_interval_ms * 1000;
  // Start "due": the first tick renders the first report.
  auto last_render =
      std::chrono::steady_clock::now() - microseconds(interval_us);
  for (;;) {
    {
      MutexLock lock(recorder_wake_mu_);
      if (!recorder_stop_) {
        recorder_wake_cv_.WaitFor(recorder_wake_mu_, microseconds(tick_us));
      }
      if (recorder_stop_) return;
    }
    const auto now = std::chrono::steady_clock::now();

    bool flagged_stall = false;
    if (options_.watchdog_stall_micros > 0) {
      for (const auto& record : active_.Snapshot()) {
        const auto last_heartbeat = obs::ActiveEvaluations::Clock::duration(
            record->last_heartbeat.load(std::memory_order_relaxed));
        const int64_t age_us = std::chrono::duration_cast<microseconds>(
                                   now.time_since_epoch() - last_heartbeat)
                                   .count();
        if (age_us < 0 ||
            static_cast<uint64_t>(age_us) <= options_.watchdog_stall_micros) {
          continue;
        }
        // exchange(): each stalled evaluation is flagged exactly once,
        // even across ticks while it stays stuck.
        if (record->flagged.exchange(true, std::memory_order_relaxed)) {
          continue;
        }
        watchdog_stall_count_.fetch_add(1, std::memory_order_relaxed);
        flagged_stall = true;
        const char* loop = record->loop.load(std::memory_order_relaxed);
        const uint64_t steps = record->steps.load(std::memory_order_relaxed);
        const std::string where =
            std::string("tenant=") + record->tenant + " kind=" + record->kind +
            " loop=" + (loop != nullptr ? loop : "(before first checkpoint)") +
            " steps=" + std::to_string(steps);
        obs::SlowEntry entry;
        entry.micros = static_cast<uint64_t>(
            std::chrono::duration_cast<microseconds>(now - record->start)
                .count());
        entry.trace_id = record->trace_id;
        entry.tenant = record->tenant;
        entry.kind = record->kind;
        entry.note = "watchdog: no checkpoint progress for " +
                     std::to_string(age_us) + "us; " + where;
        slow_log_.Offer(std::move(entry));
      }
    }

    // Re-render on the interval, and at once after a flagged stall: the
    // vitals just changed in the way the abort report most needs to show.
    const bool due =
        interval_us > 0 && now - last_render >= microseconds(interval_us);
    if (due || flagged_stall) {
      if (due) last_render = now;
      obs::PublishAbortReport(ObsReport());
    }
  }
}

std::string CompletenessService::ObsReport() const {
  const auto now = std::chrono::steady_clock::now();
  const auto active = active_.Snapshot();
  std::ostringstream out;
  out << "=== relcomp obs report ===\n";
  out << "in-flight: "
      << (inflight_gauge_ != nullptr ? inflight_gauge_->value() : 0)
      << "  queue depth: " << queue_.depth()
      << "  active evaluations: " << active.size() << "  watchdog stalls: "
      << watchdog_stall_count_.load(std::memory_order_relaxed) << "\n";
  if (windows_ != nullptr) {
    const obs::HistogramData recent = windows_->latency.Snapshot(10, now);
    out << "rates: " << std::fixed << std::setprecision(1)
        << windows_->requests.Rate(1, now) << "/s (1s), "
        << windows_->requests.Rate(10, now) << "/s (10s), "
        << windows_->requests.Rate(60, now) << "/s (60s)\n";
    out << "latency (10s window): p50=" << std::setprecision(0)
        << recent.Quantile(0.5) << "us p95=" << recent.Quantile(0.95)
        << "us p99=" << recent.Quantile(0.99) << "us max=" << recent.max
        << "us n=" << recent.count << "\n";
  }

  for (const auto& [id, shard] : LiveShards()) {
    if (shard->recent_requests == nullptr) continue;
    out << "tenant " << id << ": " << std::setprecision(1)
        << shard->recent_requests->Rate(10, now) << "/s (10s), queued "
        << queue_.TenantDepth(id) << "\n";
  }

  // The active-evaluation table: where each running search is, and how
  // long since its last checkpoint heartbeat.
  const auto us_since = [now](std::chrono::steady_clock::duration at) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               now.time_since_epoch() - at)
        .count();
  };
  for (const auto& record : active) {
    const char* loop = record->loop.load(std::memory_order_relaxed);
    out << "  eval#" << record->id << " tenant=" << record->tenant
        << " kind=" << record->kind;
    if (record->trace_id != 0) out << " trace#" << record->trace_id;
    out << " loop=" << (loop != nullptr ? loop : "-")
        << " steps=" << record->steps.load(std::memory_order_relaxed)
        << " running=" << us_since(record->start.time_since_epoch())
        << "us heartbeat_age="
        << us_since(obs::ActiveEvaluations::Clock::duration(
               record->last_heartbeat.load(std::memory_order_relaxed)))
        << "us";
    if (record->flagged.load(std::memory_order_relaxed)) out << " [STALLED]";
    out << "\n";
  }

  const auto slow = slow_log_.Worst();
  if (!slow.empty()) {
    const obs::SlowEntry& worst = slow.front();
    out << "slow log: " << slow.size() << " entries, worst " << worst.micros
        << "us tenant=" << worst.tenant << " kind=" << worst.kind;
    if (worst.trace_id != 0) out << " trace#" << worst.trace_id;
    if (!worst.note.empty()) out << " (" << worst.note << ")";
    out << "\n";
  }
  return out.str();
}

std::string CompletenessService::RenderSlowLog() const {
  const auto slow = slow_log_.Worst();
  std::ostringstream out;
  out << "slow decisions: " << slow.size() << " (slowest first)\n";
  for (const obs::SlowEntry& entry : slow) {
    out << entry.micros << "us tenant=" << entry.tenant
        << " kind=" << (entry.kind.empty() ? "-" : entry.kind);
    if (entry.trace_id != 0) out << " trace#" << entry.trace_id;
    if (!entry.note.empty()) out << " (" << entry.note << ")";
    out << "\n";
    if (entry.profile != nullptr) {
      out << "  search: " << entry.profile->ToString() << "\n";
    }
    if (entry.trace != nullptr) out << entry.trace->ToString() << "\n";
  }
  return out.str();
}

Status CompletenessService::ServeObs(const obs::ObsHttpOptions& options) {
  // The surfaces are the public dump methods, bound to `this`; each runs
  // on an endpoint worker thread and takes only the locks the dump call
  // always took. Safe for the life of the service: the destructor stops
  // the endpoint before any other teardown.
  obs::ObsSurfaces surfaces;
  surfaces.metrics_prometheus = [this] {
    return DumpMetrics(obs::DumpFormat::kPrometheus);
  };
  surfaces.metrics_json = [this] {
    return DumpMetrics(obs::DumpFormat::kJson);
  };
  surfaces.traces_json = [this] { return DumpTraces(); };
  surfaces.slow_text = [this] { return RenderSlowLog(); };
  surfaces.report_text = [this] { return ObsReport(); };
  surfaces.ready = [this] {
    // Ready = at least one registered setting, and the worker pool is
    // live (a zero-worker service runs every submission inline, so the
    // pool is vacuously live).
    const bool pool_live = options_.num_workers == 0 || !workers_.empty();
    return pool_live && num_settings() > 0;
  };
  auto endpoint = std::make_unique<obs::HttpEndpoint>(
      std::move(surfaces), options_.metrics ? &metrics_registry_ : nullptr);
  RELCOMP_RETURN_IF_ERROR(endpoint->Start(options));
  {
    MutexLock lock(registry_mu_);
    if (obs_endpoint_ == nullptr) {
      obs_endpoint_ = std::move(endpoint);
      return Status::OK();
    }
  }
  // Lost a ServeObs race (or the service already serves): the freshly
  // started loser stops outside the lock — its handler threads may be
  // serving a request that wants registry_mu_.
  endpoint.reset();
  return Status::InvalidArgument(
      "ServeObs: this service already has a live observability endpoint");
}

void CompletenessService::StopObs() {
  std::unique_ptr<obs::HttpEndpoint> endpoint;
  {
    MutexLock lock(registry_mu_);
    endpoint = std::move(obs_endpoint_);
  }
  // Stopped (joining handler threads that may take registry_mu_) with
  // the lock released.
  endpoint.reset();
}

uint16_t CompletenessService::obs_port() const {
  MutexLock lock(registry_mu_);
  return obs_endpoint_ != nullptr ? obs_endpoint_->port() : 0;
}

}  // namespace relcomp
