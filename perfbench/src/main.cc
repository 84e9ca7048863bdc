// relcomp end-to-end benchmark.
//
//   relcomp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR]
//
// One process generates a seeded `.rcp` workload (generator.h), parses and
// registers every tenant, and replays identical rounds of calls through
// CompletenessService: a round is a fixed sequence of SubmitAsync, Decide
// and SubmitBatch calls, the same requests in the same order every time.
// Where a workload wants cache misses, the cold state is restored between
// rounds, untimed. One client thread keeps up to kWindow SubmitAsync calls
// outstanding and makes the blocking Decide and SubmitBatch calls itself;
// with kWorkers service workers that is the machine's four cores.
//
// --trace 0 measures the end-to-end metrics over S seconds of whole rounds.
// --trace 1 runs the same untraced pass for S/2 seconds and then a traced
// pass for S/2, with spans the benchmark records around its own calls into
// each layer (spans.h), then untimed per-layer probes; it prints the
// per-layer metrics and writes the spans as Chrome trace JSON to
// DIR/trace-<workload>-<seed>.json. Both modes end with an untimed
// correctness gate: verdicts against DecideCold, the counter partition of
// every service, and the search counts of direct evaluations against the
// service's. Stdout's last line is one JSON object; the exit code is 1 when
// the gate fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "generator.h"
#include "query/parser.h"
#include "service/service.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using relcomp::CompletenessService;
using relcomp::Decision;
using relcomp::DecisionRequest;
using relcomp::EngineCounters;
using relcomp::ProblemKind;
using relcomp::SearchStats;
using relcomp::ServiceOptions;
using relcomp::ServiceRequest;
using relcomp::SettingHandle;
using relcomp::ShardOptions;

constexpr size_t kWindow = 4;    // outstanding SubmitAsync calls, > workers
constexpr size_t kWorkers = 3;   // service workers; + the client thread = 4
constexpr size_t kProbes = 256;  // requests the per-layer probes revisit

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "relcomp_perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ tenants --

/// One parsed tenant program: the setting plus its workload queries `q_<k>`
/// and c-instances `t_<k>`, indexed by k.
struct Tenant {
  relcomp::PartiallyClosedSetting setting;
  std::vector<relcomp::Query> queries;
  std::vector<relcomp::CInstance> ctables;
};

/// Index k of a `<prefix><k>` name, or -1.
int IndexOf(const std::string& name, const char* prefix) {
  const size_t n = std::strlen(prefix);
  if (name.compare(0, n, prefix) != 0) return -1;
  return std::atoi(name.c_str() + n);
}

/// Reads back a c-instance written as a ground `instance` block plus a
/// tableau query (generator.h): each tableau atom is a row, and a builtin
/// on a variable guards the first row that mentions the variable.
relcomp::CInstance ToCInstance(const relcomp::DatabaseSchema& schema,
                               const relcomp::Instance* ground,
                               const relcomp::ConjunctiveQuery* tableau) {
  relcomp::CInstance ct = ground != nullptr
                              ? relcomp::CInstance::FromInstance(*ground)
                              : relcomp::CInstance(schema);
  if (tableau == nullptr) return ct;
  std::vector<relcomp::CRow> rows;
  for (const relcomp::RelAtom& atom : tableau->atoms()) {
    relcomp::CRow row;
    for (const relcomp::CTerm& t : atom.args) {
      if (std::holds_alternative<relcomp::VarId>(t)) {
        row.cells.emplace_back(std::get<relcomp::VarId>(t));
      } else {
        row.cells.emplace_back(std::get<relcomp::Value>(t));
      }
    }
    rows.push_back(std::move(row));
  }
  for (const relcomp::CondAtom& cond : tableau->builtins()) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const auto& cells = rows[r].cells;
      const bool mentions = std::any_of(
          cells.begin(), cells.end(), [&](const relcomp::Cell& c) {
            return std::holds_alternative<relcomp::VarId>(c) &&
                   relcomp::CTerm(std::get<relcomp::VarId>(c)) == cond.lhs;
          });
      if (mentions) {
        rows[r].condition.AddAtom(cond);
        break;
      }
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    ct.at(tableau->atoms()[r].rel).AddRow(std::move(rows[r]));
  }
  return ct;
}

Tenant Materialize(relcomp::ParsedProgram program) {
  Tenant t;
  t.setting.schema = program.schema;
  t.setting.master_schema = program.master_schema;
  t.setting.dm = program.minstances.at("dm");
  t.setting.ccs = std::move(program.ccs);
  for (auto& [name, query] : program.queries) {
    const int k = IndexOf(name, "q_");
    if (k < 0) continue;
    if (t.queries.size() <= static_cast<size_t>(k)) t.queries.resize(k + 1);
    t.queries[k] = query;
  }
  int num_ctables = 0;
  for (const auto& [name, unused] : program.instances) {
    num_ctables = std::max(num_ctables, IndexOf(name, "t_") + 1);
  }
  for (const auto& [name, unused] : program.queries) {
    num_ctables = std::max(num_ctables, IndexOf(name, "t_") + 1);
  }
  for (int k = 0; k < num_ctables; ++k) {
    const std::string name = "t_" + std::to_string(k);
    auto g = program.instances.find(name);
    auto q = program.queries.find(name);
    t.ctables.push_back(ToCInstance(
        t.setting.schema, g == program.instances.end() ? nullptr : &g->second,
        q == program.queries.end() ? nullptr : &q->second.cq()));
  }
  return t;
}

/// One distinct request of a workload.
struct RequestSpec {
  uint32_t tenant = 0, query = 0, ctable = 0;
  ProblemKind kind = ProblemKind::kRcdpStrong;
  bool witness = false;
};

DecisionRequest Build(const std::vector<Tenant>& tenants,
                      const RequestSpec& spec) {
  DecisionRequest r;
  r.kind = spec.kind;
  r.query = tenants[spec.tenant].queries[spec.query];
  r.cinstance = tenants[spec.tenant].ctables[spec.ctable];
  r.want_witness = spec.witness;
  return r;
}

// --------------------------------------------------------- deployment --

/// A service with every tenant of a workload parsed and registered.
struct Deployment {
  std::unique_ptr<CompletenessService> service;
  std::vector<Tenant> tenants;
  std::vector<SettingHandle> handles;
  double setup_s = 0;  ///< construction + parse + load + register
  double parse_s = 0, register_s = 0, load_s = 0;
  double own_s = 0;  ///< the benchmark's own work inside Deploy
};

/// Appends `span` to `spans`, when given.
void Keep(std::vector<int32_t>* spans, int32_t span) {
  if (spans != nullptr) spans->push_back(span);
}

/// Builds a service from program text, the way relcomp_cli does: construct,
/// ParseProgram every tenant, LoadCaches `snapshot` (when not empty) so its
/// entries are staged, then RegisterSetting every tenant, which restores
/// them. Each call into the library is spanned; the span ids go to `spans`.
Deployment Deploy(const std::vector<std::string>& texts,
                  const ServiceOptions& options,
                  const std::vector<ShardOptions>& shards,
                  const std::string& snapshot, Tracer& tracer,
                  std::vector<int32_t>* spans = nullptr) {
  Deployment d;
  std::vector<relcomp::ParsedProgram> programs;
  const Clock::time_point t0 = Clock::now();
  d.service = std::make_unique<CompletenessService>(options);
  Clock::time_point start = Clock::now();
  for (const std::string& text : texts) {
    const Clock::time_point t = Clock::now();
    relcomp::Result<relcomp::ParsedProgram> parsed =
        relcomp::ParseProgram(text);
    Keep(spans, tracer.Record("query.parse", t, Clock::now(),
                              Tracer::kNoParent, 0));
    if (!parsed.ok()) Die("generated program: " + parsed.status().ToString());
    programs.push_back(std::move(parsed).value());
  }
  d.parse_s = Seconds(start, Clock::now());
  if (!snapshot.empty()) {
    start = Clock::now();
    relcomp::Result<size_t> loaded = d.service->LoadCaches(snapshot);
    const Clock::time_point end = Clock::now();
    Keep(spans, tracer.Record("cache.load", start, end, Tracer::kNoParent, 0));
    if (!loaded.ok()) Die("LoadCaches: " + loaded.status().ToString());
    d.load_s = Seconds(start, end);
  }
  // Reading tenants back out of the parsed programs is the benchmark's own
  // work, not the program's: it stays out of the set-up time.
  const Clock::time_point paused = Clock::now();
  for (relcomp::ParsedProgram& program : programs) {
    d.tenants.push_back(Materialize(std::move(program)));
  }
  const Clock::time_point resumed = Clock::now();
  start = resumed;
  for (size_t i = 0; i < d.tenants.size(); ++i) {
    const Clock::time_point t = Clock::now();
    relcomp::Result<SettingHandle> h = d.service->RegisterSetting(
        d.tenants[i].setting, i < shards.size() ? shards[i] : ShardOptions{});
    Keep(spans, tracer.Record("core.prepare", t, Clock::now(),
                              Tracer::kNoParent, 0));
    if (!h.ok()) Die("RegisterSetting: " + h.status().ToString());
    d.handles.push_back(*h);
  }
  const Clock::time_point end = Clock::now();
  d.register_s = Seconds(start, end);
  d.setup_s = Seconds(t0, paused) + Seconds(resumed, end);
  d.own_s = Seconds(paused, resumed);
  return d;
}

/// SaveCaches to `path`, spanned; returns milliseconds and the file size.
std::pair<double, double> Save(const CompletenessService& service,
                               const std::string& path, Tracer& tracer,
                               std::vector<int32_t>* spans = nullptr) {
  const Clock::time_point t = Clock::now();
  const relcomp::Status saved = service.SaveCaches(path);
  const Clock::time_point end = Clock::now();
  Keep(spans, tracer.Record("cache.save", t, end, Tracer::kNoParent, 0));
  if (!saved.ok()) Die("SaveCaches: " + saved.ToString());
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return {Seconds(t, end) * 1e3, static_cast<double>(file.tellg())};
}

// ------------------------------------------------------------- rounds --

/// One call of a round: `count` consecutive request positions from `first`.
/// kAsync and kDecide calls carry one request; a kBatch call is one
/// SubmitBatch job.
struct Call {
  enum Kind : uint8_t { kAsync, kDecide, kBatch };
  Kind kind = kAsync;
  uint32_t first = 0, count = 1;
};

/// A round's calls with its requests built, ready to be replayed. Building
/// copies each request out of its tenant, so it happens between rounds,
/// untimed; kAsync requests are moved into the service when submitted.
struct ReadyRound {
  std::vector<uint32_t> ids;              ///< request id per position
  std::vector<ServiceRequest> requests;   ///< per position
  std::vector<std::vector<ServiceRequest>> jobs;  ///< per kBatch call
};

void BuildRound(const std::vector<Tenant>& tenants,
                const std::vector<SettingHandle>& handles,
                const std::vector<RequestSpec>& specs,
                const std::vector<uint32_t>& ids,
                const std::vector<Call>& calls, ReadyRound* round) {
  round->ids = ids;
  round->requests.resize(ids.size());
  for (size_t p = 0; p < ids.size(); ++p) {
    const RequestSpec& spec = specs[ids[p]];
    round->requests[p].setting = handles[spec.tenant];
    round->requests[p].request = Build(tenants, spec);
  }
  round->jobs.clear();
  for (const Call& call : calls) {
    if (call.kind != Call::kBatch) continue;
    round->jobs.emplace_back(round->requests.begin() + call.first,
                             round->requests.begin() + call.first + call.count);
  }
}

/// Latency classes a call falls into, for the band diagnostics.
enum CallClass { kAsyncHit, kAsyncMiss, kDecideHit, kDecideMiss, kBatchHit,
                 kBatchMiss, kNumClasses };
const char* const kClassNames[] = {"async-hit",  "async-miss", "decide-hit",
                                   "decide-miss", "batch-hit", "batch-miss"};

/// Everything the timed rounds of one pass measured.
struct Timing {
  LatencyHistogram calls;  ///< every call of the timed rounds
  LatencyHistogram by_class[kNumClasses];
  LatencyHistogram admit;  ///< SubmitAsync return times
  LatencyHistogram batch_per_decision;
  uint64_t decisions = 0;
  double seconds = 0;  ///< sum of the whole rounds' durations
  std::vector<double> round_rates, round_max_us, round_top_share;
  std::vector<double> round_steps;  ///< search steps of each round's misses

  double Throughput() const { return seconds > 0 ? decisions / seconds : 0; }
};

/// What the calls of a pass returned, by request id.
struct Ledger {
  uint64_t attempted = 0, failed = 0;
  std::vector<int8_t> verdict;        ///< -1 = not seen yet
  std::vector<uint64_t> miss_stats;   ///< StatsDigest of a miss; 0 = none
  std::vector<std::string> problems;  ///< the first few, for stderr

  explicit Ledger(size_t ids) : verdict(ids, -1), miss_stats(ids, 0) {}

  void Fail(const std::string& problem) {
    ++failed;
    if (problems.size() < 10) problems.push_back(problem);
  }

  /// Checks one decision; returns whether it was a cache miss.
  bool Observe(uint32_t id, const Decision& d);
};

uint64_t StatsDigest(const SearchStats& s) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (uint64_t v : {s.valuations, s.worlds, s.extensions, s.cc_checks,
                     s.query_evals}) {
    h = (h ^ v) * 0x100000001b3ULL;
  }
  return h | 1;  // never 0, the "none" marker
}

bool Ledger::Observe(uint32_t id, const Decision& d) {
  ++attempted;
  if (!d.status.ok()) {
    Fail("request " + std::to_string(id) + ": " + d.status.ToString());
    return false;
  }
  const int8_t answer = d.answer ? 1 : 0;
  if (verdict[id] < 0) {
    verdict[id] = answer;
  } else if (verdict[id] != answer) {
    Fail("request " + std::to_string(id) + " changed its verdict");
  }
  if (d.from_cache) return false;
  const uint64_t digest = StatsDigest(d.stats);
  if (miss_stats[id] == 0) {
    miss_stats[id] = digest;
  } else if (miss_stats[id] != digest) {
    Fail("request " + std::to_string(id) + " searched differently");
  }
  return true;
}

/// Replays calls on one client thread (see the file comment) and times
/// them, round by round.
class Replayer {
 public:
  Replayer(Tracer& tracer, Timing* timing, Ledger* ledger)
      : tracer_(tracer), timing_(timing), ledger_(ledger), slots_(kWindow) {}

  /// Optional work the client does between calls (a metrics scrape).
  void SetBetweenCalls(std::function<void()> hook) {
    between_ = std::move(hook);
  }

  /// Rounds are timed unless `timed` is false (warm-up): then their calls
  /// are only checked.
  void BeginRound(bool timed);
  /// Replays `calls` of `round` on `service`; returns when all are done.
  void Run(CompletenessService& service, ReadyRound& round,
           const std::vector<Call>& calls);
  /// Ends the round, spans it and parents every span it collected.
  void EndRound();
  /// Takes `seconds` of the benchmark's own work out of the round's time.
  void Exclude(double seconds) { excluded_s_ += seconds; }

  /// Spans recorded since the last TakeSpans() or round boundary.
  std::vector<int32_t> TakeSpans() { return std::move(spans_); }
  void AddSpan(int32_t span) { spans_.push_back(span); }

 private:
  struct Slot {
    uint32_t position = 0;
    uint64_t seq = 0;
    Clock::time_point submit, returned, finished;
    Decision decision;
  };

  /// Observes one decision of a call; returns whether it was a miss.
  bool Observe(uint32_t id, const Decision& d);
  /// Counts one finished call of `decisions` decisions.
  void Record(uint32_t decisions, CallClass cls, double latency_us);
  /// Takes finished SubmitAsync calls; blocks for one when `wait`.
  void Reap(const ReadyRound& round, bool wait);

  Tracer& tracer_;
  Timing* timing_;
  Ledger* ledger_;
  std::function<void()> between_;
  std::vector<Slot> slots_;
  std::vector<size_t> free_, reaped_;
  size_t outstanding_ = 0;
  uint64_t seq_ = 0;
  bool timed_ = false;
  Clock::time_point round_start_;
  double excluded_s_ = 0;
  std::vector<int32_t> spans_;
  std::vector<double> round_us_;
  uint64_t round_decisions_ = 0, round_steps_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<size_t> ready_;  // guarded by mu_
};

bool Replayer::Observe(uint32_t id, const Decision& d) {
  const bool miss = ledger_->Observe(id, d);
  if (miss) round_steps_ += d.stats.TotalSteps();
  return miss;
}

void Replayer::Record(uint32_t decisions, CallClass cls, double latency_us) {
  round_decisions_ += decisions;
  if (!timed_) return;
  timing_->calls.Add(latency_us);
  timing_->by_class[cls].Add(latency_us);
  round_us_.push_back(latency_us);
}

void Replayer::Reap(const ReadyRound& round, bool wait) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) cv_.wait(lock, [&] { return !ready_.empty(); });
    reaped_.swap(ready_);
  }
  for (size_t s : reaped_) {
    Slot& slot = slots_[s];
    const bool miss = Observe(round.ids[slot.position], slot.decision);
    Record(1, miss ? kAsyncMiss : kAsyncHit,
           Micros(slot.submit, slot.finished));
    if (timed_) timing_->admit.Add(Micros(slot.submit, slot.returned));
    if (tracer_.enabled()) {
      const uint32_t track = static_cast<uint32_t>(s + 1);
      const int32_t root = tracer_.Record("service.submit_async", slot.submit,
                                          slot.finished, Tracer::kNoParent,
                                          slot.seq, track);
      tracer_.Record("service.admit", slot.submit,
                     std::min(slot.returned, slot.finished), root, slot.seq,
                     track);
      spans_.push_back(root);
    }
    slot.decision = Decision();
    free_.push_back(s);
    --outstanding_;
  }
  reaped_.clear();
}

void Replayer::BeginRound(bool timed) {
  timed_ = timed;
  round_us_.clear();
  spans_.clear();
  round_decisions_ = 0;
  round_steps_ = 0;
  excluded_s_ = 0;
  round_start_ = Clock::now();
}

void Replayer::Run(CompletenessService& service, ReadyRound& round,
                   const std::vector<Call>& calls) {
  free_.clear();
  for (size_t i = 0; i < kWindow; ++i) free_.push_back(kWindow - 1 - i);
  size_t job = 0;
  for (const Call& call : calls) {
    if (between_) between_();
    if (call.kind == Call::kAsync) {
      while (free_.empty()) Reap(round, true);
      const size_t s = free_.back();
      free_.pop_back();
      Slot& slot = slots_[s];
      slot.position = call.first;
      slot.seq = seq_++;
      ++outstanding_;
      slot.submit = Clock::now();
      service.SubmitAsync(std::move(round.requests[call.first]),
                          [this, s](Decision decision) {
                            const Clock::time_point now = Clock::now();
                            std::lock_guard<std::mutex> lock(mu_);
                            slots_[s].finished = now;
                            slots_[s].decision = std::move(decision);
                            ready_.push_back(s);
                            cv_.notify_one();
                          });
      slot.returned = Clock::now();
    } else if (call.kind == Call::kDecide) {
      const Clock::time_point t = Clock::now();
      const Decision d = service.Decide(round.requests[call.first]);
      const Clock::time_point end = Clock::now();
      const bool miss = Observe(round.ids[call.first], d);
      Record(1, miss ? kDecideMiss : kDecideHit, Micros(t, end));
      spans_.push_back(tracer_.Record("service.decide", t, end,
                                      Tracer::kNoParent, seq_++));
    } else {
      const Clock::time_point t = Clock::now();
      const std::vector<Decision> ds = service.SubmitBatch(round.jobs[job++]);
      const Clock::time_point end = Clock::now();
      bool miss = false;
      for (uint32_t i = 0; i < call.count; ++i) {
        miss = Observe(round.ids[call.first + i], ds[i]) || miss;
      }
      Record(call.count, miss ? kBatchMiss : kBatchHit, Micros(t, end));
      if (timed_) timing_->batch_per_decision.Add(Micros(t, end) / call.count);
      spans_.push_back(tracer_.Record("service.submit_batch", t, end,
                                      Tracer::kNoParent, seq_++));
    }
    if (outstanding_ > 0) Reap(round, false);
  }
  while (outstanding_ > 0) Reap(round, true);
}

void Replayer::EndRound() {
  const Clock::time_point end = Clock::now();
  const int32_t span = tracer_.Record("bench.round", round_start_, end,
                                      Tracer::kNoParent, 0);
  for (int32_t child : spans_) tracer_.SetParent(child, span);
  spans_.clear();
  if (!timed_) return;
  const double seconds = Seconds(round_start_, end) - excluded_s_;
  timing_->seconds += seconds;
  timing_->decisions += round_decisions_;
  timing_->round_rates.push_back(round_decisions_ / seconds);
  timing_->round_steps.push_back(static_cast<double>(round_steps_));
  // The round's costliest call, and its top 1% of calls' share of the
  // time all its calls took.
  std::sort(round_us_.begin(), round_us_.end(), std::greater<double>());
  double all = 0, top = 0;
  const size_t top_n = (round_us_.size() + 99) / 100;
  for (size_t i = 0; i < round_us_.size(); ++i) {
    all += round_us_[i];
    if (i < top_n) top += round_us_[i];
  }
  timing_->round_max_us.push_back(round_us_.empty() ? 0 : round_us_[0]);
  timing_->round_top_share.push_back(all > 0 ? top / all : 0);
}

/// The request partition every service's counters must satisfy.
bool PartitionHolds(const EngineCounters& c) {
  return c.requests ==
         c.cache_hits + c.cache_misses + c.rejected + c.expired + c.cancelled;
}

/// Checks the partition on `service` in total and per tenant.
void CheckPartition(const CompletenessService& service,
                    const std::vector<SettingHandle>& handles, Ledger* ledger) {
  bool holds = PartitionHolds(service.TotalCounters());
  for (SettingHandle h : handles) {
    relcomp::Result<EngineCounters> c = service.counters(h);
    holds = holds && c.ok() && PartitionHolds(*c);
  }
  if (!holds) ledger->Fail("counter partition violated");
}

// ----------------------------------------------------------- workloads --

constexpr uint32_t kSearchTenants = 4;
constexpr uint32_t kSearchQueries = 1000, kSearchCtables = 1000;
constexpr uint32_t kSearchPerTenant = 1000;  // a round: 4000 requests

/// audit-search asks RCDP strong, RCDP viable and MINP strong in turn. RCDP
/// weak is left out: about one weak decision in a hundred walks every
/// single-tuple extension of several worlds and runs 50-250 times longer
/// than the rest, and no shape of queries or c-instances tried here bounded
/// that class. Its 0-7 members per round made a round's work move by up to
/// 15% between seeds, more than the host moves it between runs. The weak
/// decider is still served, in cheap form, by serve-mixed.
const ProblemKind kSearchKinds[] = {ProblemKind::kRcdpStrong,
                                    ProblemKind::kRcdpViable,
                                    ProblemKind::kMinpStrong};

/// Kinds whose cache key includes the c-instance (RCQP kinds leave it out).
const ProblemKind kInstanceKinds[] = {
    ProblemKind::kRcdpStrong, ProblemKind::kRcdpWeak,
    ProblemKind::kRcdpViable, ProblemKind::kMinpStrong,
    ProblemKind::kMinpViable, ProblemKind::kMinpWeak};

/// A workload served by one long-lived deployment: audit-search and
/// serve-mixed.
struct ServedWorkload {
  std::vector<std::string> texts;
  std::vector<ShardOptions> shards;
  ServiceOptions options;
  std::vector<RequestSpec> specs;  ///< every distinct request, by id
  std::vector<Call> calls;         ///< one round
  std::vector<uint32_t> ids;       ///< request id per round position
  /// Positions that take a first-time request in every round, with the
  /// tenant whose pool they draw from; pools[t] lists unused ids in order.
  std::vector<std::pair<uint32_t, uint32_t>> fresh;
  std::vector<std::vector<uint32_t>> pools;
  bool clear_between_rounds = false;  ///< every decision a cold miss
  std::vector<uint32_t> hot;  ///< primed into the set-up's snapshot
  bool scrape = false;        ///< DumpMetrics once a second
  int setup_reps = 5, warmup_rounds = 1, kept_rounds = 1;
  bool gate_every_request = false;  ///< else the probe sample
};


/// audit-search: four auditors, each with a small master relation, an IND
/// and a non-IND CC, and c-instances of 3-5 rows with 2 variables, asking
/// RCDP strong/viable and MINP strong. A round is 4000 distinct
/// requests through the SubmitAsync window, with every cache cleared
/// first, so decider search does the work.
ServedWorkload AuditSearch(uint64_t seed) {
  ServedWorkload w;
  Rng rng(seed * 0x100000001b3ULL + 11);
  w.options.num_workers = kWorkers;
  w.clear_between_rounds = true;
  w.setup_reps = 41;
  for (uint32_t t = 0; t < kSearchTenants; ++t) {
    TenantShape shape;
    shape.dm_rows = 6;  // plus every third patient twice: |Dm| = 8
    shape.non_ind_cc = true;
    shape.num_queries = kSearchQueries;
    shape.num_ctables = kSearchCtables;
    shape.ct_rows_min = 3;
    shape.ct_rows_max = 5;
    shape.ct_vars_min = 2;
    shape.ct_vars_max = 2;
    shape.open_vars = true;
    w.texts.push_back(
        GenerateTenant(shape, std::string(1, static_cast<char>('a' + t)), rng));
    // Each query and each c-instance at most once per tenant.
    std::vector<uint32_t> qs(kSearchQueries), cs(kSearchCtables);
    for (uint32_t i = 0; i < kSearchQueries; ++i) qs[i] = i;
    for (uint32_t i = 0; i < kSearchCtables; ++i) cs[i] = i;
    for (uint32_t i = 0; i < kSearchPerTenant; ++i) {
      std::swap(qs[i], qs[i + rng.Below(kSearchQueries - i)]);
      std::swap(cs[i], cs[i + rng.Below(kSearchCtables - i)]);
      w.specs.push_back(
          RequestSpec{t, qs[i], cs[i], kSearchKinds[i % 3], false});
    }
  }
  // Tenants interleaved: request i of every tenant, then i + 1.
  for (uint32_t i = 0; i < kSearchPerTenant; ++i) {
    for (uint32_t t = 0; t < kSearchTenants; ++t) {
      w.ids.push_back(t * kSearchPerTenant + i);
    }
  }
  for (uint32_t p = 0; p < w.ids.size(); ++p) {
    w.calls.push_back(Call{Call::kAsync, p, 1});
  }
  return w;
}

/// |Dm| per serve-mixed tenant: fixed sizes, so set-up and the cost of a
/// fresh decision do not swing with the seed; the seed varies contents.
const int kServeDmRows[] = {2000, 3000, 4500, 6500, 9500, 14000, 21000, 32000};
constexpr uint32_t kServeTenants = 8;
constexpr uint32_t kServeQueries = 64, kServeCtables = 64;
constexpr uint32_t kServeHotSubjects = 24;  // per tenant, x 8 kinds
constexpr uint32_t kServeBlocks = 4;        // a round: 4 blocks of 512

/// serve-mixed: eight tenants with |Dm| of 2k-32k and IND CCs only, under
/// weighted fair share with production observability. A round is 2048
/// cheap decisions of all 8 kinds: 15/16 Zipf repeats over a hot set that
/// the set-up restores from a snapshot, 1/16 first-time requests from a
/// pool that never repeats within a run. Per block of 512 decisions: 448
/// SubmitAsync calls, 32 Decide calls and one SubmitBatch job of 32 with 8
/// in-job duplicates; every kind of call gets its 1/16 of fresh requests.
ServedWorkload ServeMixed(uint64_t seed) {
  ServedWorkload w;
  Rng rng(seed * 0x100000001b3ULL + 22);
  w.options.num_workers = kWorkers;
  w.options.policy = relcomp::sched::SchedPolicy::kFairShare;
  w.options.trace_sample = 64;
  w.options.slow_log = 16;
  w.options.trace_ring = 256;
  w.options.recorder_interval_ms = 1000;
  w.scrape = true;
  w.setup_reps = 9;
  w.warmup_rounds = 8;
  w.kept_rounds = 8;
  w.gate_every_request = true;
  const std::vector<ProblemKind>& kinds = relcomp::AllProblemKinds();
  // hot_ids[t][subject][kind]
  std::vector<std::vector<uint32_t>> hot_ids(kServeTenants);
  w.pools.resize(kServeTenants);
  for (uint32_t t = 0; t < kServeTenants; ++t) {
    TenantShape shape;
    shape.dm_rows = kServeDmRows[t];
    shape.num_queries = kServeQueries;
    shape.num_ctables = kServeCtables;
    shape.ct_rows_min = 16;
    shape.ct_rows_max = 16;
    shape.ct_vars_min = 0;
    shape.ct_vars_max = 1;
    w.texts.push_back(
        GenerateTenant(shape, std::string(1, static_cast<char>('p' + t)), rng));
    ShardOptions shard;
    shard.weight = t % 4 + 1;
    // Room for the hot set and half as many fresh entries again: the
    // warm-up rounds fill it, and from then on fresh entries churn through
    // probation while the hot set stays resident.
    shard.cache_capacity = 3 * kServeHotSubjects * kinds.size() / 2;
    w.shards.push_back(shard);
    std::vector<uint32_t> subjects(kServeQueries * kServeCtables);
    for (uint32_t i = 0; i < subjects.size(); ++i) subjects[i] = i;
    for (size_t i = subjects.size(); i > 1; --i) {
      std::swap(subjects[i - 1], subjects[rng.Below(i)]);
    }
    for (uint32_t i = 0; i < kServeHotSubjects; ++i) {
      for (ProblemKind kind : kinds) {
        hot_ids[t].push_back(static_cast<uint32_t>(w.specs.size()));
        w.hot.push_back(hot_ids[t].back());
        w.specs.push_back(RequestSpec{t, subjects[i] / kServeCtables,
                                      subjects[i] % kServeCtables, kind,
                                      false});
      }
    }
    // The fresh pool: every other subject in every instance-keyed kind, in
    // a seeded order.
    for (size_t i = kServeHotSubjects; i < subjects.size(); ++i) {
      for (ProblemKind kind : kInstanceKinds) {
        w.pools[t].push_back(static_cast<uint32_t>(w.specs.size()));
        w.specs.push_back(RequestSpec{t, subjects[i] / kServeCtables,
                                      subjects[i] % kServeCtables, kind,
                                      false});
      }
    }
    std::vector<uint32_t>& pool = w.pools[t];
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.Below(i)]);
    }
  }
  // Zipf(1.1) over a tenant's hot subjects.
  std::vector<double> cdf;
  double total = 0;
  for (uint32_t r = 0; r < kServeHotSubjects; ++r) {
    total += 1.0 / std::pow(r + 1.0, 1.1);
    cdf.push_back(total);
  }
  uint32_t next_hot_tenant = 0, next_fresh = 0;
  std::vector<uint32_t> next_kind(kServeTenants, 0);
  auto hot_id = [&]() {
    const uint32_t t = next_hot_tenant++ % kServeTenants;
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
    const uint32_t subject = static_cast<uint32_t>(std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        kServeHotSubjects - 1));
    return hot_ids[t][subject * kinds.size() + next_kind[t]++ % kinds.size()];
  };
  // A third of the fresh requests go to the largest tenant, so the slowest
  // band of fresh decisions is wide enough to hold p98-p99.5.
  auto add_fresh = [&]() {
    const uint32_t i = next_fresh++;
    const uint32_t t = i % 3 == 0 ? kServeTenants - 1
                                  : (i - i / 3 - 1) % (kServeTenants - 1);
    w.fresh.emplace_back(static_cast<uint32_t>(w.ids.size()), t);
    w.ids.push_back(0);  // filled per round
  };
  for (uint32_t b = 0; b < kServeBlocks; ++b) {
    // 480 single calls: every 15th a Decide; calls 7, 22, 37, ... fresh.
    for (uint32_t i = 0; i < 480; ++i) {
      const uint32_t p = static_cast<uint32_t>(w.ids.size());
      if (i % 16 == 7) {
        add_fresh();
      } else {
        w.ids.push_back(hot_id());
      }
      w.calls.push_back(Call{i % 15 == 14 ? Call::kDecide : Call::kAsync, p, 1});
      if (i == 240) {
        // The block's batch job: 22 hot, 2 fresh, 8 duplicates.
        const uint32_t first = static_cast<uint32_t>(w.ids.size());
        for (uint32_t j = 0; j < 24; ++j) {
          if (j % 12 == 5) {
            add_fresh();
          } else {
            w.ids.push_back(hot_id());
          }
        }
        for (uint32_t j = 0; j < 8; ++j) {
          w.ids.push_back(w.ids[first + 3 * j]);
        }
        w.calls.push_back(Call{Call::kBatch, first, 32});
      }
    }
  }
  return w;
}

// -------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}


// ------------------------------------------------------ restart-churn --

constexpr size_t kChurnPool = 4;       // cycles per round
constexpr uint32_t kChurnTenants = 8;  // per cycle
constexpr uint32_t kChurnJob = 32;
constexpr uint32_t kChurnBulk = 512;   // cycle 0's whole-batch job
constexpr int kChurnSetups = 41;       // set-ups behind setup_s

/// One restart cycle: tenant programs, then two phases of SubmitBatch jobs.
/// Phase A asks 64 new requests in 2 jobs; after the restart, phase B asks
/// them again among 128 new ones, in 6 jobs. Cycle 0's phase B ends with
/// one more job of kChurnBulk new requests.
struct ChurnCycle {
  std::vector<std::string> texts;
  std::vector<uint32_t> ids_a, ids_b;
  std::vector<Call> calls_a, calls_b;
};

struct ChurnWorkload {
  std::vector<ChurnCycle> cycles;
  std::vector<RequestSpec> specs;  ///< every cycle's requests, by id
  ServiceOptions options;
};

/// restart-churn: the relcomp_cli lifecycle in a loop. Each cycle builds a
/// fresh service, parses and registers 8 small tenants, serves its phase A
/// jobs (a quarter of the requests want witnesses) under a cache budget
/// below the working set, saves the caches, restarts, loads them,
/// re-registers, serves phase B, and releases everything. A round is one
/// pass over a pool of kChurnPool generated cycles.
///
/// Once per round, cycle 0 also submits a whole batch of kChurnBulk
/// requests, the way relcomp_cli hands a workload file to SubmitBatch. It
/// is 1 call in 33 and several times slower than a job of 32, so p99 falls
/// inside the band of these calls rather than in the few jobs of 32 that a
/// stall of the host happened to hit.
ChurnWorkload RestartChurn(uint64_t seed) {
  ChurnWorkload w;
  Rng rng(seed * 0x100000001b3ULL + 33);
  w.options.num_workers = kWorkers;
  w.options.cache_budget_bytes = 48 * 1024;
  const std::vector<ProblemKind>& kinds = relcomp::AllProblemKinds();
  for (size_t c = 0; c < kChurnPool; ++c) {
    ChurnCycle cycle;
    std::vector<uint32_t> fresh, bulk;
    for (uint32_t t = 0; t < kChurnTenants; ++t) {
      TenantShape shape;
      shape.dm_rows = 800 + 200 * static_cast<int>(t);
      shape.num_queries = 24;
      shape.num_ctables = 24;
      shape.ct_rows_min = 2;
      shape.ct_rows_max = 4;
      shape.ct_vars_min = 0;
      shape.ct_vars_max = 1;
      cycle.texts.push_back(GenerateTenant(
          shape, "c" + std::to_string(c) + "t" + std::to_string(t) + "_", rng));
      // 24 distinct (query, c-instance, kind) triples of this tenant, and
      // in cycle 0 its share of the bulk job.
      std::vector<RequestSpec> all;
      for (uint32_t q = 0; q < 24; ++q) {
        for (uint32_t ct = 0; ct < 24; ++ct) {
          for (ProblemKind kind : kinds) {
            all.push_back(RequestSpec{t, q, ct, kind, false});
          }
        }
      }
      const size_t asked = 24 + (c == 0 ? kChurnBulk / kChurnTenants : 0);
      for (size_t i = 0; i < asked; ++i) {
        std::swap(all[i], all[i + rng.Below(all.size() - i)]);
        all[i].witness = i % 4 == 0;
        (i < 24 ? fresh : bulk).push_back(static_cast<uint32_t>(w.specs.size()));
        w.specs.push_back(all[i]);
      }
    }
    for (size_t i = fresh.size(); i > 1; --i) {
      std::swap(fresh[i - 1], fresh[rng.Below(i)]);
    }
    // Phase A: 2 jobs of new requests. Phase B: 6 jobs mixing A's requests
    // (restored hits unless the budget evicted them) with new ones, one of
    // A's in every third position.
    cycle.ids_a.assign(fresh.begin(), fresh.begin() + 64);
    for (uint32_t i = 0, a = 0, b = 64; i < 192; ++i) {
      cycle.ids_b.push_back(i % 3 == 0 ? cycle.ids_a[a++] : fresh[b++]);
    }
    for (uint32_t j = 0; j < 2; ++j) {
      cycle.calls_a.push_back(Call{Call::kBatch, j * kChurnJob, kChurnJob});
    }
    for (uint32_t j = 0; j < 6; ++j) {
      cycle.calls_b.push_back(Call{Call::kBatch, j * kChurnJob, kChurnJob});
    }
    if (!bulk.empty()) {
      for (size_t i = bulk.size(); i > 1; --i) {
        std::swap(bulk[i - 1], bulk[rng.Below(i)]);
      }
      cycle.calls_b.push_back(Call{Call::kBatch, 192, kChurnBulk});
      cycle.ids_b.insert(cycle.ids_b.end(), bulk.begin(), bulk.end());
    }
    w.cycles.push_back(std::move(cycle));
  }
  return w;
}

// -------------------------------------------------------------- probes --

/// Untimed per-layer probes: for each request, the calls the service makes
/// on its behalf, made directly and spanned, then the request itself as an
/// unloaded miss and as a hit.
struct ProbeResult {
  std::vector<double> fingerprint_us, adom_us, cc_us, evaluate_us, hit_us,
      overhead_us, admit_us;
  double batch_us_per_decision = 0;  ///< the probes as one cold batch
  SearchStats stats;  // summed over the probes
  size_t probes = 0;
};

/// A world of `ct` for the CC-check probe: every variable bound to its
/// first active-domain candidate.
relcomp::Instance FirstWorld(const relcomp::CInstance& ct,
                             const relcomp::AdomContext& adom) {
  relcomp::Valuation mu(ct.VarUniverseSize());
  for (const auto& [var, values] : relcomp::CInstanceVarCandidates(ct, adom)) {
    if (!values.empty()) mu.Bind(var, values.front());
  }
  relcomp::Result<relcomp::Instance> world = ct.Apply(mu);
  return world.ok() ? *world : relcomp::Instance(ct.schema());
}

ProbeResult Probe(Deployment& d, const std::vector<RequestSpec>& specs,
                  const std::vector<uint32_t>& ids, Tracer& tracer,
                  Ledger* ledger) {
  ProbeResult r;
  for (uint32_t id : ids) {
    const RequestSpec& spec = specs[id];
    const DecisionRequest request = Build(d.tenants, spec);
    const SettingHandle handle = d.handles[spec.tenant];
    relcomp::Result<relcomp::PreparedSetting> prepared =
        d.service->prepared(handle);
    if (!prepared.ok()) Die("prepared: " + prepared.status().ToString());
    std::vector<int32_t> kids;
    auto span = [&](const char* name, Clock::time_point start) {
      const Clock::time_point end = Clock::now();
      kids.push_back(tracer.Record(name, start, end, Tracer::kNoParent, id));
      return Micros(start, end);
    };
    const Clock::time_point root = Clock::now();

    Clock::time_point t = Clock::now();
    relcomp::Result<uint64_t> fp = d.service->FingerprintRequest(handle, request);
    r.fingerprint_us.push_back(span("service.fingerprint", t));
    if (!fp.ok()) ledger->Fail("FingerprintRequest: " + fp.status().ToString());

    t = Clock::now();
    const relcomp::AdomContext adom =
        prepared->BuildAdom(request.cinstance, &request.query);
    r.adom_us.push_back(span("core.adom_build", t));

    const relcomp::Instance world = FirstWorld(request.cinstance, adom);
    t = Clock::now();
    relcomp::Result<bool> sat = prepared->SatisfiesCCs(world);
    r.cc_us.push_back(span("core.cc_check", t));
    if (!sat.ok()) ledger->Fail("SatisfiesCCs: " + sat.status().ToString());

    t = Clock::now();
    const Decision direct = relcomp::EvaluateRequest(request, *prepared);
    const double evaluate_us = span("core.evaluate", t);
    r.evaluate_us.push_back(evaluate_us);
    if (!direct.status.ok()) ledger->Fail("EvaluateRequest failed");
    r.stats += direct.stats;
    ++r.probes;

    // The request through the service with nothing else in flight: a miss
    // after its cache is cleared, then a hit.
    if (!d.service->ClearCache(handle).ok()) ledger->Fail("ClearCache failed");
    t = Clock::now();
    std::future<Decision> pending =
        d.service->SubmitAsync(ServiceRequest{handle, request});
    r.admit_us.push_back(Micros(t, Clock::now()));
    const Decision miss = pending.get();
    const double miss_us = span("service.miss", t);
    r.overhead_us.push_back(miss_us - evaluate_us);
    if (miss.from_cache || StatsDigest(miss.stats) != StatsDigest(direct.stats) ||
        miss.answer != direct.answer) {
      ledger->Fail("request " + std::to_string(id) +
                   ": the service's search differs from EvaluateRequest's");
    }
    t = Clock::now();
    const Decision hit =
        d.service->SubmitAsync(ServiceRequest{handle, request}).get();
    const double hit_us = span("service.hit", t);
    if (hit.from_cache) r.hit_us.push_back(hit_us);
    if (!hit.status.ok() || hit.answer != direct.answer) {
      ledger->Fail("request " + std::to_string(id) + ": hit verdict differs");
    }
    const int32_t parent =
        tracer.Record("bench.probe", root, Clock::now(), Tracer::kNoParent, id);
    for (int32_t kid : kids) tracer.SetParent(kid, parent);
  }
  // The same requests as one SubmitBatch job on cleared caches.
  std::vector<ServiceRequest> job;
  for (uint32_t id : ids) {
    job.push_back(ServiceRequest{d.handles[specs[id].tenant],
                                 Build(d.tenants, specs[id])});
  }
  for (SettingHandle h : d.handles) {
    if (!d.service->ClearCache(h).ok()) ledger->Fail("ClearCache failed");
  }
  const Clock::time_point t = Clock::now();
  const std::vector<Decision> batch = d.service->SubmitBatch(job);
  const Clock::time_point end = Clock::now();
  tracer.Record("service.submit_batch", t, end, Tracer::kNoParent, 0);
  r.batch_us_per_decision = Micros(t, end) / std::max<size_t>(1, ids.size());
  for (const Decision& decision : batch) {
    if (!decision.status.ok()) ledger->Fail("probe batch failed");
  }
  return r;
}

/// The correctness gate: each of `ids` decided by DecideCold against what
/// the service answered (every occurrence must have agreed already, see
/// Ledger::Observe), and the search counts of its miss against DecideCold's.
/// DecideCold's borrowed setting is made once per tenant, so its constant
/// scan is not repeated for every request over a large master relation, and
/// the requests are split over kGateThreads threads.
constexpr size_t kGateThreads = 4;

void Gate(const std::vector<Tenant>& tenants,
          const std::vector<RequestSpec>& specs,
          const std::vector<uint32_t>& ids, Ledger* ledger) {
  std::vector<relcomp::PreparedSetting> cold;
  for (const Tenant& t : tenants) {
    cold.push_back(relcomp::PreparedSetting::Borrow(t.setting));
  }
  std::vector<std::vector<std::string>> failures(kGateThreads);
  auto check = [&](size_t part) {
    for (size_t i = part; i < ids.size(); i += kGateThreads) {
      const uint32_t id = ids[i];
      if (ledger->verdict[id] < 0) continue;  // never served
      const RequestSpec& spec = specs[id];
      const Decision expected =
          relcomp::EvaluateRequest(Build(tenants, spec), cold[spec.tenant]);
      if (!expected.status.ok() ||
          ledger->verdict[id] != (expected.answer ? 1 : 0)) {
        failures[part].push_back("request " + std::to_string(id) +
                                 ": verdict differs from DecideCold");
      } else if (ledger->miss_stats[id] != 0 &&
                 ledger->miss_stats[id] != StatsDigest(expected.stats)) {
        failures[part].push_back("request " + std::to_string(id) +
                                 ": search counts differ from DecideCold");
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t part = 0; part < kGateThreads; ++part) {
    threads.emplace_back(check, part);
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<std::string>& part : failures) {
    for (const std::string& failure : part) ledger->Fail(failure);
  }
}

/// The first `n` distinct ids of `ids`.
std::vector<uint32_t> FirstDistinct(const std::vector<uint32_t>& ids,
                                    size_t n) {
  std::vector<uint32_t> out;
  for (uint32_t id : ids) {
    if (out.size() == n) break;
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

// --------------------------------------------------------------- runs --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// A traced run splits its time between the untraced and the traced pass.
double PassSeconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

/// Service counters over a stretch of serving, summed over services.
struct LayerTally {
  uint64_t requests = 0, hits = 0, coalesced = 0, waited = 0, wait_micros = 0,
           max_wait_micros = 0, evictions = 0, admission_rejects = 0;
  std::vector<double> resident_bytes;

  /// Adds `after` minus `before` (max_wait is the lifetime maximum).
  void Add(const EngineCounters& before, const EngineCounters& after) {
    requests += after.requests - before.requests;
    hits += after.cache_hits - before.cache_hits;
    coalesced += after.coalesced - before.coalesced;
    waited += after.waited - before.waited;
    wait_micros += after.wait_micros - before.wait_micros;
    max_wait_micros = std::max(max_wait_micros, after.max_wait_micros);
    evictions += after.evictions - before.evictions;
    admission_rejects += after.admission_rejects - before.admission_rejects;
    resident_bytes.push_back(static_cast<double>(after.cache_bytes));
  }
};

/// One pass: its timed rounds and what the layers did during them.
struct Pass {
  Timing timing;
  LayerTally layers;
  double steal_pct = 0;
  std::vector<double> dump_ms, save_ms, load_ms, snapshot_bytes;
};

/// Set-up repetitions behind setup_s.
struct SetUps {
  std::vector<double> setup_s, parse_ms, prepare_ms, load_ms;
  void Add(const Deployment& d) {
    setup_s.push_back(d.setup_s);
    parse_ms.push_back(d.parse_s * 1e3);
    prepare_ms.push_back(d.register_s * 1e3);
    load_ms.push_back(d.load_s * 1e3);
  }
};

/// Steps the rounds of a pass: whole rounds until `seconds` have gone by.
class RoundClock {
 public:
  explicit RoundClock(double seconds)
      : start_(Clock::now()), seconds_(seconds) {}
  bool Another(size_t rounds_done) const {
    return rounds_done == 0 || Seconds(start_, Clock::now()) < seconds_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
};

/// Fills the fresh positions of a round's `ids` from the pools; false when
/// a pool is used up (the pass then ends early).
bool NextFresh(const ServedWorkload& w, std::vector<size_t>& cursor,
               std::vector<uint32_t>* ids) {
  for (const auto& [position, tenant] : w.fresh) {
    if (cursor[tenant] == w.pools[tenant].size()) return false;
    (*ids)[position] = w.pools[tenant][cursor[tenant]++];
  }
  return true;
}

/// One pass of a served workload on `d`: warm-up rounds, then timed rounds
/// for `seconds`. Spans are kept for the first kept_rounds timed rounds.
void ServePass(ServedWorkload& w, Deployment& d, double seconds,
               std::vector<size_t>& cursor, Tracer& tracer, Ledger* ledger,
               Pass* pass) {
  Replayer replayer(tracer, &pass->timing, ledger);
  Clock::time_point next_scrape = Clock::now() + std::chrono::seconds(1);
  if (w.scrape) {
    replayer.SetBetweenCalls([&] {
      const Clock::time_point now = Clock::now();
      if (now < next_scrape) return;
      next_scrape = now + std::chrono::seconds(1);
      const std::string dump = d.service->DumpMetrics();
      const Clock::time_point end = Clock::now();
      replayer.AddSpan(
          tracer.Record("obs.dump_metrics", now, end, Tracer::kNoParent, 0));
      pass->dump_ms.push_back(Seconds(now, end) * 1e3);
      if (dump.empty()) ledger->Fail("DumpMetrics returned nothing");
    });
  }
  ReadyRound round;
  auto prepare = [&]() {
    if (!NextFresh(w, cursor, &w.ids)) return false;
    if (w.clear_between_rounds) {
      for (SettingHandle h : d.handles) {
        if (!d.service->ClearCache(h).ok()) ledger->Fail("ClearCache failed");
      }
    }
    BuildRound(d.tenants, d.handles, w.specs, w.ids, w.calls, &round);
    return true;
  };
  const bool keeping = tracer.enabled();
  tracer.SetKeeping(false);
  for (int r = 0; r < w.warmup_rounds && prepare(); ++r) {
    replayer.BeginRound(false);
    replayer.Run(*d.service, round, w.calls);
    replayer.EndRound();
  }
  const EngineCounters before = d.service->TotalCounters();
  StealMeter steal;
  steal.Start();
  const RoundClock clock(seconds);
  for (size_t r = 0; clock.Another(r); ++r) {
    if (!prepare()) {
      std::printf("note: the fresh-request pool ran out after %zu rounds\n", r);
      break;
    }
    tracer.SetKeeping(keeping && static_cast<int>(r) < w.kept_rounds);
    replayer.BeginRound(true);
    replayer.Run(*d.service, round, w.calls);
    replayer.EndRound();
  }
  tracer.SetKeeping(true);
  pass->steal_pct = steal.Pct();
  pass->layers.Add(before, d.service->TotalCounters());
  CheckPartition(*d.service, d.handles, ledger);
}

/// Runs one restart cycle of `w` (see RestartChurn). Spans of the cycle's
/// calls hang under one bench.cycle span.
void RunCycle(const ChurnWorkload& w, size_t c, const std::string& snapshot,
              Replayer& replayer, Tracer& tracer, Ledger* ledger, Pass* pass) {
  const ChurnCycle& cycle = w.cycles[c];
  const Clock::time_point start = Clock::now();
  std::vector<int32_t> spans = replayer.TakeSpans();
  std::vector<int32_t> kids;
  Deployment d = Deploy(cycle.texts, w.options, {}, "", tracer, &kids);
  ReadyRound round;
  Clock::time_point t = Clock::now();
  BuildRound(d.tenants, d.handles, w.specs, cycle.ids_a, cycle.calls_a, &round);
  replayer.Exclude(d.own_s + Seconds(t, Clock::now()));
  EngineCounters before;
  replayer.Run(*d.service, round, cycle.calls_a);
  pass->layers.Add(before, d.service->TotalCounters());
  CheckPartition(*d.service, d.handles, ledger);
  const auto [save_ms, bytes] = Save(*d.service, snapshot, tracer, &kids);
  pass->save_ms.push_back(save_ms);
  pass->snapshot_bytes.push_back(bytes);

  // The restart: a new service loads the snapshot, then the same tenants
  // are parsed and registered again.
  const Clock::time_point release_start = Clock::now();
  d = Deployment();
  kids.push_back(tracer.Record("service.shutdown", release_start, Clock::now(),
                               Tracer::kNoParent, 0));
  d = Deploy(cycle.texts, w.options, {}, snapshot, tracer, &kids);
  pass->load_ms.push_back(d.load_s * 1e3);
  t = Clock::now();
  BuildRound(d.tenants, d.handles, w.specs, cycle.ids_b, cycle.calls_b, &round);
  replayer.Exclude(d.own_s + Seconds(t, Clock::now()));
  replayer.Run(*d.service, round, cycle.calls_b);
  pass->layers.Add(before, d.service->TotalCounters());
  CheckPartition(*d.service, d.handles, ledger);
  t = Clock::now();
  for (SettingHandle h : d.handles) {
    if (!d.service->ReleaseSetting(h).ok()) ledger->Fail("ReleaseSetting failed");
  }
  d = Deployment();
  const Clock::time_point end = Clock::now();
  kids.push_back(
      tracer.Record("service.shutdown", t, end, Tracer::kNoParent, 0));
  for (int32_t kid : replayer.TakeSpans()) kids.push_back(kid);
  const int32_t span =
      tracer.Record("bench.cycle", start, end, Tracer::kNoParent, c);
  for (int32_t kid : kids) tracer.SetParent(kid, span);
  spans.push_back(span);
  for (int32_t s : spans) replayer.AddSpan(s);
}

void ChurnPass(const ChurnWorkload& w, double seconds, int warmup_rounds,
               const std::string& snapshot, Tracer& tracer, Ledger* ledger,
               Pass* pass, int kept_rounds) {
  Replayer replayer(tracer, &pass->timing, ledger);
  const bool keeping = tracer.enabled();
  tracer.SetKeeping(false);
  Pass discarded;
  for (int r = 0; r < warmup_rounds; ++r) {
    replayer.BeginRound(false);
    for (size_t c = 0; c < w.cycles.size(); ++c) {
      RunCycle(w, c, snapshot, replayer, tracer, ledger, &discarded);
    }
    replayer.EndRound();
  }
  StealMeter steal;
  steal.Start();
  const RoundClock clock(seconds);
  for (size_t r = 0; clock.Another(r); ++r) {
    tracer.SetKeeping(keeping && static_cast<int>(r) < kept_rounds);
    replayer.BeginRound(true);
    for (size_t c = 0; c < w.cycles.size(); ++c) {
      RunCycle(w, c, snapshot, replayer, tracer, ledger, pass);
    }
    replayer.EndRound();
  }
  tracer.SetKeeping(true);
  pass->steal_pct = steal.Pct();
}


// ------------------------------------------------------------ results --

std::vector<Metric> EndToEnd(const Pass& pass, const SetUps& setups) {
  const Timing& t = pass.timing;
  return {
      {"throughput_rps", t.Throughput(), "1/s"},
      {"latency_p50_ms", t.calls.Quantile(0.50) / 1e3, "ms"},
      {"latency_p99_ms", t.calls.Quantile(0.99) / 1e3, "ms"},
      {"setup_s", Quantile(setups.setup_s, 0.5), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// The steadiness diagnostics of a pass, as text lines.
void PrintDiagnostics(const char* label, const Pass& pass,
                      const SetUps& setups) {
  const Timing& t = pass.timing;
  std::printf("%s: %zu rounds, %llu decisions in %.3f s; round_spread_pct "
              "%.2f; steal_pct %.2f\n",
              label, t.round_rates.size(),
              static_cast<unsigned long long>(t.decisions), t.seconds,
              SpreadPct(t.round_rates), pass.steal_pct);
  std::printf("  latency: %llu samples, %llu beyond p99; ms p45 %.4f p50 %.4f "
              "p55 %.4f | p98 %.4f p99 %.4f p99.5 %.4f\n",
              static_cast<unsigned long long>(t.calls.count()),
              static_cast<unsigned long long>(t.calls.Beyond(0.99)),
              t.calls.Quantile(0.45) / 1e3, t.calls.Quantile(0.50) / 1e3,
              t.calls.Quantile(0.55) / 1e3, t.calls.Quantile(0.98) / 1e3,
              t.calls.Quantile(0.99) / 1e3, t.calls.Quantile(0.995) / 1e3);
  if (t.calls.Beyond(0.99) < 10) {
    std::printf("  warning: fewer than 10 samples beyond p99; run longer\n");
  }
  for (int c = 0; c < kNumClasses; ++c) {
    const LatencyHistogram& h = t.by_class[c];
    if (h.count() == 0) continue;
    std::printf("  class %-11s %5.2f%% of calls; ms p5 %.4f p50 %.4f p95 "
                "%.4f\n",
                kClassNames[c], 100.0 * h.count() / t.calls.count(),
                h.Quantile(0.05) / 1e3, h.Quantile(0.5) / 1e3,
                h.Quantile(0.95) / 1e3);
  }
  auto quartiles = [](const std::vector<double>& v, double scale) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "p25 %.4f p50 %.4f p75 %.4f max %.4f",
                  Quantile(v, 0.25) * scale, Quantile(v, 0.5) * scale,
                  Quantile(v, 0.75) * scale, Quantile(v, 1.0) * scale);
    return std::string(buf);
  };
  std::printf("  per round: costliest call ms %s\n",
              quartiles(t.round_max_us, 1e-3).c_str());
  std::printf("  per round: top 1%% of calls' share of call time %%: %s\n",
              quartiles(t.round_top_share, 100).c_str());
  std::printf("  per round: search steps of its misses: %s\n",
              quartiles(t.round_steps, 1).c_str());
  std::printf("  set-up: %zu reps, s %s; spread %.2f%%\n",
              setups.setup_s.size(), quartiles(setups.setup_s, 1).c_str(),
              SpreadPct(setups.setup_s));
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const SetUps* setups;
  const Pass* untraced;
  const Pass* traced;
  const ProbeResult* probe;
  std::map<std::string, double> self_ms;  ///< by layer, before the probes
  double dump_ms;  ///< a probe DumpMetrics, when the rounds scraped none
};

std::vector<Metric> PerLayer(const LayerInputs& in) {
  const Pass& traced = *in.traced;
  const ProbeResult& probe = *in.probe;
  const LayerTally& c = traced.layers;
  const double n = probe.probes > 0 ? static_cast<double>(probe.probes) : 1.0;
  const double requests = c.requests > 0 ? static_cast<double>(c.requests) : 1;
  const Timing& t = traced.timing;
  const double untraced_rps = in.untraced->timing.Throughput();
  auto median = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  std::vector<Metric> m = {
      {"query.parse_ms", median(in.setups->parse_ms), "ms"},
      {"core.prepare_ms", median(in.setups->prepare_ms), "ms"},
      {"core.evaluate_us_p50", Quantile(probe.evaluate_us, 0.5), "us"},
      {"core.evaluate_us_p99", Quantile(probe.evaluate_us, 0.99), "us"},
      {"core.cc_check_us_p50", Quantile(probe.cc_us, 0.5), "us"},
      {"core.cc_checks_per_decision", probe.stats.cc_checks / n, "count"},
      {"core.query_evals_per_decision", probe.stats.query_evals / n, "count"},
      {"core.worlds_per_decision", probe.stats.worlds / n, "count"},
      {"core.valuations_per_decision", probe.stats.valuations / n, "count"},
      {"core.extensions_per_decision", probe.stats.extensions / n, "count"},
      {"core.adom_build_us_p50", Quantile(probe.adom_us, 0.5), "us"},
      {"service.admit_us_p50",
       t.admit.count() > 0 ? t.admit.Quantile(0.5) : Quantile(probe.admit_us, 0.5),
       "us"},
      {"service.hit_us_p50", Quantile(probe.hit_us, 0.5), "us"},
      {"service.fingerprint_us_p50", Quantile(probe.fingerprint_us, 0.5), "us"},
      {"service.overhead_us_p50", Quantile(probe.overhead_us, 0.5), "us"},
      {"service.batch_us_per_decision",
       t.batch_per_decision.count() > 0 ? t.batch_per_decision.Quantile(0.5)
                                        : probe.batch_us_per_decision,
       "us"},
      {"service.hit_ratio", c.hits / requests, "ratio"},
      {"service.coalesced_ratio", c.coalesced / requests, "ratio"},
      {"sched.wait_us_mean",
       c.waited > 0 ? static_cast<double>(c.wait_micros) / c.waited : 0.0,
       "us"},
      {"sched.wait_us_max", static_cast<double>(c.max_wait_micros), "us"},
      {"cache.evictions", static_cast<double>(c.evictions), "count"},
      {"cache.admission_rejects", static_cast<double>(c.admission_rejects),
       "count"},
      {"cache.resident_bytes", median(c.resident_bytes), "bytes"},
      {"cache.load_ms", median(traced.load_ms), "ms"},
      {"cache.save_ms", median(traced.save_ms), "ms"},
      {"cache.snapshot_bytes", median(traced.snapshot_bytes), "bytes"},
      {"obs.dump_metrics_ms",
       traced.dump_ms.empty() ? in.dump_ms : median(traced.dump_ms), "ms"},
  };
  for (const char* layer : {"query", "core", "service", "cache", "obs"}) {
    auto it = in.self_ms.find(layer);
    m.push_back({std::string(layer) + ".self_ms",
                 it == in.self_ms.end() ? 0.0 : it->second, "ms"});
  }
  m.push_back({"bench.trace_overhead_pct",
               untraced_rps > 0
                   ? 100.0 * (untraced_rps - t.Throughput()) / untraced_rps
                   : 0.0,
               "%"});
  m.push_back({"bench.round_spread_pct",
               SpreadPct(in.untraced->timing.round_rates), "%"});
  m.push_back({"bench.steal_pct", in.untraced->steal_pct, "%"});
  return m;
}

int Finish(const Args& args, const Ledger& ledger,
           const std::vector<Metric>& metrics) {
  for (const std::string& problem : ledger.problems) {
    std::fprintf(stderr, "relcomp_perfbench: %s\n", problem.c_str());
  }
  std::printf("workload %s seed %llu trace %d: %llu decisions, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  const bool correct = ledger.failed == 0;
  PrintResult(correct, std::max<uint64_t>(ledger.attempted, 1), ledger.failed,
              metrics);
  return correct ? 0 : 1;
}

void WriteTrace(const Args& args, const Tracer& tracer) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  out << tracer.ChromeJson();
  if (!out) Die("cannot write " + path);
  std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
}

/// DumpMetrics once, spanned; returns milliseconds.
double ProbeDump(const CompletenessService& service, Tracer& tracer) {
  const Clock::time_point t = Clock::now();
  const std::string dump = service.DumpMetrics();
  const Clock::time_point end = Clock::now();
  tracer.Record("obs.dump_metrics", t, end, Tracer::kNoParent, 0);
  return Seconds(t, end) * 1e3;
}

/// Serves `calls` once on `d`, untimed, and saves its caches to `path`:
/// the snapshot a warm set-up loads.
void Prime(Deployment& d, const std::vector<RequestSpec>& specs,
           const std::vector<uint32_t>& ids, const std::vector<Call>& calls,
           const std::string& path, Ledger* ledger) {
  Tracer off(false);
  ReadyRound round;
  BuildRound(d.tenants, d.handles, specs, ids, calls, &round);
  Timing unused;
  Replayer replayer(off, &unused, ledger);
  replayer.BeginRound(false);
  replayer.Run(*d.service, round, calls);
  replayer.EndRound();
  CheckPartition(*d.service, d.handles, ledger);
  Save(*d.service, path, off);
}

int RunServed(const Args& args, ServedWorkload& w) {
  Tracer off(false);
  Ledger ledger(w.specs.size());
  std::vector<size_t> cursor(w.pools.size(), 0);
  const std::string snapshot =
      args.out_dir + "/snapshot-" + args.workload + ".rccs";
  // The hot set's snapshot, written by an untimed priming service.
  std::string setup_snapshot;
  if (!w.hot.empty()) {
    Deployment d = Deploy(w.texts, w.options, w.shards, "", off);
    std::vector<Call> calls;
    for (uint32_t p = 0; p < w.hot.size(); p += 32) {
      calls.push_back(Call{Call::kBatch, p,
                           std::min<uint32_t>(32, w.hot.size() - p)});
    }
    Prime(d, w.specs, w.hot, calls, snapshot, &ledger);
    setup_snapshot = snapshot;
  }
  SetUps setups;
  Deployment d;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    d = Deployment();  // tear the previous service down before timing
    d = Deploy(w.texts, w.options, w.shards, setup_snapshot, off);
    setups.Add(d);
  }
  Pass untraced;
  ServePass(w, d, PassSeconds(args), cursor, off, &ledger, &untraced);
  PrintDiagnostics("untraced pass", untraced, setups);
  // The probes revisit round 0, whose fresh requests are the first of
  // each pool, so the sample does not depend on how many rounds ran.
  std::vector<uint32_t> round0 = w.ids;
  std::vector<size_t> start(w.pools.size(), 0);
  NextFresh(w, start, &round0);
  const std::vector<uint32_t> probe_ids = FirstDistinct(round0, kProbes);
  auto gate_ids = [&]() {
    if (!w.gate_every_request) return probe_ids;
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < ledger.verdict.size(); ++id) {
      if (ledger.verdict[id] >= 0) ids.push_back(id);
    }
    return ids;
  };
  if (!args.trace) {
    Gate(d.tenants, w.specs, gate_ids(), &ledger);
    return Finish(args, ledger, EndToEnd(untraced, setups));
  }
  d = Deployment();

  Tracer tracer(true);
  Deployment traced_d =
      Deploy(w.texts, w.options, w.shards, setup_snapshot, tracer);
  Pass traced;
  ServePass(w, traced_d, PassSeconds(args), cursor, tracer, &ledger, &traced);
  PrintDiagnostics("traced pass", traced, setups);
  const std::map<std::string, double> self_ms = tracer.SelfTimeMsByLayer();
  const ProbeResult probe =
      Probe(traced_d, w.specs, probe_ids, tracer, &ledger);
  const double dump_ms = ProbeDump(*traced_d.service, tracer);
  const auto [save_ms, bytes] = Save(*traced_d.service, snapshot, tracer);
  traced.save_ms.push_back(save_ms);
  traced.snapshot_bytes.push_back(bytes);
  traced.load_ms = setups.load_ms;
  if (setup_snapshot.empty()) {
    CompletenessService restarted(w.options);
    const Clock::time_point t = Clock::now();
    relcomp::Result<size_t> loaded = restarted.LoadCaches(snapshot);
    const Clock::time_point end = Clock::now();
    tracer.Record("cache.load", t, end, Tracer::kNoParent, 0);
    if (!loaded.ok()) ledger.Fail("LoadCaches: " + loaded.status().ToString());
    traced.load_ms = {Seconds(t, end) * 1e3};
  }
  CheckPartition(*traced_d.service, traced_d.handles, &ledger);
  Gate(traced_d.tenants, w.specs, gate_ids(), &ledger);
  const std::vector<Metric> metrics =
      PerLayer({&setups, &untraced, &traced, &probe, self_ms, dump_ms});
  WriteTrace(args, tracer);
  return Finish(args, ledger, metrics);
}

int RunChurn(const Args& args, const ChurnWorkload& w) {
  Tracer off(false);
  Ledger ledger(w.specs.size());
  const std::string snapshot =
      args.out_dir + "/snapshot-" + args.workload + ".rccs";
  const std::string setup_snapshot =
      args.out_dir + "/snapshot-" + args.workload + "-setup.rccs";
  const ChurnCycle& first = w.cycles[0];
  std::vector<uint32_t> cycle_ids = first.ids_a;
  cycle_ids.insert(cycle_ids.end(), first.ids_b.begin(), first.ids_b.end());
  cycle_ids = FirstDistinct(cycle_ids, cycle_ids.size());
  {
    // The warm restart's snapshot: cycle 0's phase A, untimed.
    Deployment d = Deploy(first.texts, w.options, {}, "", off);
    Prime(d, w.specs, first.ids_a, first.calls_a, setup_snapshot, &ledger);
  }
  SetUps setups;
  for (int rep = 0; rep < kChurnSetups; ++rep) {
    setups.Add(Deploy(first.texts, w.options, {}, setup_snapshot, off));
  }
  Pass untraced;
  ChurnPass(w, PassSeconds(args), 1, snapshot, off, &ledger, &untraced, 0);
  PrintDiagnostics("untraced pass", untraced, setups);
  Deployment cycle0 = Deploy(first.texts, w.options, {}, "", off);
  if (!args.trace) {
    Gate(cycle0.tenants, w.specs, cycle_ids, &ledger);
    return Finish(args, ledger, EndToEnd(untraced, setups));
  }
  Tracer tracer(true);
  Pass traced;
  ChurnPass(w, PassSeconds(args), 0, snapshot, tracer, &ledger, &traced, 2);
  PrintDiagnostics("traced pass", traced, setups);
  const std::map<std::string, double> self_ms = tracer.SelfTimeMsByLayer();
  const ProbeResult probe = Probe(
      cycle0, w.specs, FirstDistinct(cycle_ids, kProbes), tracer, &ledger);
  const double dump_ms = ProbeDump(*cycle0.service, tracer);
  CheckPartition(*cycle0.service, cycle0.handles, &ledger);
  Gate(cycle0.tenants, w.specs, cycle_ids, &ledger);
  const std::vector<Metric> metrics =
      PerLayer({&setups, &untraced, &traced, &probe, self_ms, dump_ms});
  WriteTrace(args, tracer);
  return Finish(args, ledger, metrics);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.workload == "audit-search") {
    ServedWorkload w = AuditSearch(args.seed);
    return RunServed(args, w);
  }
  if (args.workload == "serve-mixed") {
    ServedWorkload w = ServeMixed(args.seed);
    return RunServed(args, w);
  }
  if (args.workload == "restart-churn") {
    return RunChurn(args, RestartChurn(args.seed));
  }
  Die("unknown workload '" + args.workload +
      "' (audit-search, serve-mixed, restart-churn)");
}
