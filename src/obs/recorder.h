// Stall watchdog support: the forensics layer that can answer "which
// evaluation is stuck right now" and "what was the system doing when it
// died".
//
// Two pieces:
//   ActiveEvaluations — a registry of currently-running evaluations. Each
//     evaluation registers an atomic heartbeat record (loop tag + step
//     count + last-heartbeat time) for its lifetime; the evaluating thread
//     updates it with relaxed stores from the checkpoint progress hook
//     (lock-free hot path), and the watchdog thread scans a snapshot to
//     flag records whose heartbeat has not moved past a threshold.
//   PublishAbortReport / DumpPublishedAbortReport — a pre-rendered report
//     string swapped in atomically by the watchdog thread and written to
//     stderr from the lock-rank abort hook. The abort path must not lock
//     or allocate, so the report is rendered *ahead of time*; the hook
//     just fwrites whatever snapshot was current when the process began
//     dying.
#ifndef RELCOMP_OBS_RECORDER_H_
#define RELCOMP_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace relcomp {
namespace obs {

/// The registry of running evaluations. Registration/deregistration lock
/// a leaf mutex; heartbeats are relaxed atomic stores on the record.
class ActiveEvaluations {
 public:
  using Clock = std::chrono::steady_clock;

  /// One running evaluation's heartbeat surface. The const identity
  /// fields are written once at registration; the atomics are updated by
  /// the evaluating thread and read by the watchdog without locks.
  struct Record {
    Record(uint64_t id, std::string tenant_in, std::string kind_in,
           uint64_t trace_id_in, Clock::time_point start_in)
        : id(id),
          tenant(std::move(tenant_in)),
          kind(std::move(kind_in)),
          trace_id(trace_id_in),
          start(start_in),
          last_heartbeat(start_in.time_since_epoch().count()) {}

    const uint64_t id;
    const std::string tenant;
    const std::string kind;
    const uint64_t trace_id;  ///< 0 when unsampled
    const Clock::time_point start;

    std::atomic<uint64_t> steps{0};
    /// The loop tag last heartbeat'd (string literal from the checkpoint).
    std::atomic<const char*> loop{nullptr};
    /// steady-clock duration-since-epoch count of the last heartbeat.
    std::atomic<Clock::rep> last_heartbeat;
    /// Set (once) by the watchdog when the record trips the stall
    /// threshold, so one stall is flagged exactly once.
    std::atomic<bool> flagged{false};

    void Heartbeat(const char* loop_tag, uint64_t step_count,
                   Clock::time_point now = Clock::now()) {
      loop.store(loop_tag, std::memory_order_relaxed);
      steps.store(step_count, std::memory_order_relaxed);
      last_heartbeat.store(now.time_since_epoch().count(),
                           std::memory_order_relaxed);
    }
  };

  /// RAII registration: the record stays in the registry until the handle
  /// dies (i.e. for exactly the evaluation's duration).
  class Registration {
   public:
    Registration() = default;
    Registration(ActiveEvaluations* registry, std::shared_ptr<Record> record)
        : registry_(registry), record_(std::move(record)) {}
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept {
      Reset();
      registry_ = other.registry_;
      record_ = std::move(other.record_);
      other.registry_ = nullptr;
      return *this;
    }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { Reset(); }

    Record* record() const { return record_.get(); }

   private:
    void Reset();

    ActiveEvaluations* registry_ = nullptr;
    std::shared_ptr<Record> record_;
  };

  Registration Register(std::string tenant, std::string kind,
                        uint64_t trace_id,
                        Clock::time_point now = Clock::now());

  /// Copies of the live records (the records themselves, not snapshots —
  /// callers read the atomics after the registry lock is released).
  std::vector<std::shared_ptr<Record>> Snapshot() const;

  size_t size() const;

 private:
  void Unregister(const Record* record);

  mutable Mutex mu_{LockRank::kObsActive, "ActiveEvaluations::mu_"};
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::vector<std::shared_ptr<Record>> records_ GUARDED_BY(mu_);
};

/// Swaps in the pre-rendered last-gasp report the lock-rank abort hook
/// writes to stderr. Call InstallAbortReportHook() once (idempotent) to
/// register the dump with util/mutex's abort path; then publish a fresh
/// report whenever the vitals it shows may have moved.
void PublishAbortReport(std::string report);
/// Writes the current published report to stderr. Lock-free: one atomic
/// shared_ptr load + fwrite. Safe to call from the abort path.
void DumpPublishedAbortReport();
void InstallAbortReportHook();

}  // namespace obs
}  // namespace relcomp

#endif  // RELCOMP_OBS_RECORDER_H_
