#include "obs/recorder.h"

#include <algorithm>
#include <cstdio>

namespace relcomp {
namespace obs {

void ActiveEvaluations::Registration::Reset() {
  if (registry_ != nullptr && record_ != nullptr) {
    registry_->Unregister(record_.get());
  }
  registry_ = nullptr;
  record_.reset();
}

ActiveEvaluations::Registration ActiveEvaluations::Register(
    std::string tenant, std::string kind, uint64_t trace_id,
    Clock::time_point now) {
  std::shared_ptr<Record> record;
  {
    MutexLock lock(mu_);
    record = std::make_shared<Record>(next_id_++, std::move(tenant),
                                      std::move(kind), trace_id, now);
    records_.push_back(record);
  }
  return Registration(this, std::move(record));
}

void ActiveEvaluations::Unregister(const Record* record) {
  MutexLock lock(mu_);
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [record](const std::shared_ptr<Record>& r) {
                                  return r.get() == record;
                                }),
                 records_.end());
}

std::vector<std::shared_ptr<ActiveEvaluations::Record>>
ActiveEvaluations::Snapshot() const {
  MutexLock lock(mu_);
  return records_;
}

size_t ActiveEvaluations::size() const {
  MutexLock lock(mu_);
  return records_.size();
}

namespace {

// The published report lives behind the shared_ptr atomic free functions
// (C++17 has no std::atomic<shared_ptr>): the watchdog thread swaps in a
// freshly rendered string; the abort hook loads whatever is current and
// fwrites it. No relcomp::Mutex anywhere on the dump path, so the hook is
// safe to run while the dying thread holds arbitrary ranked locks.
std::shared_ptr<const std::string>& AbortReportSlot() {
  static std::shared_ptr<const std::string> slot;
  return slot;
}

}  // namespace

void PublishAbortReport(std::string report) {
  std::atomic_store(&AbortReportSlot(),
                    std::make_shared<const std::string>(std::move(report)));
}

void DumpPublishedAbortReport() {
  const std::shared_ptr<const std::string> report =
      std::atomic_load(&AbortReportSlot());
  if (report != nullptr && !report->empty()) {
    std::fprintf(stderr, "\n--- relcomp abort report (last render) ---\n");
    std::fwrite(report->data(), 1, report->size(), stderr);
    std::fprintf(stderr, "--- end abort report ---\n");
  }
}

void InstallAbortReportHook() {
  SetLockRankAbortHook(&DumpPublishedAbortReport);
}

}  // namespace obs
}  // namespace relcomp
