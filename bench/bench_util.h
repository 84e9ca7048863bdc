// Shared helpers for the relcomp service benchmarks.
#ifndef RELCOMP_BENCH_BENCH_UTIL_H_
#define RELCOMP_BENCH_BENCH_UTIL_H_

#include <vector>

#include "service/service.h"

namespace relcomp {
namespace bench {

/// A workload addressed to one registered setting.
inline std::vector<ServiceRequest> ForSetting(
    SettingHandle handle, const std::vector<DecisionRequest>& workload) {
  std::vector<ServiceRequest> batch;
  batch.reserve(workload.size());
  for (const DecisionRequest& request : workload) {
    batch.push_back(ServiceRequest{handle, request});
  }
  return batch;
}

}  // namespace bench
}  // namespace relcomp

#endif  // RELCOMP_BENCH_BENCH_UTIL_H_
