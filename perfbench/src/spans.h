// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer's public functions. Each span carries a name whose
// prefix before the first '.' is the layer ("core.evaluate" → core), start
// and end times, the index of the span that caused it, and the request it
// belongs to. Spans are kept in memory and written out once, as Chrome
// trace_event JSON that ui.perfetto.dev loads.
//
// Spans may be recorded and then dropped (SetKeeping(false)): a traced pass
// pays the same recording cost in every round, but keeps the spans of a
// fixed amount of work only, so the self times it reports compare across
// runs and its memory stays bounded.
//
// The tracer is not thread-safe: the benchmark records every span from its
// one client thread (completion times taken on worker threads are handed
// back to it first).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  /// A disabled tracer records nothing and returns kNoParent ids.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records a finished span; returns its id for use as a parent. `track`
  /// picks the timeline row (spans on one track must nest).
  int32_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int32_t parent, uint64_t request,
                 uint32_t track = 0);

  /// Whether recorded spans are kept (the default) or dropped after being
  /// recorded. Ids of dropped spans are not valid parents.
  void SetKeeping(bool keep) { keeping_ = keep; }
  bool enabled() const { return enabled_; }

  /// Re-parents an already recorded span (a child may be recorded before
  /// the span that encloses it is complete).
  void SetParent(int32_t span, int32_t parent);

  /// Per-layer self time in milliseconds: each span's duration minus the
  /// part of it its children cover, summed by layer.
  std::map<std::string, double> SelfTimeMsByLayer() const;

  /// The spans as a Chrome trace_event document.
  std::string ChromeJson() const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns, end_ns;
    int32_t parent;
    uint64_t request;
    uint32_t track;
  };

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const bool enabled_;
  bool keeping_ = true;
  std::vector<Span> dropped_;  // reused scratch of spans not kept
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
