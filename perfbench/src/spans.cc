#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int32_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int32_t parent, uint64_t request,
                       uint32_t track) {
  if (!enabled_) return kNoParent;
  if (!keeping_) {
    if (dropped_.size() == 4096) dropped_.clear();
    dropped_.push_back(Span{name, Ns(start), Ns(end), parent, request, track});
    return kNoParent;
  }
  spans_.push_back(Span{name, Ns(start), Ns(end), parent, request, track});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::SetParent(int32_t span, int32_t parent) {
  if (span >= 0) spans_[static_cast<size_t>(span)].parent = parent;
}

std::map<std::string, double> Tracer::SelfTimeMsByLayer() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Covered = the union of the children's intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = s.start_ns;
    for (const auto& [from, to] : kids) {
      const int64_t lo = std::max(from, cursor), hi = std::min(to, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  name.substr(0, name.find('.')).c_str(), s.track,
                  s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  return out + "]}\n";
}

}  // namespace perfbench
