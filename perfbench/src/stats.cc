#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double SpreadPct(const std::vector<double>& v) {
  const double median = Quantile(v, 0.5);
  if (median == 0) return 0.0;
  return 100.0 * (Quantile(v, 0.75) - Quantile(v, 0.25)) / median;
}

LatencyHistogram::LatencyHistogram() : log_ratio_(std::log(kRatio)) {
  buckets_.resize(Bucket(1e8) + 1);
}

size_t LatencyHistogram::Bucket(double micros) const {
  if (!(micros > kMinMicros)) return 0;
  return static_cast<size_t>(std::log(micros / kMinMicros) / log_ratio_);
}

double LatencyHistogram::Lower(size_t bucket) const {
  return kMinMicros * std::exp(static_cast<double>(bucket) * log_ratio_);
}

void LatencyHistogram::Add(double micros) {
  ++count_;
  ++buckets_[std::min(Bucket(micros), buckets_.size() - 1)];
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, std::min<uint64_t>(count_, static_cast<uint64_t>(std::ceil(q * count_))));
  uint64_t below = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (below + buckets_[b] >= rank) {
      // The rank's position inside its bucket, spread evenly over it.
      const double frac = (rank - below - 0.5) / static_cast<double>(buckets_[b]);
      return Lower(b) + frac * (Lower(b + 1) - Lower(b));
    }
    below += buckets_[b];
  }
  return Lower(buckets_.size());
}

uint64_t LatencyHistogram::Beyond(double q) const {
  const uint64_t rank = static_cast<uint64_t>(std::ceil(q * count_));
  return count_ - std::min(rank, count_);
}

StealMeter::Sample StealMeter::Read() {
  Sample s;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return s;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  // cpu  user nice system idle iowait irq softirq steal ...
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) s.total += x;
    s.steal = v[7];
  }
  std::fclose(f);
  return s;
}

double StealMeter::Pct() const {
  const Sample now = Read();
  const uint64_t total = now.total - start_.total;
  return total == 0 ? 0.0 : 100.0 * (now.steal - start_.steal) / total;
}

}  // namespace perfbench
