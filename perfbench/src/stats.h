// Measurement helpers of the relcomp end-to-end benchmark: a bounded
// latency histogram, exact quantiles of small samples, per-round rates and
// the host's steal share from /proc/stat.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);
double Micros(Clock::time_point from, Clock::time_point to);

/// The q-quantile of `v` by the nearest-rank rule (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Interquartile range over median, in percent (0 when the median is 0).
double SpreadPct(const std::vector<double>& v);

/// Latencies on a log scale with 0.2% wide buckets from 0.1 us to about
/// 100 s: fixed memory whatever the number of samples, and quantiles that
/// interpolate within a bucket, so they keep every digit a run measured.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(double micros);
  uint64_t count() const { return count_; }

  /// The q-quantile in microseconds, by rank ceil(q * count).
  double Quantile(double q) const;

  /// Samples strictly above the q-quantile's rank.
  uint64_t Beyond(double q) const;

 private:
  static constexpr double kMinMicros = 0.1;
  static constexpr double kRatio = 1.002;
  size_t Bucket(double micros) const;
  double Lower(size_t bucket) const;

  double log_ratio_;
  uint64_t count_ = 0;
  std::vector<uint64_t> buckets_;
};

/// CPU time the host took from this guest (steal) over an interval, as a
/// share of all CPU time, from the first line of /proc/stat.
class StealMeter {
 public:
  void Start() { start_ = Read(); }
  /// Percent since Start(); 0 when /proc/stat is unreadable.
  double Pct() const;

 private:
  struct Sample {
    uint64_t steal = 0, total = 0;
  };
  static Sample Read();
  Sample start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
