// Log-bucketed latency histograms: the distribution primitive behind every
// quantile the service reports. Values (microseconds in practice, but any
// uint64 works) land in fixed power-of-two buckets — bucket 0 holds the
// value 0, bucket k holds [2^(k-1), 2^k) — so recording is branch-light and
// two histograms recorded on different machines, threads, or processes
// merge by plain bucket-wise addition (merging is associative and
// commutative, which is what makes per-shard → service-wide → fleet-wide
// rollups sound). Quantiles (p50/p95/p99) are estimated by walking the
// cumulative bucket counts and interpolating linearly inside the bucket
// containing the target rank, so the estimate is never off by more than
// the bucket's width (a factor of two at worst — the price of O(1) memory).
//
// Two types split the concurrency concern:
//   Histogram     — the live recording surface: fixed atomic counters,
//                   relaxed increments, no locks, safe for any number of
//                   concurrent writers (the "lock-cheap" hot-path type).
//   HistogramData — a plain snapshot: mergeable, quantile-queryable, cheap
//                   to copy; what expositions and tests operate on.
#ifndef RELCOMP_OBS_HISTOGRAM_H_
#define RELCOMP_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace relcomp {
namespace obs {

/// A plain, copyable histogram snapshot. All the math (bucket geometry,
/// merge, quantile estimation) lives here so it can be tested without
/// touching atomics.
struct HistogramData {
  /// Bucket 0 holds the value 0; bucket k (1..64) holds [2^(k-1), 2^k).
  static constexpr int kNumBuckets = 65;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  /// The bucket a value lands in: 0 for 0, else bit_width(value).
  static int BucketIndex(uint64_t value);
  /// Smallest value belonging to bucket `index` (0 for bucket 0).
  static uint64_t BucketLowerBound(int index);
  /// Largest value belonging to bucket `index` (inclusive).
  static uint64_t BucketUpperBound(int index);

  /// Bucket-wise addition; associative and commutative (max merges by max).
  HistogramData& Merge(const HistogramData& other);

  /// Estimated value at quantile q in [0, 1]: walks the cumulative counts
  /// to the bucket containing the target rank and interpolates linearly
  /// within it. 0 when empty. The estimate is exact for single-bucket
  /// distributions and within one bucket width otherwise.
  double Quantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }

  /// "count=N sum=S p50=... p95=... p99=... max=M" — the human summary.
  std::string ToString() const;
};

/// The live recording surface: fixed-size atomic buckets, relaxed
/// increments, wait-free for writers. Snapshot() produces a HistogramData
/// whose count is the sum of the buckets it read, so count and buckets
/// always agree (quantile ranks stay reachable, and the Prometheus +Inf
/// bucket equals _count); sum and max may skew from them by the records in
/// flight.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[HistogramData::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramData Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, HistogramData::kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace obs
}  // namespace relcomp

#endif  // RELCOMP_OBS_HISTOGRAM_H_
