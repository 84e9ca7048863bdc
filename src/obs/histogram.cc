#include "obs/histogram.h"

#include <algorithm>
#include <sstream>

namespace relcomp {
namespace obs {

namespace {

// bit_width(v): position of the highest set bit, 1-based; 0 for v == 0.
// (std::bit_width is C++20; this repo targets C++17.)
inline int BitWidth(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return v == 0 ? 0 : 64 - __builtin_clzll(v);
#else
  int width = 0;
  while (v != 0) {
    ++width;
    v >>= 1;
  }
  return width;
#endif
}

}  // namespace

int HistogramData::BucketIndex(uint64_t value) { return BitWidth(value); }

uint64_t HistogramData::BucketLowerBound(int index) {
  if (index <= 0) return 0;
  return uint64_t{1} << (index - 1);
}

uint64_t HistogramData::BucketUpperBound(int index) {
  if (index <= 0) return 0;
  if (index >= 64) return ~uint64_t{0};
  return (uint64_t{1} << index) - 1;
}

HistogramData& HistogramData::Merge(const HistogramData& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  return *this;
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Target rank in [1, count]; ceil(q * count) with a floor of 1 so that
  // q=0 still names the first recorded value's bucket.
  const double target = std::max(1.0, q * static_cast<double>(count));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      // Interpolate within the half-open bucket [lo, 2*lo); bucket 0 is the
      // single value 0. Cap the interpolated point at the observed max so a
      // lone sample never reports above itself.
      if (i == 0) return 0.0;
      const double width = lo;  // [2^(k-1), 2^k) spans 2^(k-1)
      const double into =
          (target - static_cast<double>(before)) /
          static_cast<double>(buckets[i]);
      const double estimate = lo + into * width;
      return std::min(estimate, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

std::string HistogramData::ToString() const {
  std::ostringstream out;
  out << "count=" << count << " sum=" << sum
      << " p50=" << static_cast<uint64_t>(Quantile(0.50))
      << " p95=" << static_cast<uint64_t>(Quantile(0.95))
      << " p99=" << static_cast<uint64_t>(Quantile(0.99)) << " max=" << max;
  return out.str();
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  for (int i = 0; i < HistogramData::kNumBuckets; ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    data.count += data.buckets[i];
  }
  data.sum = sum_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  return data;
}

}  // namespace obs
}  // namespace relcomp
