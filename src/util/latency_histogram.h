// LatencyHistogram: percentiles of a stream of durations in fixed memory,
// HDR-histogram style (log-bucketed, bounded relative error).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace hcspmm {

/// \brief Fixed-size, log-bucketed record of durations.
///
/// Durations are counted in integer nanoseconds. Below 32 ns every value has
/// its own bucket; above, each power-of-two range splits into 32 equal
/// buckets. A percentile reports the midpoint of the bucket that holds the
/// sample of that rank, so it is within 1/64 (1.6%) of the exact sample
/// value; the maximum is exact. Record is O(1), PercentileUs is
/// O(kBuckets), and the footprint does not depend on how many samples were
/// recorded. Not thread-safe.
class LatencyHistogram {
 public:
  /// Negative durations count as 0; durations of 2^42 ns (about 73 min) or
  /// more share the top bucket.
  void Record(std::chrono::nanoseconds d);

  int64_t count() const { return count_; }

  /// Microseconds at the sample of rank round(p * (count - 1)) in sorted
  /// order (p in [0, 1]), within the relative error above; 0 when empty.
  double PercentileUs(double p) const;

  double MaxUs() const { return static_cast<double>(max_ns_) / 1e3; }

  static constexpr int kSubBucketBits = 5;
  static constexpr int kMaxExponent = 42;
  static constexpr int kBuckets = (kMaxExponent - kSubBucketBits + 1) << kSubBucketBits;

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t count_ = 0;
  int64_t max_ns_ = 0;
};

}  // namespace hcspmm
