#include "util/latency_histogram.h"

#include <algorithm>

namespace hcspmm {
namespace {

constexpr int kSubBuckets = 1 << LatencyHistogram::kSubBucketBits;

// Buckets below 2 * kSubBuckets hold one value each. Above, bucket
// (shift + 1) * kSubBuckets + (m - kSubBuckets), for m in
// [kSubBuckets, 2 * kSubBuckets), holds [m << shift, (m + 1) << shift).
int BucketOf(uint64_t ns) {
  int shift = 0;
  while ((ns >> shift) >= 2 * kSubBuckets) ++shift;
  return shift * kSubBuckets + static_cast<int>(ns >> shift);
}

}  // namespace

void LatencyHistogram::Record(std::chrono::nanoseconds d) {
  const int64_t ns = std::max<int64_t>(0, d.count());
  max_ns_ = std::max(max_ns_, ns);
  ++count_;
  constexpr uint64_t kTop = (uint64_t{1} << kMaxExponent) - 1;
  ++counts_[BucketOf(std::min(static_cast<uint64_t>(ns), kTop))];
}

double LatencyHistogram::PercentileUs(double p) const {
  if (count_ == 0) return 0.0;
  const double q = std::min(1.0, std::max(0.0, p));
  const auto rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1) + 0.5);
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen <= rank) continue;
    const int shift = i < 2 * kSubBuckets ? 0 : i / kSubBuckets - 1;
    const int64_t low = static_cast<int64_t>(i - shift * kSubBuckets) << shift;
    const double mid =
        static_cast<double>(low) + static_cast<double>((int64_t{1} << shift) - 1) / 2.0;
    // The maximum lies in or above this bucket, so clamping keeps the bound.
    return std::min(mid, static_cast<double>(max_ns_)) / 1e3;
  }
  return MaxUs();
}

}  // namespace hcspmm
