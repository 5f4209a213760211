#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <type_traits>
#include <vector>

#include "util/latency_histogram.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace hcspmm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad shape");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IoError("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Status FailThenPropagate() {
  HCSPMM_RETURN_NOT_OK(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  Status s = FailThenPropagate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "inner");
}

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Pcg32Test, BoundedCoversAllResidues) {
  Pcg32 rng(11);
  std::set<uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Pcg32Test, ShuffleIsPermutation) {
  Pcg32 rng(9);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

// Trivially copyable implies a trivial destructor, so the histogram cannot
// own heap storage: its footprint is sizeof(LatencyHistogram) for any number
// of samples.
static_assert(std::is_trivially_copyable<LatencyHistogram>::value,
              "LatencyHistogram must stay fixed-size");

TEST(LatencyHistogramTest, MillionSamplesStayWithinTheStatedError) {
  // Log-normal around 0.5 ms with a heavy tail (about 10 us .. 100 ms).
  constexpr int kSamples = 1000000;
  Pcg32 rng(2024);
  std::vector<int64_t> ns(kSamples);
  LatencyHistogram h;
  for (int64_t& v : ns) {
    v = static_cast<int64_t>(std::exp(std::log(5e5) + 1.2 * rng.NextGaussian()));
    h.Record(std::chrono::nanoseconds(v));
  }
  EXPECT_EQ(h.count(), kSamples);
  std::sort(ns.begin(), ns.end());
  for (double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const size_t rank = static_cast<size_t>(p * (kSamples - 1) + 0.5);
    const double exact_us = static_cast<double>(ns[rank]) / 1e3;
    EXPECT_NEAR(h.PercentileUs(p), exact_us, exact_us / 64.0) << "p = " << p;
  }
  EXPECT_EQ(h.MaxUs(), static_cast<double>(ns.back()) / 1e3);
}

TEST(LatencyHistogramTest, EdgeValues) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileUs(0.5), 0.0);  // empty
  EXPECT_EQ(h.MaxUs(), 0.0);
  h.Record(std::chrono::nanoseconds(-5));  // counts as 0
  h.Record(std::chrono::nanoseconds(37));  // small values are exact
  h.Record(std::chrono::hours(2));         // beyond the top bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.PercentileUs(0.0), 0.0);
  EXPECT_EQ(h.PercentileUs(0.5), 0.037);
  EXPECT_EQ(h.MaxUs(), 7.2e9);
  EXPECT_LE(h.PercentileUs(1.0), h.MaxUs());
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("z"), "z");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcde", 4), "abcde");
}

}  // namespace
}  // namespace hcspmm
