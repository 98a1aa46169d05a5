// Tests for common/histogram.h: bucket placement, percentile extraction
// (exactness on single values, factor-of-2 bounds in general), merge
// equivalence, and edge cases (empty, negatives, NaN, huge values).

#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"

namespace pigeonring {
namespace {

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.P99(), 0);
}

TEST(HistogramTest, SingleValueIsExactAtEveryQuantile) {
  Histogram h;
  h.Record(37.5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 37.5);
  EXPECT_EQ(h.max(), 37.5);
  // Interpolation clamps to [min, max], so one value reports exactly.
  EXPECT_EQ(h.Percentile(0.0), 37.5);
  EXPECT_EQ(h.P50(), 37.5);
  EXPECT_EQ(h.P99(), 37.5);
  EXPECT_EQ(h.Percentile(1.0), 37.5);
}

TEST(HistogramTest, CountersAreExact) {
  Histogram h;
  double sum = 0;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
    sum += i;
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.Mean(), sum / 100);
}

// Log-scale buckets bound every quantile by a factor of 2 of the true
// order statistic (and the result is clamped to the observed extrema).
TEST(HistogramTest, PercentilesAreWithinBucketResolution) {
  Rng rng(41);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 2000; ++i) {
    const double v = 0.5 + rng.NextDouble() * 4999.5;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact =
        values[static_cast<size_t>(std::ceil(q * 2000)) - 1];
    const double approx = h.Percentile(q);
    EXPECT_GE(approx, exact / 2) << "q=" << q;
    EXPECT_LE(approx, exact * 2) << "q=" << q;
  }
  EXPECT_GE(h.Percentile(1.0), values.back() / 2);
  EXPECT_LE(h.Percentile(1.0), values.back());
}

TEST(HistogramTest, MergeMatchesRecordingEverythingIntoOne) {
  Rng rng(43);
  Histogram combined;
  Histogram parts[3];
  for (int i = 0; i < 900; ++i) {
    const double v = rng.NextDouble() * 800.0;
    combined.Record(v);
    parts[i % 3].Record(v);
  }
  Histogram merged;
  for (const Histogram& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.count(), combined.count());
  // Sums accumulate in a different order, so compare to ulp precision.
  EXPECT_DOUBLE_EQ(merged.sum(), combined.sum());
  EXPECT_EQ(merged.min(), combined.min());
  EXPECT_EQ(merged.max(), combined.max());
  EXPECT_EQ(merged.buckets(), combined.buckets());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.Percentile(q), combined.Percentile(q));
  }
  // Merging an empty histogram changes nothing.
  merged.Merge(Histogram());
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_EQ(merged.min(), combined.min());
}

TEST(HistogramTest, NegativesClampAndNanIsIgnored) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 1);
  h.Record(3);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.max(), 3);
}

TEST(HistogramTest, HugeValuesSaturateWithoutOverflow) {
  Histogram h;
  h.Record(1e300);
  h.Record(1e18);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.max(), 1e300);
  // Both land in (or clamp into) the top buckets; percentiles stay finite
  // and within the observed range.
  const double p99 = h.P99();
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_GE(p99, h.min());
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, QuantileArgumentIsClamped) {
  Histogram h;
  h.Record(2);
  h.Record(8);
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(1.5), h.Percentile(1.0));
}

// The scatter-gather reduction pin: recording a stream scattered over S
// per-shard histograms and reducing them with a Merge loop must match the
// histogram of the whole stream exactly — every counter, extremum, and
// percentile — no matter how the stream was split.
TEST(HistogramTest, MergeOfScatteredPartsMatchesCombinedRecording) {
  const auto merge_all = [](const std::vector<Histogram>& parts) {
    Histogram merged;
    for (const Histogram& part : parts) merged.Merge(part);
    return merged;
  };
  Rng rng(19);
  const int kValues = 500;
  for (int num_parts : {1, 3, 8}) {
    Histogram combined;
    std::vector<Histogram> parts(num_parts);
    for (int i = 0; i < kValues; ++i) {
      const double value = std::ldexp(
          rng.NextDouble(), static_cast<int>(rng.NextBounded(20)));
      combined.Record(value);
      parts[rng.NextBounded(num_parts)].Record(value);
    }
    const Histogram merged = merge_all(parts);
    EXPECT_EQ(merged.count(), combined.count());
    // Summation order differs between the split and combined streams, so
    // the sums agree only to rounding.
    EXPECT_NEAR(merged.sum(), combined.sum(), 1e-9 * combined.sum());
    EXPECT_EQ(merged.min(), combined.min());
    EXPECT_EQ(merged.max(), combined.max());
    EXPECT_EQ(merged.buckets(), combined.buckets());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.Percentile(q), combined.Percentile(q)) << "q=" << q;
    }
  }
  // Degenerate reductions: no parts, and all-empty parts.
  EXPECT_EQ(merge_all({}).count(), 0);
  EXPECT_EQ(merge_all(std::vector<Histogram>(4)).count(), 0);
}

}  // namespace
}  // namespace pigeonring
