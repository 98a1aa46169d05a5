// Pins perfbench's nearest-rank percentiles against hand-sorted arrays.
// Exits nonzero on the first mismatch; perfbench/run.py runs it before
// every workload.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "stats_test: FAILED %s\n", what);
  ++failures;
}

}  // namespace

int main() {
  using perfbench::NearestRank;
  using perfbench::Summarize;

  // 1..100: the p-th percentile is exactly p.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(NearestRank(hundred, 1) == 1, "p1 of 1..100 is 1");
  Expect(NearestRank(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(NearestRank(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(hundred, 100) == 100, "p100 of 1..100 is 100");

  // Odd count: the median is the middle sample; p99 of five is the max.
  const std::vector<double> five = {0.11, 0.12, 0.13, 0.14, 0.95};
  Expect(NearestRank(five, 50) == 0.13, "p50 of five is the third");
  Expect(NearestRank(five, 99) == 0.95, "p99 of five is the fifth");

  // Even count: nearest rank takes the lower middle, never an average.
  const std::vector<double> four = {1, 2, 3, 4};
  Expect(NearestRank(four, 50) == 2, "p50 of four is the second");

  // Sub-millisecond samples keep their values: no bucket flattens them.
  std::vector<double> sub_ms(990, 0.118);
  for (int i = 0; i < 10; ++i) sub_ms.push_back(0.5 + i * 0.01);
  const perfbench::Percentiles sub = Summarize(sub_ms);
  Expect(sub.p50 == 0.118, "sub-ms p50 is the sample value");
  Expect(sub.p99 == 0.118, "sub-ms p99 at rank 990 of 1000");
  Expect(sub.beyond_p99 == 10, "ten sub-ms samples beyond p99");

  // 0..999 unsorted: Summarize sorts, counts, and ranks exactly.
  std::vector<double> thousand;
  for (int i = 999; i >= 0; --i) thousand.push_back(i);
  const perfbench::Percentiles p = Summarize(thousand);
  Expect(p.count == 1000, "count of 1000");
  Expect(p.p50 == 499, "p50 of 0..999 is rank 500");
  Expect(p.p99 == 989, "p99 of 0..999 is rank 990");
  Expect(p.beyond_p99 == 10, "ten samples beyond p99 of 1000");

  // One sample is every percentile; no samples report zero.
  Expect(Summarize({7.5}).p99 == 7.5, "single sample");
  Expect(Summarize({}).count == 0, "empty summary");

  if (failures == 0) std::fprintf(stderr, "stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
