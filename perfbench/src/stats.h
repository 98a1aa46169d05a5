// Exact order statistics for latency samples.
//
// Every percentile perfbench reports is the nearest-rank percentile of the
// raw samples: the smallest sample x such that at least p% of all samples
// are <= x, i.e. sorted[ceil(p * n / 100) - 1]. There is no bucketing and
// no interpolation, so a sub-millisecond latency is reported as measured,
// and the sample count travels with every value.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile `p` (an integer percent in [1, 100]) of the
// ascending `sorted`; 0 for no samples. Integer rank arithmetic keeps
// p * n / 100 exact.
inline double NearestRank(const std::vector<double>& sorted, int p) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  const size_t rank = std::clamp<size_t>(
      (static_cast<size_t>(p) * n + 99) / 100, 1, n);
  return sorted[rank - 1];
}

struct Percentiles {
  double p50 = 0;
  double p99 = 0;
  int64_t count = 0;
  // Samples strictly above p99: a p99 backed by fewer than ten of them is
  // close to the maximum rather than a tail percentile.
  int64_t beyond_p99 = 0;
};

inline Percentiles Summarize(std::vector<double> samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.count = static_cast<int64_t>(samples.size());
  out.p50 = NearestRank(samples, 50);
  out.p99 = NearestRank(samples, 99);
  out.beyond_p99 = samples.end() - std::upper_bound(samples.begin(),
                                                    samples.end(), out.p99);
  return out;
}

inline double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).p50;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
