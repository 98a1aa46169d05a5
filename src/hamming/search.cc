#include "hamming/search.h"

#include <algorithm>
#include <queue>
#include <tuple>

#include "common/timer.h"
#include "kernels/kernels.h"

namespace pigeonring::hamming {

HammingSearcher::HammingSearcher(std::vector<BitVector> objects,
                                 int num_parts)
    : objects_(std::make_shared<const std::vector<BitVector>>(
          std::move(objects))) {
  const int dims = objects_->empty() ? 1 : objects_->front().dimensions();
  const int m = num_parts > 0 ? num_parts : std::max(1, dims / 16);
  flat_ = std::make_shared<const kernels::FlatBitTable>(
      kernels::FlatBitTable::FromVectors(*objects_));
  index_ = std::make_shared<const PartitionIndex>(
      *objects_, Partition::EquiWidth(dims, m));
  PR_CHECK_MSG(index_->partition().num_parts() <= 64,
               "ruled-out bitmask supports at most 64 parts");
  seen_epoch_.assign(objects_->size(), 0);
  ruled_out_.assign(objects_->size(), 0);
  decided_.assign(objects_->size(), 0);
}

HammingSearcher HammingSearcher::FromBuilt(
    std::vector<BitVector> objects,
    std::shared_ptr<const PartitionIndex> index,
    std::shared_ptr<const PartitionIndex> alloc_index) {
  PR_CHECK(index != nullptr);
  PR_CHECK(index->num_objects() == static_cast<int>(objects.size()));
  PR_CHECK_MSG(index->partition().num_parts() <= 64,
               "ruled-out bitmask supports at most 64 parts");
  if (alloc_index != nullptr) {
    PR_CHECK(alloc_index->partition().num_parts() ==
             index->partition().num_parts());
  }
  HammingSearcher s;
  s.objects_ =
      std::make_shared<const std::vector<BitVector>>(std::move(objects));
  s.flat_ = std::make_shared<const kernels::FlatBitTable>(
      kernels::FlatBitTable::FromVectors(*s.objects_));
  s.index_ = std::move(index);
  s.alloc_index_ = std::move(alloc_index);
  s.seen_epoch_.assign(s.objects_->size(), 0);
  s.ruled_out_.assign(s.objects_->size(), 0);
  s.decided_.assign(s.objects_->size(), 0);
  return s;
}

std::vector<int> HammingSearcher::AllocateThresholds(
    const BitVector& query, int tau, AllocationMode mode) const {
  const int m = num_parts();
  const PartitionIndex& index = alloc_index_ ? *alloc_index_ : *index_;
  // Integer reduction (Theorem 7): thresholds sum to tau - m + 1. Start all
  // parts at -1 (never probed) and grant tau + 1 single-radius units.
  std::vector<int> t(m, -1);
  const int units = tau + 1;
  if (mode == AllocationMode::kUniform ||
      (mode == AllocationMode::kRadiusZero && units > m)) {
    for (int u = 0; u < units; ++u) ++t[u % m];
    return t;
  }
  if (mode == AllocationMode::kRadiusZero) {
    std::vector<std::pair<int64_t, int>> by_cost(m);
    for (int p = 0; p < m; ++p) {
      by_cost[p] = {index.CountAtRadius(query, p, 0), p};
    }
    std::nth_element(by_cost.begin(), by_cost.begin() + (units - 1),
                     by_cost.end());
    for (int u = 0; u < units; ++u) t[by_cost[u].second] = 0;
    return t;
  }
  // Greedy cost model: each unit goes to the part whose next probe radius
  // is estimated to touch the fewest postings for this query. The radius-0
  // cost is exact (one bucket lookup); higher radii are extrapolated by the
  // binomial shell-size ratio C(w, r+1)/C(w, r) = (w-r)/(r+1), which is the
  // uniform-density expectation. This keeps the allocation itself at O(m)
  // lookups instead of re-enumerating the key spheres (GPH's cost model is
  // likewise estimate-based).
  using Entry = std::tuple<double, int, int>;  // (est. marginal cost, p, r)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (int p = 0; p < m; ++p) {
    heap.emplace(static_cast<double>(index.CountAtRadius(query, p, 0)), p,
                 0);
  }
  for (int u = 0; u < units; ++u) {
    auto [cost, p, r] = heap.top();
    heap.pop();
    t[p] = r;
    const int width = index.partition().width(p);
    double next_cost;
    if (r >= width) {
      next_cost = 0.0;
    } else if (r == 0) {
      // Radius 1 is still cheap to count exactly (w lookups) and captures
      // most of the per-part skew.
      next_cost = static_cast<double>(index.CountAtRadius(query, p, 1));
    } else {
      next_cost = std::max(cost, 1.0) * (width - r) / (r + 1);
    }
    heap.emplace(next_cost, p, r + 1);
  }
  return t;
}

std::vector<int> HammingSearcher::Search(const BitVector& query, int tau,
                                         int chain_length,
                                         AllocationMode mode,
                                         engine::QueryStats* stats) {
  const int m = num_parts();
  const int l = std::clamp(chain_length, 1, m);
  const Partition& partition = index_->partition();
  const kernels::FlatBitTable& flat = *flat_;
  if (!objects_->empty()) {
    PR_CHECK(query.dimensions() == flat.dimensions());
  }
  const uint64_t* query_words = query.words().data();
  StopWatch total_watch;
  StopWatch phase_watch;

  const std::vector<int> t = AllocateThresholds(query, tau, mode);
  // Doubled threshold prefix sums for O(1) wrapped chain bounds.
  std::vector<int> t_prefix(2 * m + 1, 0);
  for (int i = 0; i < 2 * m; ++i) t_prefix[i + 1] = t_prefix[i] + t[i % m];

  ++epoch_;
  engine::QueryStats local;
  std::vector<int> candidate_ids;

  auto touch = [&](int id) {
    if (seen_epoch_[id] != epoch_) {
      seen_epoch_[id] = epoch_;
      ruled_out_[id] = 0;
      decided_[id] = 0;
    }
  };

  for (int i = 0; i < m; ++i) {
    if (t[i] < 0) continue;
    const int max_radius = std::min(t[i], partition.width(i));
    for (int r = 0; r <= max_radius; ++r) {
      index_->ProbeAtRadius(query, i, r, [&](int id, int dist) {
        ++local.index_hits;
        touch(id);
        if (decided_[id]) return;
        if (ruled_out_[id] & (uint64_t{1} << i)) return;
        // Step 2: incremental prefix-viable chain check from part i
        // (Theorem 7 bounds: sum of thresholds plus len - 1 slack).
        ++local.chain_checks;
        int sum = dist;
        int failed_at = 0;  // 0 = passed
        for (int len = 2; len <= l; ++len) {
          const int j = (i + len - 1) % m;
          sum += kernels::HammingDistanceRangeWords(
              flat.row(id), query_words, partition.begin(j),
              partition.end(j));
          const int bound = t_prefix[i + len] - t_prefix[i] + (len - 1);
          if (sum > bound) {
            failed_at = len;
            break;
          }
        }
        if (failed_at != 0) {
          // Corollary 2: no chain starting in [i, i + failed_at - 1] can be
          // prefix-viable at length l.
          for (int k = 0; k < failed_at; ++k) {
            ruled_out_[id] |= uint64_t{1} << ((i + k) % m);
          }
          return;
        }
        decided_[id] = 1;
        candidate_ids.push_back(id);
      });
    }
  }
  local.candidates = static_cast<int64_t>(candidate_ids.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  // Batched verification over the flat table: one early-exit kernel call
  // per surviving candidate, rows prefetched ahead of the cursor.
  std::vector<int> results;
  const int num_candidates = static_cast<int>(candidate_ids.size());
  verdicts_.resize(candidate_ids.size());
  kernels::VerifyHammingLeqBatch(flat, query_words, tau,
                                 candidate_ids.data(), num_candidates,
                                 verdicts_.data());
  for (int c = 0; c < num_candidates; ++c) {
    if (verdicts_[c]) results.push_back(candidate_ids[c]);
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<int> BruteForceSearch(const std::vector<BitVector>& objects,
                                  const BitVector& query, int tau) {
  std::vector<int> results;
  for (int id = 0; id < static_cast<int>(objects.size()); ++id) {
    if (objects[id].HammingDistance(query) <= tau) results.push_back(id);
  }
  return results;
}

}  // namespace pigeonring::hamming
