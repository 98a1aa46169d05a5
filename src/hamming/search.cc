#include "hamming/search.h"

#include <algorithm>
#include <functional>
#include <tuple>

#include "common/epoch.h"
#include "common/timer.h"
#include "kernels/kernels.h"

namespace pigeonring::hamming {

namespace {

// The build constructor's index: an equi-width partition of the objects'
// dimensions into `num_parts` parts, m = floor(d / 16) when 0.
std::shared_ptr<const PartitionIndex> BuildIndex(
    const std::vector<BitVector>& objects, int num_parts) {
  const int dims = objects.empty() ? 1 : objects.front().dimensions();
  const int m = num_parts > 0 ? num_parts : std::max(1, dims / 16);
  return std::make_shared<const PartitionIndex>(
      objects, Partition::EquiWidth(dims, m));
}

}  // namespace

// `objects` binds to the adopting constructor's reference, so the index is
// built from it before it moves.
HammingSearcher::HammingSearcher(std::vector<BitVector> objects,
                                 int num_parts)
    : HammingSearcher(std::move(objects), BuildIndex(objects, num_parts)) {}

HammingSearcher::HammingSearcher(std::vector<BitVector>&& objects,
                                 std::shared_ptr<const PartitionIndex> index)
    : objects_(std::make_shared<const std::vector<BitVector>>(
          std::move(objects))),
      flat_(std::make_shared<const kernels::FlatBitTable>(
          kernels::FlatBitTable::FromVectors(*objects_))),
      index_(std::move(index)) {
  PR_CHECK(index_ != nullptr);
  PR_CHECK(index_->num_objects() == num_objects());
  PR_CHECK_MSG(index_->partition().num_parts() <= 64,
               "ruled-out bitmask supports at most 64 parts");
  seen_epoch_.assign(objects_->size(), 0);
  ruled_out_.assign(objects_->size(), 0);
  decided_.assign(objects_->size(), 0);
}

std::vector<int> HammingSearcher::AllocateThresholds(
    const BitVector& query, int tau, AllocationMode mode) const {
  std::vector<int> t;
  std::vector<AllocEntry> entries;
  AllocateInto(query, tau, mode, &t, &entries);
  return t;
}

void HammingSearcher::AllocateInto(const BitVector& query, int tau,
                                   AllocationMode mode, std::vector<int>* t,
                                   std::vector<AllocEntry>* entries) const {
  const int m = num_parts();
  const PartitionIndex& index = *index_;
  // Integer reduction (Theorem 7): thresholds sum to tau - m + 1. Start all
  // parts at -1 (never probed) and grant tau + 1 single-radius units.
  t->assign(m, -1);
  entries->clear();
  const int units = tau + 1;
  if (mode == AllocationMode::kUniform ||
      (mode == AllocationMode::kRadiusZero && units > m)) {
    for (int u = 0; u < units; ++u) ++(*t)[u % m];
    return;
  }
  for (int p = 0; p < m; ++p) {
    const int64_t cost = index.CountAtRadius(query, p, 0);
    entries->emplace_back(static_cast<double>(cost), p, 0);
  }
  if (mode == AllocationMode::kRadiusZero) {
    std::nth_element(entries->begin(), entries->begin() + (units - 1),
                     entries->end());
    for (int u = 0; u < units; ++u) (*t)[std::get<1>((*entries)[u])] = 0;
    return;
  }
  // Greedy cost model: each unit goes to the part whose next probe radius
  // is estimated to touch the fewest postings for this query. The radius-0
  // cost is exact (one bucket lookup); higher radii are extrapolated by the
  // binomial shell-size ratio C(w, r+1)/C(w, r) = (w-r)/(r+1), which is the
  // uniform-density expectation. This keeps the allocation itself at O(m)
  // lookups instead of re-enumerating the key spheres (GPH's cost model is
  // likewise estimate-based). `entries` is a min-heap on (cost, p, r).
  std::make_heap(entries->begin(), entries->end(), std::greater<>());
  for (int u = 0; u < units; ++u) {
    std::pop_heap(entries->begin(), entries->end(), std::greater<>());
    const auto [cost, p, r] = entries->back();
    entries->pop_back();
    (*t)[p] = r;
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
    entries->emplace_back(next_cost, p, r + 1);
    std::push_heap(entries->begin(), entries->end(), std::greater<>());
  }
}

std::vector<int> HammingSearcher::Search(const BitVector& query, int tau,
                                         int chain_length,
                                         AllocationMode mode,
                                         engine::QueryStats* stats,
                                         IdRange range) {
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

  AllocateInto(query, tau, mode, &thresholds_, &alloc_entries_);
  const std::vector<int>& t = thresholds_;
  // Doubled threshold prefix sums for O(1) wrapped chain bounds.
  std::vector<int>& t_prefix = threshold_prefix_;
  t_prefix.assign(2 * m + 1, 0);
  for (int i = 0; i < 2 * m; ++i) t_prefix[i + 1] = t_prefix[i] + t[i % m];

  AdvanceEpoch(&epoch_, &seen_epoch_);
  engine::QueryStats local;
  std::vector<int>& candidate_ids = candidate_ids_;
  candidate_ids.clear();

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
    auto on_hit = [&](int id, int dist) {
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
            flat.row(id), query_words, partition.begin(j), partition.end(j));
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
    };
    for (int r = 0; r <= max_radius; ++r) {
      index_->ProbeAtRadius(query, i, r, on_hit, range);
    }
  }
  local.candidates = static_cast<int64_t>(candidate_ids.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  // Batched verification over the flat table: one early-exit kernel call
  // per surviving candidate, rows prefetched ahead of the cursor.
  std::vector<int>& results = results_;
  results.clear();
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
