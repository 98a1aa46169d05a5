#include "setsim/pkwise.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/timer.h"

namespace pigeonring::setsim {

int PkwiseSearcher::RecordMinOverlap(int size) const {
  if (measure_ == SetMeasure::kOverlap) {
    return std::max(1, static_cast<int>(tau_));
  }
  return std::max(1, JaccardMinSize(size, tau_));
}

int PkwiseSearcher::PairOverlap(int size_x, int size_q) const {
  if (measure_ == SetMeasure::kOverlap) {
    return std::max(1, static_cast<int>(tau_));
  }
  return JaccardOverlapThreshold(size_x, size_q, tau_);
}

std::pair<int, int> PkwiseSearcher::SizeWindow(int size) const {
  if (measure_ == SetMeasure::kOverlap) {
    // Overlap constrains only from below: both sets must hold tau tokens.
    return {std::max(1, static_cast<int>(tau_)),
            std::numeric_limits<int>::max()};
  }
  return {JaccardMinSize(size, tau_), JaccardMaxSize(size, tau_)};
}

PkwiseSearcher::PkwiseSearcher(const SetCollection* collection, double tau,
                               int num_boxes, SetMeasure measure)
    : collection_(collection),
      tau_(tau),
      num_boxes_(num_boxes),
      num_classes_(num_boxes - 1),
      measure_(measure) {
  PR_CHECK(collection_ != nullptr);
  PR_CHECK(num_boxes_ >= 2);
  if (measure_ == SetMeasure::kJaccard) {
    PR_CHECK(tau_ > 0.0 && tau_ <= 1.0);
  } else {
    PR_CHECK(tau_ >= 1.0);
  }
  const int n = collection_->num_records();
  auto index = std::make_shared<Index>();
  index->prefixes.reserve(n);
  index->inverted.assign(collection_->universe_size(), {});
  for (int id = 0; id < n; ++id) {
    const RankedSet& x = collection_->record(id);
    // Records smaller than their own minimum overlap can never qualify;
    // give them a degenerate whole-record prefix (o clamped to |x|).
    const int o_x = std::max(
        1, std::min<int>(static_cast<int>(x.size()),
                         RecordMinOverlap(static_cast<int>(x.size()))));
    index->prefixes.push_back(ComputePrefixInfo(x, o_x, num_classes_));
    for (int p = 0; p < index->prefixes.back().prefix_length; ++p) {
      index->inverted[x[p]].push_back(id);
    }
  }
  index_ = std::move(index);
  seen_epoch_.assign(n, 0);
  class_counts_.assign(static_cast<size_t>(n) * (num_classes_ + 1), 0);
  touched_.reserve(1024);
}

PkwiseSearcher::PkwiseSearcher(const SetCollection* collection, double tau,
                               int num_boxes, SetMeasure measure,
                               std::shared_ptr<const Index> index)
    : collection_(collection),
      tau_(tau),
      num_boxes_(num_boxes),
      num_classes_(num_boxes - 1),
      measure_(measure),
      index_(std::move(index)) {
  PR_CHECK(collection_ != nullptr);
  PR_CHECK(num_boxes_ >= 2);
  PR_CHECK(index_ != nullptr);
  PR_CHECK(static_cast<int>(index_->prefixes.size()) ==
           collection_->num_records());
  const int n = collection_->num_records();
  seen_epoch_.assign(n, 0);
  class_counts_.assign(static_cast<size_t>(n) * (num_classes_ + 1), 0);
  touched_.reserve(1024);
}

PkwiseSearcher PkwiseSearcher::FromBuilt(const SetCollection* collection,
                                         double tau, int num_boxes,
                                         SetMeasure measure,
                                         std::shared_ptr<const Index> index) {
  return PkwiseSearcher(collection, tau, num_boxes, measure, std::move(index));
}

std::vector<int> PkwiseSearcher::Search(const RankedSet& query,
                                        int chain_length,
                                        engine::QueryStats* stats) {
  StopWatch total_watch;
  StopWatch phase_watch;
  engine::QueryStats local;
  const int q_size = static_cast<int>(query.size());
  const int l = std::clamp(chain_length, 1, num_boxes_);
  const int o_q =
      std::max(1, std::min(q_size, RecordMinOverlap(q_size)));
  const PrefixInfo q_info = ComputePrefixInfo(query, o_q, num_classes_);
  const auto [min_size, max_size] = SizeWindow(q_size);

  ++epoch_;
  touched_.clear();

  // Step 1: accumulate per-class shared prefix counts (= class box values).
  const Index& index = *index_;
  for (int p = 0; p < q_info.prefix_length; ++p) {
    const int rank = query[p];
    if (rank < 0 || rank >= static_cast<int>(index.inverted.size())) continue;
    const int k = TokenClass(rank, num_classes_);
    for (int id : index.inverted[rank]) {
      const int x_size = static_cast<int>(collection_->record(id).size());
      if (x_size < min_size || x_size > max_size) continue;
      ++local.index_hits;
      if (seen_epoch_[id] != epoch_) {
        seen_epoch_[id] = epoch_;
        std::memset(&class_counts_[static_cast<size_t>(id) *
                                   (num_classes_ + 1)],
                    0, sizeof(int) * (num_classes_ + 1));
        touched_.push_back(id);
      }
      ++class_counts_[static_cast<size_t>(id) * (num_classes_ + 1) + k];
    }
  }

  // Step 2: entry viability + prefix-viable chain check per touched record.
  std::vector<int> candidates;
  for (int id : touched_) {
    const int* counts =
        &class_counts_[static_cast<size_t>(id) * (num_classes_ + 1)];
    const PrefixInfo& x_info = index.prefixes[id];
    // The applicable threshold side is the one whose prefix ends first in
    // the global order; its suffix box is provably non-viable, so every
    // prefix-viable chain must start at a class box (§6.2).
    const PrefixInfo& t_side =
        x_info.last_rank <= q_info.last_rank ? x_info : q_info;
    uint32_t ruled_out = 0;
    bool is_candidate = false;
    for (int k = 1; k <= num_classes_ && !is_candidate; ++k) {
      if (counts[k] < t_side.class_threshold[k]) continue;  // entry box
      if (ruled_out & (uint32_t{1} << k)) continue;
      int sum = counts[k];
      int failed_at = 0;
      for (int len = 2; len <= l; ++len) {
        const int box = (k + len - 1) % num_boxes_;
        if (box == 0) break;  // reaching the suffix box => candidate (§6.2)
        sum += counts[box];
        if (sum < t_side.ChainBound(k, len)) {
          failed_at = len;
          break;
        }
      }
      if (failed_at != 0) {
        // Corollary 2 (>= sense): starts k .. k+failed_at-1 are ruled out.
        for (int off = 0; off < failed_at; ++off) {
          const int box = (k + off) % num_boxes_;
          if (box != 0) ruled_out |= uint32_t{1} << box;
        }
        continue;
      }
      is_candidate = true;
    }
    if (is_candidate) candidates.push_back(id);
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  // Verification.
  phase_watch.Restart();
  std::vector<int> results;
  for (int id : candidates) {
    const RankedSet& x = collection_->record(id);
    const int o_pair = PairOverlap(static_cast<int>(x.size()), q_size);
    if (OverlapAtLeast(x, query, o_pair)) results.push_back(id);
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<int> BruteForceOverlapSearch(const SetCollection& collection,
                                         const RankedSet& query, int tau) {
  std::vector<int> results;
  for (int id = 0; id < collection.num_records(); ++id) {
    if (Overlap(collection.record(id), query) >= tau) results.push_back(id);
  }
  return results;
}

std::vector<int> BruteForceJaccardSearch(const SetCollection& collection,
                                         const RankedSet& query, double tau) {
  std::vector<int> results;
  const int q_size = static_cast<int>(query.size());
  for (int id = 0; id < collection.num_records(); ++id) {
    const RankedSet& x = collection.record(id);
    const int o_pair =
        JaccardOverlapThreshold(static_cast<int>(x.size()), q_size, tau);
    if (Overlap(x, query) >= o_pair) results.push_back(id);
  }
  return results;
}

}  // namespace pigeonring::setsim
