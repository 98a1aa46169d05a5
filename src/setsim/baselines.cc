#include "setsim/baselines.h"

#include <algorithm>
#include <cstring>

#include "common/timer.h"
#include "setsim/prefix.h"

namespace pigeonring::setsim {

namespace {

/// Prefix length for plain (1-wise) prefix filtering: the first
/// |x| - o_x + 1 tokens, where o_x = ceil(tau * |x|).
int PlainPrefixLength(int size, double tau) {
  const int o = std::max(1, JaccardMinSize(size, tau));
  return std::max(0, size - o + 1);
}

}  // namespace

AllPairsSearcher::AllPairsSearcher(const SetCollection* collection,
                                   double tau)
    : collection_(collection), tau_(tau) {
  PR_CHECK(collection_ != nullptr);
  PR_CHECK(tau_ > 0.0 && tau_ <= 1.0);
  inverted_.assign(collection_->universe_size(), {});
  for (int id = 0; id < collection_->num_records(); ++id) {
    const RankedSet& x = collection_->record(id);
    const int prefix = std::min<int>(
        static_cast<int>(x.size()),
        PlainPrefixLength(static_cast<int>(x.size()), tau_));
    for (int p = 0; p < prefix; ++p) {
      inverted_[x[p]].push_back({id, p});
    }
  }
  seen_epoch_.assign(collection_->num_records(), 0);
}

std::vector<int> AllPairsSearcher::Search(const RankedSet& query,
                                          engine::QueryStats* stats) {
  StopWatch total_watch;
  StopWatch phase_watch;
  engine::QueryStats local;
  const int q_size = static_cast<int>(query.size());
  const int q_prefix = std::min(
      q_size, PlainPrefixLength(q_size, tau_));
  const int min_size = JaccardMinSize(q_size, tau_);
  const int max_size = JaccardMaxSize(q_size, tau_);

  ++epoch_;
  std::vector<int> candidates;
  for (int p = 0; p < q_prefix; ++p) {
    const int rank = query[p];
    if (rank < 0 || rank >= static_cast<int>(inverted_.size())) continue;
    for (const Posting& posting : inverted_[rank]) {
      ++local.index_hits;
      if (seen_epoch_[posting.id] == epoch_) continue;
      seen_epoch_[posting.id] = epoch_;
      const RankedSet& x = collection_->record(posting.id);
      const int x_size = static_cast<int>(x.size());
      if (x_size < min_size || x_size > max_size) continue;
      // Position filter (PPJoin): the first shared token has the smallest
      // positions in both sets, so the total overlap is at most
      // 1 + min(remaining tokens on either side).
      const int o_pair = JaccardOverlapThreshold(x_size, q_size, tau_);
      const int upper =
          1 + std::min(x_size - posting.position - 1, q_size - p - 1);
      if (upper < o_pair) continue;
      candidates.push_back(posting.id);
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  std::vector<int> results;
  for (int id : candidates) {
    const RankedSet& x = collection_->record(id);
    const int o_pair = JaccardOverlapThreshold(static_cast<int>(x.size()),
                                               q_size, tau_);
    if (OverlapAtLeast(x, query, o_pair)) results.push_back(id);
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

PartAllocSearcher::PartAllocSearcher(const SetCollection* collection,
                                     double tau, int num_parts)
    : collection_(collection), tau_(tau), num_parts_(num_parts) {
  PR_CHECK(collection_ != nullptr);
  PR_CHECK(num_parts_ >= 1);
  PR_CHECK(tau_ > 0.0 && tau_ <= 1.0);
  inverted_.assign(collection_->universe_size(), {});
  for (int id = 0; id < collection_->num_records(); ++id) {
    for (int rank : collection_->record(id)) inverted_[rank].push_back(id);
  }
  seen_epoch_.assign(collection_->num_records(), 0);
  part_counts_.assign(
      static_cast<size_t>(collection_->num_records()) * num_parts_, 0);
}

std::vector<int> PartAllocSearcher::Search(const RankedSet& query,
                                           engine::QueryStats* stats) {
  StopWatch total_watch;
  StopWatch phase_watch;
  engine::QueryStats local;
  const int q_size = static_cast<int>(query.size());
  const int min_size = JaccardMinSize(q_size, tau_);
  const int max_size = JaccardMaxSize(q_size, tau_);
  // Integer reduction (>= sense) with the query-side minimum overlap: the
  // per-part thresholds sum to o_q + num_parts - 1.
  const int o_q = std::max(1, JaccardMinSize(q_size, tau_));
  std::vector<int> t(num_parts_);
  const int budget = o_q + num_parts_ - 1;
  for (int k = 0; k < num_parts_; ++k) {
    t[k] = budget / num_parts_ + (k < budget % num_parts_ ? 1 : 0);
  }

  ++epoch_;
  touched_.clear();
  for (int rank : query) {
    if (rank < 0 || rank >= static_cast<int>(inverted_.size())) continue;
    const int k = TokenClass(rank, num_parts_) - 1;
    for (int id : inverted_[rank]) {
      const int x_size = static_cast<int>(collection_->record(id).size());
      if (x_size < min_size || x_size > max_size) continue;
      ++local.index_hits;
      if (seen_epoch_[id] != epoch_) {
        seen_epoch_[id] = epoch_;
        std::memset(&part_counts_[static_cast<size_t>(id) * num_parts_], 0,
                    sizeof(int) * num_parts_);
        touched_.push_back(id);
      }
      ++part_counts_[static_cast<size_t>(id) * num_parts_ + k];
    }
  }
  std::vector<int> candidates;
  for (int id : touched_) {
    const int* counts = &part_counts_[static_cast<size_t>(id) * num_parts_];
    for (int k = 0; k < num_parts_; ++k) {
      if (counts[k] >= t[k]) {
        candidates.push_back(id);
        break;
      }
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  std::vector<int> results;
  for (int id : candidates) {
    const RankedSet& x = collection_->record(id);
    const int o_pair = JaccardOverlapThreshold(static_cast<int>(x.size()),
                                               q_size, tau_);
    if (OverlapAtLeast(x, query, o_pair)) results.push_back(id);
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace pigeonring::setsim
