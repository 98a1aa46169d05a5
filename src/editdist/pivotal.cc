#include "editdist/pivotal.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/bitvector.h"
#include "common/epoch.h"
#include "common/timer.h"
#include "editdist/verify.h"
#include "kernels/kernels.h"

namespace pigeonring::editdist {

namespace {

using Index = EditDistanceSearcher::Index;

/// Appends the per-position window masks of `s` (mask of s[u .. u+kappa))
/// to `out`.
void AppendWindowMasks(const std::string& s, int kappa,
                       std::vector<uint64_t>* out) {
  for (int u = 0; u < static_cast<int>(s.size()); ++u) {
    const int sub_len = std::min<int>(kappa, static_cast<int>(s.size()) - u);
    out->push_back(AlphabetMask(std::string_view(s).substr(u, sub_len)));
  }
}

/// Builds CSR lists over keys [0, num_keys) from the (key, entry) pairs
/// that `for_each(emit)` produces, keeping emission order within each
/// list: one pass counts, a second fills.
template <typename Entry, typename ForEach>
void BuildLists(size_t num_keys, ForEach&& for_each,
                std::vector<size_t>* offsets, std::vector<Entry>* entries) {
  offsets->assign(num_keys + 1, 0);
  for_each([&](size_t key, const Entry&) { ++(*offsets)[key + 1]; });
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  entries->resize(offsets->back());
  std::vector<size_t> next(offsets->begin(), offsets->end() - 1);
  for_each([&](size_t key, const Entry& entry) {
    (*entries)[next[key]++] = entry;
  });
}

std::shared_ptr<Index> BuildIndex(const std::vector<std::string>* data,
                                  int tau, int kappa) {
  PR_CHECK(data != nullptr);
  PR_CHECK(tau >= 0);
  const int n = static_cast<int>(data->size());
  auto index = std::make_shared<Index>(*data, kappa);
  index->profiles.reserve(n);
  index->padded.reserve(n);
  size_t total_padded = 0;
  for (const std::string& s : *data) {
    total_padded += s.size() + 2 * static_cast<size_t>(kappa - 1);
  }
  index->window_masks.reserve(total_padded);
  index->window_offsets.reserve(n + 1);
  index->window_offsets.push_back(0);
  int max_length = 0;
  for (int id = 0; id < n; ++id) {
    const std::string& s = (*data)[id];
    max_length = std::max(max_length, static_cast<int>(s.size()));
    index->profiles.push_back(index->dictionary.Profile(s, tau));
    index->padded.push_back(PadForGrams(s, kappa));
    AppendWindowMasks(index->padded.back(), kappa, &index->window_masks);
    index->window_offsets.push_back(index->window_masks.size());
    if (index->profiles.back().is_short) index->short_ids.push_back(id);
  }
  // Short profiles carry no grams, so they post nothing.
  const size_t universe = index->dictionary.universe_size();
  BuildLists(
      universe,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) {
          const std::vector<Gram>& pivotal = index->profiles[id].pivotal;
          for (size_t j = 0; j < pivotal.size(); ++j) {
            emit(pivotal[j].rank,
                 EditDistanceSearcher::PivotalPosting{
                     id, static_cast<int>(j), pivotal[j].position, 0, 0});
          }
        }
      },
      &index->pivotal_offsets, &index->pivotal_postings);
  BuildLists(
      universe,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) {
          for (const Gram& g : index->profiles[id].prefix) {
            emit(g.rank,
                 EditDistanceSearcher::PrefixPosting{id, g.position, 0, 0});
          }
        }
      },
      &index->prefix_offsets, &index->prefix_postings);
  BuildLists(
      static_cast<size_t>(max_length) + 1,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) emit((*data)[id].size(), id);
      },
      &index->length_offsets, &index->length_ids);
  return index;
}

/// Fills the derived state of a built or loaded index: the ring arrays
/// and every posting's length and prefix_last_rank.
void DeriveIndex(const std::vector<std::string>& data, int tau,
                 Index* index) {
  const size_t m = static_cast<size_t>(tau) + 1;
  index->ring_masks.assign(data.size() * m, 0);
  index->ring_positions.assign(data.size() * m, 0);
  for (size_t id = 0; id < data.size(); ++id) {
    const GramProfile& profile = index->profiles[id];
    PR_CHECK(profile.pivotal.size() == (profile.is_short ? 0 : m) &&
             profile.pivotal_masks.size() == profile.pivotal.size());
    for (size_t j = 0; j < profile.pivotal.size(); ++j) {
      index->ring_masks[id * m + j] = profile.pivotal_masks[j];
      index->ring_positions[id * m + j] = profile.pivotal[j].position;
    }
  }
  auto derive = [&](auto& postings) {
    for (auto& posting : postings) {
      posting.length = static_cast<int>(data[posting.id].size());
      posting.prefix_last_rank = index->profiles[posting.id].prefix_last_rank;
    }
  };
  derive(index->pivotal_postings);
  derive(index->prefix_postings);
}

/// Scans one posting list in order and writes the list offsets of the
/// postings that pass the prefix-order side test, the +-tau position test
/// and the length test to `selected`; returns how many passed. Branch-free:
/// every offset is written, and the count advances only for survivors.
/// `x_side` selects Case A (the record's prefix ends first: its
/// prefix-last rank is <= the query's) or Case B (strictly greater).
template <typename Posting>
int SelectPostings(std::span<const Posting> list, bool x_side,
                   int q_prefix_last_rank, int q_position, int q_len,
                   int tau, int* selected) {
  int count = 0;
  for (int k = 0; k < static_cast<int>(list.size()); ++k) {
    const Posting& p = list[k];
    selected[count] = k;
    count += static_cast<int>(
        ((p.prefix_last_rank <= q_prefix_last_rank) == x_side) &
        (std::abs(p.position - q_position) <= tau) &
        (std::abs(p.length - q_len) <= tau));
  }
  return count;
}

template <typename Entry>
std::span<const Entry> List(const std::vector<size_t>& offsets,
                            const std::vector<Entry>& entries, size_t key) {
  return std::span<const Entry>(entries).subspan(
      offsets[key], offsets[key + 1] - offsets[key]);
}

}  // namespace

EditDistanceSearcher::EditDistanceSearcher(
    const std::vector<std::string>* data, int tau, int kappa)
    : EditDistanceSearcher(data, tau, kappa, BuildIndex(data, tau, kappa)) {}

EditDistanceSearcher EditDistanceSearcher::FromBuilt(
    const std::vector<std::string>* data, int tau, int kappa,
    std::shared_ptr<Index> index) {
  return EditDistanceSearcher(data, tau, kappa, std::move(index));
}

EditDistanceSearcher::EditDistanceSearcher(
    const std::vector<std::string>* data, int tau, int kappa,
    std::shared_ptr<Index> index)
    : data_(data), tau_(tau), kappa_(kappa) {
  PR_CHECK(data_ != nullptr);
  PR_CHECK(tau_ >= 0);
  PR_CHECK_MSG(tau_ + 1 <= 64, "ruled-out bitmask supports at most 64 boxes");
  PR_CHECK(index != nullptr);
  PR_CHECK(index->profiles.size() == data_->size());
  DeriveIndex(*data_, tau_, index.get());
  index_ = std::move(index);
  const int n = static_cast<int>(data_->size());
  seen_epoch_.assign(n, 0);
  decided_.assign(n, 0);
  ruled_out_.assign(n, 0);
}

int EditDistanceSearcher::ContentLowerBound(
    uint64_t gram_mask, int gram_pos, std::span<const uint64_t> other_masks,
    int good_enough) const {
  const int len = static_cast<int>(other_masks.size());
  if (len == 0) return kappa_;
  const int lo = std::max(0, gram_pos - tau_);
  const int hi = std::min(gram_pos + tau_, len - 1);
  if (lo > hi) return kappa_;
  // Block-signature popcount chain over the window. The mask-distance bound
  // is (popcount + 1) / 2, so bound <= good_enough iff popcount <=
  // 2 * good_enough; an early stop may return the minimum of a scanned
  // prefix only, but any such value also satisfies <= good_enough, which is
  // all the chain check uses it for (completeness is unaffected).
  const int min_pc = kernels::MinXorPopcount(
      other_masks.data() + lo, hi - lo + 1, gram_mask, 2 * good_enough);
  return std::min(kappa_, (min_pc + 1) / 2);
}

int EditDistanceSearcher::ExactBox(const std::string& side, const Gram& gram,
                                   const std::string& other) const {
  return MinSubstringEditDistance(
      std::string_view(side).substr(gram.position, kappa_), other,
      gram.position - tau_, gram.position + tau_, kappa_ + tau_ - 1);
}

std::vector<int> EditDistanceSearcher::Search(const std::string& query,
                                              EditFilter filter,
                                              int chain_length,
                                              engine::QueryStats* stats,
                                              IdRange range) {
  const StopWatch started;
  const GramProfile profile = index_->dictionary.Profile(query, tau_);
  std::string padded;
  std::vector<uint64_t> masks;
  if (!profile.is_short) {
    padded = PadForGrams(query, kappa_);
    masks.reserve(padded.size());
    AppendWindowMasks(padded, kappa_, &masks);
  }
  const Probe probe{query, profile, padded, masks};
  return SearchProbe(probe, filter, chain_length, range, started, stats);
}

std::vector<int> EditDistanceSearcher::JoinProbe(int id, EditFilter filter,
                                                 int chain_length,
                                                 engine::QueryStats* stats,
                                                 IdRange range) {
  const StopWatch started;
  const Index& index = *index_;
  const auto masks = List(index.window_offsets, index.window_masks, id);
  const Probe probe{(*data_)[id], index.profiles[id], index.padded[id], masks};
  return SearchProbe(probe, filter, chain_length, range.Below(id), started,
                     stats);
}

std::vector<int> EditDistanceSearcher::SearchProbe(const Probe& probe,
                                                   EditFilter filter,
                                                   int chain_length,
                                                   IdRange range,
                                                   const StopWatch& started,
                                                   engine::QueryStats* stats) {
  StopWatch phase_watch = started;
  engine::QueryStats local;
  const Index& index = *index_;
  const int m = tau_ + 1;
  const int l = std::clamp(chain_length, 1, m);
  const std::string& query = probe.query;
  const int q_len = static_cast<int>(query.size());
  const GramProfile& q_profile = probe.profile;

  AdvanceEpoch(&epoch_, &seen_epoch_);
  auto touch = [&](int id) {
    if (seen_epoch_[id] != epoch_) {
      seen_epoch_[id] = epoch_;
      decided_[id] = 0;
      ruled_out_[id] = 0;
    }
  };

  std::vector<int> candidates;  // Cand-1 for Pivotal, chain survivors for Ring
  auto add_candidate = [&](int id) {
    touch(id);
    if (decided_[id]) return;
    decided_[id] = 1;
    candidates.push_back(id);
  };

  // Every list below is id-ascending and read only inside the range.
  if (q_profile.is_short) {
    // Too few query grams for the pivotal scheme: fall back to the length
    // filter for the whole collection.
    const int max_length = static_cast<int>(index.length_offsets.size()) - 2;
    for (int len = std::max(0, q_len - tau_);
         len <= std::min(q_len + tau_, max_length); ++len) {
      const auto ids = CutToIdRange(
          List(index.length_offsets, index.length_ids, len), range);
      for (int id : ids) add_candidate(id);
    }
  } else {
    // Short data strings are always candidates (within the length window).
    const auto short_ids =
        CutToIdRange(std::span<const int>(index.short_ids), range);
    for (int id : short_ids) {
      const int len = static_cast<int>((*data_)[id].size());
      if (std::abs(len - q_len) <= tau_) add_candidate(id);
    }

    std::array<int, 64> q_positions{};
    for (int j = 0; j < m; ++j) q_positions[j] = q_profile.pivotal[j].position;

    // The chain check from an exact-match entry box, shared by both probe
    // cases. The side string owns the ring (`side_masks` / `side_positions`
    // of its pivotal grams); `other_masks` provides the windows (Corollary 2
    // bookkeeping happens inside).
    auto ring_check = [&](int id, const uint64_t* side_masks,
                          const int* side_positions,
                          std::span<const uint64_t> other_masks, int entry) {
      if (decided_[id]) return;
      if (ruled_out_[id] & (uint64_t{1} << entry)) return;
      if (filter == EditFilter::kPivotal || l == 1) {
        add_candidate(id);
        return;
      }
      int sum = 0;  // entry box value is 0 (exact match)
      int failed_at = 0;
      for (int len = 2; len <= l; ++len) {
        const int box = (entry + len - 1) % m;
        // Uniform thresholds: viable iff sum <= floor(len * tau / m). The
        // window scan may stop early once the box provably fits the
        // remaining budget, but only at the final length — at intermediate
        // lengths the (possibly inflated) early value would carry into
        // later prefix sums and break completeness, so only a bound of 0
        // (the true minimum) may stop the scan there.
        const int budget = len * tau_ / m - sum;
        const int good_enough = len == l ? std::max(0, budget) : 0;
        sum += ContentLowerBound(side_masks[box], side_positions[box],
                                 other_masks, good_enough);
        if (sum * m > len * tau_) {
          failed_at = len;
          break;
        }
      }
      if (failed_at != 0) {
        for (int off = 0; off < failed_at; ++off) {
          ruled_out_[id] |= uint64_t{1} << ((entry + off) % m);
        }
        return;
      }
      add_candidate(id);
    };

    // Each posting list is scanned into `selected_` first; the survivors
    // are then touched and ring-checked in list order, so the per-record
    // scratch sees them exactly as a one-pass scan would.
    auto select = [&](auto list, bool x_side, const Gram& g) {
      local.index_hits += static_cast<int64_t>(list.size());
      if (selected_.size() < list.size()) selected_.resize(list.size());
      return SelectPostings(list, x_side, q_profile.prefix_last_rank,
                            g.position, q_len, tau_, selected_.data());
    };

    // Case A: x's prefix ends first; probe q's prefix grams against data
    // pivotal grams. The ring is x's.
    for (const Gram& g : q_profile.prefix) {
      if (g.rank < 0) continue;
      const auto list = CutToIdRange(
          List(index.pivotal_offsets, index.pivotal_postings, g.rank), range,
          &PivotalPosting::id);
      const int count = select(list, true, g);
      for (int s = 0; s < count; ++s) {
        const PivotalPosting& posting = list[selected_[s]];
        const size_t ring = static_cast<size_t>(posting.id) * m;
        touch(posting.id);
        ring_check(posting.id, &index.ring_masks[ring],
                   &index.ring_positions[ring], probe.masks,
                   posting.pivotal_index);
      }
    }
    // Case B: q's prefix ends first; probe q's pivotal grams against data
    // prefix grams. The ring is q's.
    for (int j = 0; j < m; ++j) {
      const Gram& g = q_profile.pivotal[j];
      if (g.rank < 0) continue;
      const auto list = CutToIdRange(
          List(index.prefix_offsets, index.prefix_postings, g.rank), range,
          &PrefixPosting::id);
      const int count = select(list, false, g);
      for (int s = 0; s < count; ++s) {
        const int id = list[selected_[s]].id;
        touch(id);
        ring_check(id, q_profile.pivotal_masks.data(), q_positions.data(),
                   List(index.window_offsets, index.window_masks, id), j);
      }
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());

  // Alignment filter (Pivotal baseline only): exact per-box minimum edit
  // distances summed against tau — the l = m basic form of the principle.
  // Ring verifies its candidates directly.
  const bool align = filter == EditFilter::kPivotal && !q_profile.is_short;
  std::vector<int> stage2;
  if (align) {
    const std::string& q_padded = probe.padded;
    for (int id : candidates) {
      const GramProfile& x_profile = index.profiles[id];
      if (x_profile.is_short) {
        stage2.push_back(id);
        continue;
      }
      const bool side_is_x =
          x_profile.prefix_last_rank <= q_profile.prefix_last_rank;
      const GramProfile& side_profile = side_is_x ? x_profile : q_profile;
      const std::string& side = side_is_x ? index.padded[id] : q_padded;
      const std::string& other = side_is_x ? q_padded : index.padded[id];
      int sum = 0;
      for (const Gram& gram : side_profile.pivotal) {
        sum += ExactBox(side, gram, other);
        if (sum > tau_) break;
      }
      if (sum <= tau_) stage2.push_back(id);
    }
  }
  const std::vector<int>& to_verify = align ? stage2 : candidates;
  local.candidates_stage2 = static_cast<int64_t>(to_verify.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  std::vector<int> results;
  for (int id : to_verify) {
    if (BandedEditDistance((*data_)[id], query, tau_) <= tau_) {
      results.push_back(id);
    }
  }
  std::sort(results.begin(), results.end());
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = started.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<int> BruteForceEditSearch(const std::vector<std::string>& data,
                                      const std::string& query, int tau) {
  std::vector<int> results;
  for (int id = 0; id < static_cast<int>(data.size()); ++id) {
    if (BandedEditDistance(data[id], query, tau) <= tau) results.push_back(id);
  }
  return results;
}

}  // namespace pigeonring::editdist
