#include "editdist/pivotal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
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

/// Builds CSR lists over keys [0, num_keys) whose entries are columns:
/// `for_each(emit)` produces the entries, emit(key, {v_0, ..., v_{N-1}})
/// adding one to list `key` with v_c in column c, and each list keeps
/// emission order. One pass counts, a second fills.
template <size_t N, typename ForEach>
void BuildLists(size_t num_keys, ForEach&& for_each,
                std::vector<size_t>* offsets,
                const std::array<std::vector<int>*, N>& columns) {
  offsets->assign(num_keys + 1, 0);
  for_each([&](size_t key, const std::array<int, N>&) {
    ++(*offsets)[key + 1];
  });
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  for (std::vector<int>* column : columns) column->resize(offsets->back());
  std::vector<size_t> next(offsets->begin(), offsets->end() - 1);
  for_each([&](size_t key, const std::array<int, N>& values) {
    const size_t slot = next[key]++;
    for (size_t c = 0; c < N; ++c) (*columns[c])[slot] = values[c];
  });
}

std::shared_ptr<Index> BuildIndex(const std::vector<std::string>* data,
                                  int tau, int kappa) {
  PR_CHECK(data != nullptr);
  PR_CHECK(tau >= 0);
  const int n = static_cast<int>(data->size());
  auto index = std::make_shared<Index>(GramDictionary(*data, kappa));
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
  BuildLists<3>(
      universe,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) {
          const std::vector<Gram>& pivotal = index->profiles[id].pivotal;
          for (size_t j = 0; j < pivotal.size(); ++j) {
            emit(pivotal[j].rank,
                 {id, pivotal[j].position, static_cast<int>(j)});
          }
        }
      },
      &index->pivotal.offsets,
      {&index->pivotal.ids, &index->pivotal.positions,
       &index->pivotal_indexes});
  BuildLists<2>(
      universe,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) {
          for (const Gram& g : index->profiles[id].prefix) {
            emit(g.rank, {id, g.position});
          }
        }
      },
      &index->prefix.offsets, {&index->prefix.ids, &index->prefix.positions});
  BuildLists<1>(
      static_cast<size_t>(max_length) + 1,
      [&](auto emit) {
        for (int id = 0; id < n; ++id) emit((*data)[id].size(), {id});
      },
      &index->length_offsets, {&index->length_ids});
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
  auto derive = [&](EditDistanceSearcher::PostingLists* lists) {
    lists->lengths.resize(lists->ids.size());
    lists->prefix_last_ranks.resize(lists->ids.size());
    for (size_t e = 0; e < lists->ids.size(); ++e) {
      const int id = lists->ids[e];
      lists->lengths[e] = static_cast<int>(data[id].size());
      lists->prefix_last_ranks[e] = index->profiles[id].prefix_last_rank;
    }
  };
  derive(&index->pivotal);
  derive(&index->prefix);
}

template <typename Entry>
std::span<const Entry> List(const std::vector<size_t>& offsets,
                            const std::vector<Entry>& entries, size_t key) {
  return std::span<const Entry>(entries).subspan(
      offsets[key], offsets[key + 1] - offsets[key]);
}

/// What the chain check of one probe reads besides the ring and windows.
struct ChainParams {
  int m;      // boxes: tau + 1
  int l;      // chain length, in [2, m]
  int tau;
  int kappa;
  // budget[len] = floor(len * tau / m): under uniform thresholds a chain
  // prefix of length len is viable iff its sum is at most this.
  std::array<int, 65> budget;
};

/// Content-filter lower bound for the box of `gram_mask`@`gram_pos`: over
/// the other string's windows u within +-tau of gram_pos (window u's mask
/// is the alphabet mask of s[u .. u+kappa)), the minimum of
/// ceil(popcount(mask ^ gram_mask) / 2), capped at kappa — O(tau)
/// popcounts, as the §6.3 remark prices the box check.
template <bool kNativePopcount>
[[gnu::always_inline]] inline int BoxLowerBound(uint64_t gram_mask,
                                                int gram_pos,
                                                const uint64_t* windows,
                                                int num_windows, int tau,
                                                int kappa) {
  const int lo = std::max(0, gram_pos - tau);
  const int hi = std::min(gram_pos + tau, num_windows - 1);
  if (lo > hi) return kappa;
  int best = 64;
  for (int u = lo; u <= hi; ++u) {
    const uint64_t diff = windows[u] ^ gram_mask;
    if constexpr (kNativePopcount) {
      best = std::min(best, __builtin_popcountll(diff));
    } else {
      best = std::min(best, std::popcount(diff));
    }
  }
  return std::min(kappa, (best + 1) >> 1);
}

/// The strong-form chain check from exact-match entry box `entry` (value
/// 0): boxes entry + 1, ..., entry + l - 1 (mod m) of the side string's
/// ring against the other string's windows. Returns the chain length at
/// which the prefix sum first exceeds its budget, or 0 if every prefix
/// fits.
template <bool kNativePopcount>
[[gnu::always_inline]] inline int ChainFailure(const ChainParams& chain,
                                               const uint64_t* ring_masks,
                                               const int* ring_positions,
                                               const uint64_t* windows,
                                               int num_windows, int entry) {
  int sum = 0;
  int box = entry;
  for (int len = 2; len <= chain.l; ++len) {
    if (++box == chain.m) box = 0;
    sum += BoxLowerBound<kNativePopcount>(ring_masks[box],
                                          ring_positions[box], windows,
                                          num_windows, chain.tau, chain.kappa);
    if (sum > chain.budget[len]) return len;
  }
  return 0;
}

using ChainCheck = int (*)(const ChainParams&, const uint64_t*, const int*,
                           const uint64_t*, int, int);

int ChainFailurePortable(const ChainParams& chain, const uint64_t* ring_masks,
                         const int* ring_positions, const uint64_t* windows,
                         int num_windows, int entry) {
  return ChainFailure<false>(chain, ring_masks, ring_positions, windows,
                             num_windows, entry);
}

#ifdef PIGEONRING_KERNELS_X86_SIMD
// The same check compiled for the popcount instruction; the inlined window
// scan's __builtin_popcountll becomes one popcnt per window.
__attribute__((target("popcnt"))) int ChainFailureNative(
    const ChainParams& chain, const uint64_t* ring_masks,
    const int* ring_positions, const uint64_t* windows, int num_windows,
    int entry) {
  return ChainFailure<true>(chain, ring_masks, ring_positions, windows,
                            num_windows, entry);
}
#endif

/// The chain check for the active kernel ISA: native popcount under AVX2
/// or AVX-512 (every such CPU has the instruction), portable otherwise.
ChainCheck PickChainCheck() {
#ifdef PIGEONRING_KERNELS_X86_SIMD
  if (kernels::ActiveIsa() != kernels::Isa::kScalar) {
    return ChainFailureNative;
  }
#endif
  return ChainFailurePortable;
}

}  // namespace

EditDistanceSearcher::EditDistanceSearcher(
    const std::vector<std::string>* data, int tau, int kappa)
    : EditDistanceSearcher(data, tau, kappa, BuildIndex(data, tau, kappa)) {}

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
  return SearchProbe(probe, filter, chain_length, range, &started, stats);
}

std::vector<int> EditDistanceSearcher::JoinProbe(int id, EditFilter filter,
                                                 int chain_length,
                                                 engine::QueryStats* stats,
                                                 IdRange range) {
  const Index& index = *index_;
  const auto masks = List(index.window_offsets, index.window_masks, id);
  const Probe probe{(*data_)[id], index.profiles[id], index.padded[id], masks};
  return SearchProbe(probe, filter, chain_length, range.Below(id), nullptr,
                     stats);
}

std::vector<int> EditDistanceSearcher::SearchProbe(const Probe& probe,
                                                   EditFilter filter,
                                                   int chain_length,
                                                   IdRange range,
                                                   const StopWatch* started,
                                                   engine::QueryStats* stats) {
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

  // Cand-1 for Pivotal, chain survivors for Ring.
  std::vector<int>& candidates = candidates_;
  candidates.clear();
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

    const bool chained = filter == EditFilter::kRing && l > 1;
    ChainParams chain{m, l, tau_, kappa_, {}};
    for (int len = 1; len <= l; ++len) chain.budget[len] = len * tau_ / m;
    const ChainCheck chain_failure = PickChainCheck();

    // The chain check from an exact-match entry box, shared by both probe
    // cases. The side string owns the ring (`ring_masks` /
    // `ring_positions` of its pivotal grams); `windows` are the other
    // string's window masks.
    auto ring_check = [&](int id, const uint64_t* ring_masks,
                          const int* ring_positions, const uint64_t* windows,
                          size_t num_windows, int entry) {
      if (decided_[id]) return;
      if (ruled_out_[id] & (uint64_t{1} << entry)) return;
      const int failed_at =
          chained ? chain_failure(chain, ring_masks, ring_positions, windows,
                                  static_cast<int>(num_windows), entry)
                  : 0;
      if (failed_at == 0) {
        add_candidate(id);
        return;
      }
      // Corollary 2: every chain through the failed prefix's boxes fails,
      // so none of them needs checking again as an entry.
      for (int off = 0, box = entry; off < failed_at; ++off) {
        ruled_out_[id] |= uint64_t{1} << box;
        if (++box == m) box = 0;
      }
    };

    // Each posting list is cut at range.begin, then selected into
    // `selected_` (the select stops at range.end); the survivors are then
    // touched and ring-checked in list order, so the per-record scratch
    // sees them exactly as a one-pass scan would. Returns the list's first
    // in-range entry and the survivor count.
    auto select = [&](const PostingLists& lists, int rank, bool x_side,
                      const Gram& g) {
      const int* ids = lists.ids.data();
      const auto cut = CutToIdRange(
          std::span<const int>(ids + lists.offsets[rank],
                               ids + lists.offsets[rank + 1]),
          IdRange{range.begin});
      const size_t first = static_cast<size_t>(cut.data() - ids);
      const kernels::PostingList list{
          cut.data(), lists.positions.data() + first,
          lists.lengths.data() + first, lists.prefix_last_ranks.data() + first,
          static_cast<int>(cut.size())};
      const size_t room = cut.size() + kernels::kSelectSlack;
      if (selected_.size() < room) selected_.resize(room);
      const kernels::SelectCounts counts = kernels::SelectPostings(
          list,
          {range.end, x_side, q_profile.prefix_last_rank, g.position, q_len,
           tau_},
          selected_.data());
      local.index_hits += counts.in_range;
      return std::pair<size_t, int>(first, counts.selected);
    };

    // Case A: x's prefix ends first; probe q's prefix grams against data
    // pivotal grams. The ring is x's.
    for (const Gram& g : q_profile.prefix) {
      if (g.rank < 0) continue;
      const auto [first, count] = select(index.pivotal, g.rank, true, g);
      for (int s = 0; s < count; ++s) {
        const size_t e = first + selected_[s];
        const int id = index.pivotal.ids[e];
        const size_t ring = static_cast<size_t>(id) * m;
        touch(id);
        ring_check(id, index.ring_masks.data() + ring,
                   index.ring_positions.data() + ring, probe.masks.data(),
                   probe.masks.size(), index.pivotal_indexes[e]);
      }
    }
    // Case B: q's prefix ends first; probe q's pivotal grams against data
    // prefix grams. The ring is q's.
    for (int j = 0; j < m; ++j) {
      const Gram& g = q_profile.pivotal[j];
      if (g.rank < 0) continue;
      const auto [first, count] = select(index.prefix, g.rank, false, g);
      for (int s = 0; s < count; ++s) {
        const int id = index.prefix.ids[first + selected_[s]];
        const size_t windows = index.window_offsets[id];
        touch(id);
        ring_check(id, q_profile.pivotal_masks.data(), q_positions.data(),
                   index.window_masks.data() + windows,
                   index.window_offsets[id + 1] - windows, j);
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
  if (started != nullptr) local.filter_millis = started->ElapsedMillis();

  std::vector<int> results;
  if (!to_verify.empty()) {
    const EditVerifier verifier(query, tau_);
    for (int id : to_verify) {
      if (verifier.Matches((*data_)[id])) results.push_back(id);
    }
  }
  std::sort(results.begin(), results.end());
  local.results = static_cast<int64_t>(results.size());
  if (started != nullptr) {
    local.total_millis = started->ElapsedMillis();
    local.verify_millis = local.total_millis - local.filter_millis;
  }
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
