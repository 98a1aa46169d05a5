// Id bounds on a search: the half-probe self-join's cut of posting lists.
//
// Every domain searcher's Search takes an `id_limit` and considers only
// the records with id < id_limit; kNoIdLimit (the default) considers all
// of them. A self-join probe p passes p, so it finds each matching pair
// once, from its larger id (all four predicates are symmetric). A bounded
// search keeps exactly the unbounded search's candidates and results
// below the limit: every filter decision is per record, and threshold
// allocation reads the unbounded index statistics.
//
// Posting lists are id-ascending, so a limit cuts each list once, at its
// end: CutAtIdLimit costs one comparison against the list's last id and,
// only when that id reaches the limit, one binary search.

#ifndef PIGEONRING_COMMON_ID_LIMIT_H_
#define PIGEONRING_COMMON_ID_LIMIT_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <span>

namespace pigeonring {

/// The id_limit of an unbounded search.
inline constexpr int kNoIdLimit = std::numeric_limits<int>::max();

/// The prefix of `list` whose ids are below `id_limit`. `list` must be
/// non-decreasing in `id_of(entry)` (the entry itself by default).
template <typename T, typename IdOf = std::identity>
std::span<const T> CutAtIdLimit(std::span<const T> list, int id_limit,
                                IdOf id_of = {}) {
  if (list.empty() || std::invoke(id_of, list.back()) < id_limit) return list;
  const auto end =
      std::partition_point(list.begin(), list.end(), [&](const T& entry) {
        return std::invoke(id_of, entry) < id_limit;
      });
  return list.first(static_cast<size_t>(end - list.begin()));
}

}  // namespace pigeonring

#endif  // PIGEONRING_COMMON_ID_LIMIT_H_
