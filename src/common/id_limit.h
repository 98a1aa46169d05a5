// Id ranges on a search: the cut of posting lists behind half-probe
// self-joins and shards.
//
// Every domain searcher's Search takes an IdRange and considers only the
// records with ids in [begin, end); the default range covers all of them.
// A self-join probe p passes [0, p), so it finds each matching pair once,
// from its larger id (all four predicates are symmetric). A shard is a
// range of the one index (shard/partitioner.h). A ranged search keeps
// exactly the unbounded search's candidates and results inside the range:
// every filter decision is per record, and threshold allocation reads the
// statistics of the whole index. So the integral counters of disjoint
// ranges sum to the unbounded counters.
//
// Posting lists are id-ascending, so a range cuts each list at its two
// ends: CutToIdRange costs one comparison per end and, only when that end
// falls inside the list, one binary search. The edit searcher cuts its
// pivotal and prefix lists at the start alone: kernels::SelectPostings
// stops at the end as it scans.

#ifndef PIGEONRING_COMMON_ID_LIMIT_H_
#define PIGEONRING_COMMON_ID_LIMIT_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <span>

namespace pigeonring {

/// The half-open id range [begin, end). The default covers every id.
struct IdRange {
  int begin = 0;
  int end = std::numeric_limits<int>::max();

  /// The part of this range below `limit`: a self-join probe's range.
  IdRange Below(int limit) const { return {begin, std::min(end, limit)}; }
  /// This range clamped to the ids [0, size) of a collection; begin <= end.
  IdRange ClampTo(int size) const {
    const int first = std::clamp(begin, 0, size);
    return {first, std::clamp(end, first, size)};
  }
};

/// The entries of `list` whose ids lie in `range`. `list` must be
/// non-decreasing in `id_of(entry)` (the entry itself by default).
template <typename T, typename IdOf = std::identity>
std::span<const T> CutToIdRange(std::span<const T> list, IdRange range,
                                IdOf id_of = {}) {
  if (list.empty()) return list;
  auto first = list.begin();
  auto last = list.end();
  if (std::invoke(id_of, list.front()) < range.begin) {
    first = std::partition_point(first, last, [&](const T& entry) {
      return std::invoke(id_of, entry) < range.begin;
    });
  }
  if (std::invoke(id_of, list.back()) >= range.end) {
    last = std::partition_point(first, last, [&](const T& entry) {
      return std::invoke(id_of, entry) < range.end;
    });
  }
  return {first, last};
}

}  // namespace pigeonring

#endif  // PIGEONRING_COMMON_ID_LIMIT_H_
