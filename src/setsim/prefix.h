// The pkwise prefix scheme (§6.2): class partition of the token universe,
// prefix lengths, and the per-record threshold sequence T.
//
// The token universe is partitioned into (m - 1) classes. For a record x
// with per-pair minimum overlap o, the prefix length p_x is the smallest p
// such that sum_k max(0, cnt(x, p, k) - k + 1) = |x| - o + 1, where
// cnt(x, p, k) counts class-k tokens in the p-prefix. The threshold
// sequence is
//   t_0 = |x| - p_x + 1                       (the suffix box),
//   t_k = k               if cnt(x, p_x, k) >= k,
//   t_k = cnt(x, p_x, k)+1 otherwise          (unreachable box),
// which sums to o + m - 1, as Theorem 7 (>=) requires.
//
// When the record is too short for the class structure to supply
// |x| - o + 1 signature units even with the whole record as prefix (a
// "deficit"), class thresholds are reduced toward 1 until the sum is back to
// o + m - 1. Reduced thresholds weaken the filter but never break
// completeness (a smaller ||T||_1 only admits more candidates under the >=
// sense).

#ifndef PIGEONRING_SETSIM_PREFIX_H_
#define PIGEONRING_SETSIM_PREFIX_H_

#include <vector>

#include "setsim/record.h"

namespace pigeonring::setsim {

/// Class of a token rank: classes are numbered 1..num_classes and assigned
/// round-robin over ranks (any fixed partition of the universe is valid;
/// round-robin spreads every frequency band over all classes). Handles
/// negative ranks (unknown query tokens).
inline int TokenClass(int rank, int num_classes) {
  const int c = ((rank % num_classes) + num_classes) % num_classes;
  return c + 1;
}

/// Prefix metadata for one record under a given minimum overlap.
struct PrefixInfo {
  int prefix_length = 0;       // p_x
  int last_rank = -1;          // rank of the last prefix token (-1 if empty)
  std::vector<int> class_count;      // cnt(x, p_x, k), index 0 unused
  std::vector<int> class_threshold;  // t_k, deficit-reduced; index 0 unused
  int suffix_threshold = 0;    // t_0 = |x| - p_x + 1

  /// Viability bound for the chain prefix of length `len` starting at box
  /// `start` (>= sense with integer-reduction slack 1 - len). Boxes are
  /// numbered 0 (suffix), 1..m-1 (classes) around the ring.
  int ChainBound(int start, int len) const;
};

/// Computes the prefix and threshold sequence of `tokens` (sorted ranks) for
/// minimum overlap `o` (must be >= 1) and `num_classes` classes.
PrefixInfo ComputePrefixInfo(const RankedSet& tokens, int o, int num_classes);

}  // namespace pigeonring::setsim

#endif  // PIGEONRING_SETSIM_PREFIX_H_
