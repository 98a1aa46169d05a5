// Token-set records under a global frequency order (§6.2).
//
// Raw datasets are bags of integer tokens. SetCollection relabels tokens to
// *ranks* by increasing frequency (rank 0 = rarest token), the global order
// used by prefix filtering, and stores each record's ranks sorted ascending
// (rarest first). Queries are mapped through the same dictionary; query
// tokens that never occur in the data are assigned unique negative ids —
// they can never match a data token, so they are inert for filtering but
// still count toward set sizes during verification.

#ifndef PIGEONRING_SETSIM_RECORD_H_
#define PIGEONRING_SETSIM_RECORD_H_

#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace pigeonring::setsim {

/// A record's tokens as global-order ranks, sorted ascending (rarest first).
using RankedSet = std::vector<int>;

/// Overlap required for J(x, y) >= tau given the two set sizes:
/// ceil((|x| + |y|) * tau / (1 + tau)).
inline int JaccardOverlapThreshold(int size_x, int size_y, double tau) {
  const double raw = (size_x + size_y) * tau / (1.0 + tau);
  return static_cast<int>(std::ceil(raw - 1e-9));
}

/// Smallest admissible |y| for J(x, y) >= tau: ceil(tau * |x|).
inline int JaccardMinSize(int size_x, double tau) {
  return static_cast<int>(std::ceil(size_x * tau - 1e-9));
}

/// Largest admissible |y| for J(x, y) >= tau: floor(|x| / tau).
inline int JaccardMaxSize(int size_x, double tau) {
  return static_cast<int>(std::floor(size_x / tau + 1e-9));
}

/// Exact overlap |x ∩ y| by sorted merge.
int Overlap(const RankedSet& x, const RankedSet& y);

/// Returns true iff |x ∩ y| >= required, with early termination as soon as
/// the bound becomes unreachable or is reached ("fast verification").
bool OverlapAtLeast(const RankedSet& x, const RankedSet& y, int required);

/// Exact Jaccard similarity.
double Jaccard(const RankedSet& x, const RankedSet& y);

/// A collection of token sets relabeled to global-order ranks.
class SetCollection {
 public:
  /// Builds the dictionary (token -> rank by increasing frequency, ties by
  /// token value) from `raw` and converts every record. Duplicate tokens
  /// within a record are removed (records are sets).
  explicit SetCollection(const std::vector<std::vector<int>>& raw);

  /// Reassembles a collection from serialized state (the storage layer's
  /// bulk-load path); nothing is re-derived. `dictionary` holds
  /// (token, rank) pairs.
  static SetCollection FromBuilt(std::vector<std::pair<int, int>> dictionary,
                                 std::vector<RankedSet> records,
                                 int universe_size);

  /// Dumps the token dictionary as (token, rank) pairs sorted by token —
  /// the deterministic form the storage layer serializes.
  std::vector<std::pair<int, int>> ExportDictionary() const;

  int num_records() const { return static_cast<int>(records_.size()); }
  int universe_size() const { return universe_size_; }
  const RankedSet& record(int id) const { return records_[id]; }
  const std::vector<RankedSet>& records() const { return records_; }

  /// Maps a raw query set to ranks. Tokens absent from the data dictionary
  /// receive unique negative ids (inert for index probing).
  RankedSet MapQuery(const std::vector<int>& raw_query) const;

  /// The raw token behind `rank`; nullopt for a rank outside the
  /// dictionary [0, universe_size()).
  std::optional<int> Token(int rank) const;

  /// Record `id` as raw token ids, sorted ascending. A well-formed record's
  /// ranks are all in the dictionary; a rank a corrupted index file
  /// smuggled past the decoder maps to itself (no-crash contract — the
  /// result is garbage either way).
  std::vector<int> RawRecord(int id) const;

 private:
  SetCollection() = default;  // for FromBuilt

  std::unordered_map<int, int> token_to_rank_;
  std::vector<int> rank_to_token_;  // the inverse dictionary
  std::vector<RankedSet> records_;
  int universe_size_ = 0;
};

}  // namespace pigeonring::setsim

#endif  // PIGEONRING_SETSIM_RECORD_H_
