// Set similarity search: the pkwise pigeonhole baseline and its pigeonring
// (Ring) upgrade (§6.2).
//
// Boxes (ring order): b_0 = suffix overlap, b_k = class-k overlap between
// the two prefixes (k = 1..m-1). The instance is tight
// (||B(x,q)||_1 = |x ∩ q|); filtering uses the >= variant of Theorem 7 with
// the pkwise threshold sequence (see prefix.h).
//
// Candidate generation (§7):
//  * Step 1 scans the query's prefix tokens through per-token inverted lists
//    (built over data prefixes only), accumulating per-class shared counts —
//    those counts are exactly the class box values b_k.
//  * With chain_length == 1 an object is a candidate as soon as some class
//    box is viable (this is the pkwise baseline: sharing a k-wise
//    signature).
//  * With chain_length > 1 the prefix-viable chain check runs over the
//    already-known class counts; a chain reaching box 0 (the suffix box,
//    expensive to evaluate) promotes the object to a candidate immediately,
//    exactly as the paper prescribes.

#ifndef PIGEONRING_SETSIM_PKWISE_H_
#define PIGEONRING_SETSIM_PKWISE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/query_stats.h"
#include "setsim/prefix.h"
#include "setsim/record.h"

namespace pigeonring::setsim {

/// Which similarity the threshold applies to.
enum class SetMeasure {
  /// J(x, q) >= tau with tau in (0, 1]; converted per pair to the
  /// equivalent overlap threshold (§8.1).
  kJaccard,
  /// |x ∩ q| >= tau with an integral tau >= 1 (the paper's Problem 3 as
  /// stated).
  kOverlap,
};

/// pkwise / Ring searcher for thresholded set similarity queries over a
/// fixed collection.
///
/// Copies are cheap and parallel-safe: the per-record prefix metadata and
/// the prefix-token inverted index are immutable after construction and
/// shared between copies behind a shared_ptr (concurrent reads, no locks);
/// only the epoch-stamped per-query scratch is per-copy. The engine's
/// per-thread clones and the api layer's per-session cursors rely on this.
class PkwiseSearcher {
 public:
  /// The built prefix metadata + inverted index. Immutable after
  /// construction, shared between searcher copies; exposed so the storage
  /// layer can serialize and bulk-load it.
  struct Index {
    std::vector<PrefixInfo> prefixes;        // per record
    std::vector<std::vector<int>> inverted;  // token rank -> prefix ids
  };

  /// Indexes `collection` for queries with similarity >= `tau` under
  /// `measure`. `num_boxes` is m of §6.2 (m - 1 token classes + 1 suffix
  /// box); the paper's default is m = 5.
  PkwiseSearcher(const SetCollection* collection, double tau,
                 int num_boxes = 5, SetMeasure measure = SetMeasure::kJaccard);

  /// Assembles a searcher around an already-built index (the storage
  /// layer's bulk-load path) — no prefixes or postings are re-derived.
  /// `index` must describe exactly `collection` under the same parameters.
  static PkwiseSearcher FromBuilt(const SetCollection* collection, double tau,
                                  int num_boxes, SetMeasure measure,
                                  std::shared_ptr<const Index> index);

  int num_boxes() const { return num_boxes_; }
  const Index& index() const { return *index_; }

  /// Finds ids of all records with J(record, query) >= tau. `query` must be
  /// produced by SetCollection::MapQuery (or be a record of the
  /// collection). chain_length == 1 is the pkwise baseline.
  std::vector<int> Search(const RankedSet& query, int chain_length,
                          engine::QueryStats* stats = nullptr);

 private:
  PkwiseSearcher(const SetCollection* collection, double tau, int num_boxes,
                 SetMeasure measure, std::shared_ptr<const Index> index);

  /// Minimum overlap this record can need with any admissible query.
  int RecordMinOverlap(int size) const;
  /// Exact overlap requirement for a record/query size pair.
  int PairOverlap(int size_x, int size_q) const;
  /// Admissible record sizes for a query of `size`.
  std::pair<int, int> SizeWindow(int size) const;

  const SetCollection* collection_;
  double tau_;
  int num_boxes_;
  int num_classes_;  // num_boxes_ - 1
  SetMeasure measure_;
  std::shared_ptr<const Index> index_;

  // Per-query scratch (epoch-stamped).
  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
  std::vector<int> class_counts_;  // num_records * (num_classes + 1)
  std::vector<int> touched_;
};

/// Reference result set by exhaustive Jaccard scan.
std::vector<int> BruteForceJaccardSearch(const SetCollection& collection,
                                         const RankedSet& query, double tau);

/// Reference result set by exhaustive overlap scan (|x ∩ q| >= tau).
std::vector<int> BruteForceOverlapSearch(const SetCollection& collection,
                                         const RankedSet& query, int tau);

}  // namespace pigeonring::setsim

#endif  // PIGEONRING_SETSIM_PKWISE_H_
