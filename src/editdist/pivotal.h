// String edit distance search: the Pivotal pigeonhole baseline and the
// pigeonring (Ring) upgrade (§6.3).
//
// Filtering instance: m = tau + 1 boxes, one per pivotal q-gram of the
// applicable side (the string whose prefix ends first in the global order);
// b_i is the minimum edit distance from pivotal gram i to substrings of the
// other string whose start lies within +-tau of the gram's position;
// D(tau) = tau. ||B||_1 <= ed(x, q), so the instance is complete (not
// tight). Uniform thresholds tau/m < 1 force the first box of any
// prefix-viable chain to be an exact gram match, which the pivotal prefix
// filter finds through the inverted indexes.
//
//  * Pivotal baseline: pivotal prefix filter (Cand-1), then the alignment
//    filter — exact min substring edit distances for all m boxes summed
//    against tau (Cand-2, the l = m basic form), then verification.
//  * Ring: from each exact-match entry box, the strong-form chain check of
//    length l over cheap content-filter lower bounds (alphabet bit-vector
//    Hamming distance halved), with the Corollary-2 skip; survivors are
//    verified directly.
//
// Strings with fewer than kappa*tau + 1 grams bypass the gram machinery and
// are matched by length-window scanning (both as data and as queries).

#ifndef PIGEONRING_EDITDIST_PIVOTAL_H_
#define PIGEONRING_EDITDIST_PIVOTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "editdist/qgram.h"
#include "engine/query_stats.h"

namespace pigeonring::editdist {

/// Filtering mode for EditDistanceSearcher::Search.
enum class EditFilter {
  kPivotal,  // pivotal prefix filter + alignment filter (the baseline)
  kRing,     // pivotal prefix filter + pigeonring chain check
};

/// Searcher for ed(x, q) <= tau over a fixed string collection.
///
/// Copies are cheap and parallel-safe: the gram dictionary, per-record
/// profiles, padded strings, window masks, and the pivotal / prefix /
/// length indexes are immutable after construction and shared between
/// copies behind a shared_ptr (concurrent reads, no locks); only the
/// epoch-stamped per-query scratch is per-copy. The engine's per-thread
/// clones and the api layer's per-session cursors rely on this.
class EditDistanceSearcher {
 public:
  struct PivotalPosting {
    int id;
    int pivotal_index;
    int position;
  };
  struct PrefixPosting {
    int id;
    int position;
  };

  /// The built gram machinery: dictionary, per-record profiles, padded
  /// strings, window masks, and the pivotal / prefix / length indexes.
  /// Immutable after construction, shared between searcher copies; exposed
  /// so the storage layer can serialize and bulk-load it.
  struct Index {
    Index(const std::vector<std::string>& data, int kappa)
        : dictionary(data, kappa) {}
    /// Shell for the storage layer's bulk load: the dictionary is adopted
    /// and every other field is filled in by the loader.
    explicit Index(GramDictionary loaded_dictionary)
        : dictionary(std::move(loaded_dictionary)) {}

    GramDictionary dictionary;
    std::vector<GramProfile> profiles;
    std::vector<std::string> padded;                  // PadForGrams(record)
    std::vector<std::vector<uint64_t>> window_masks;  // over padded records
    std::unordered_map<int, std::vector<PivotalPosting>> pivotal_index;
    std::unordered_map<int, std::vector<PrefixPosting>> prefix_index;
    std::unordered_map<int, std::vector<int>> ids_by_length;
    std::vector<int> short_ids;
  };

  /// Indexes `data` for threshold `tau` with gram length `kappa` (the
  /// paper uses kappa in {2, 3} for short strings and up to 8 for long
  /// ones).
  EditDistanceSearcher(const std::vector<std::string>* data, int tau,
                       int kappa);

  /// Assembles a searcher around an already-built index (the storage
  /// layer's bulk-load path) — no profiles or postings are re-derived.
  /// `index` must describe exactly `data` under the same tau and kappa.
  static EditDistanceSearcher FromBuilt(const std::vector<std::string>* data,
                                        int tau, int kappa,
                                        std::shared_ptr<const Index> index);

  int tau() const { return tau_; }
  int num_boxes() const { return tau_ + 1; }
  const Index& index() const { return *index_; }

  /// Finds ids of all strings with ed(x, query) <= tau. `chain_length` is
  /// used only by EditFilter::kRing (clamped to [1, tau + 1]; the paper's
  /// default is min(3, tau + 1)).
  std::vector<int> Search(const std::string& query, EditFilter filter,
                          int chain_length,
                          engine::QueryStats* stats = nullptr);

 private:
  EditDistanceSearcher(const std::vector<std::string>* data, int tau,
                       int kappa, std::shared_ptr<const Index> index);

  /// Content-filter lower bound for the box of `gram_mask`@`gram_pos`
  /// against windows of the other string, whose per-position alphabet masks
  /// (mask of s[u .. u+kappa)) were precomputed (see §6.3 remark: the box
  /// check costs O(tau) popcounts). The scan stops as soon as the bound
  /// reaches `good_enough` — returning an even smaller value would not
  /// change the chain decision at the current length and a smaller lower
  /// bound is always sound.
  int ContentLowerBound(uint64_t gram_mask, int gram_pos,
                        const std::vector<uint64_t>& other_masks,
                        int good_enough) const;

  /// Precomputes the per-position window masks of `s`.
  std::vector<uint64_t> WindowMasks(const std::string& s) const;

  /// Exact alignment-filter box value (min substring edit distance).
  int ExactBox(const std::string& side, const Gram& gram,
               const std::string& other) const;

  const std::vector<std::string>* data_;
  int tau_;
  int kappa_;
  std::shared_ptr<const Index> index_;

  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
  std::vector<uint8_t> decided_;
  std::vector<uint64_t> ruled_out_;
};

/// Reference result set by exhaustive banded-DP scan.
std::vector<int> BruteForceEditSearch(const std::vector<std::string>& data,
                                      const std::string& query, int tau);

}  // namespace pigeonring::editdist

#endif  // PIGEONRING_EDITDIST_PIVOTAL_H_
