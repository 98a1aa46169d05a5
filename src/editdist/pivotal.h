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
//
// The filter phase reads flat arrays only (layout in Index). A probe walks
// rank-indexed CSR posting lists stored as columns: kernels::SelectPostings
// scans a list's id, position, length and prefix-last-rank columns for the
// side, position and length tests, stopping at the probe range's end, into
// a per-copy buffer. The survivors are then chain-checked in list order
// against the records' contiguous rings and window masks, never loading a
// profile or a string; the chain check's window scan is inlined and uses
// the popcount instruction when kernels::ActiveIsa() is AVX2 or AVX-512.
// Candidates are verified by EditVerifier (editdist/verify.h), whose
// bit-parallel pattern masks are built once per probe.

#ifndef PIGEONRING_EDITDIST_PIVOTAL_H_
#define PIGEONRING_EDITDIST_PIVOTAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/id_limit.h"
#include "common/timer.h"
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
/// profiles, padded strings, window masks, ring arrays, and the pivotal /
/// prefix / length indexes are immutable after construction and shared
/// between copies behind a shared_ptr (concurrent reads, no locks); only
/// the epoch-stamped per-query scratch and the selection and candidate
/// buffers are per-copy. The engine's per-thread clones and the api layer's
/// per-session cursors rely on this.
class EditDistanceSearcher {
 public:
  /// CSR posting lists over gram ranks (universe_size + 1 offsets), stored
  /// as columns that share `offsets`: list k is entries [offsets[k],
  /// offsets[k + 1]) of every column, in build order (ids ascending).
  /// Entry e is record ids[e]'s gram at positions[e] of its padded string;
  /// lengths[e] and prefix_last_ranks[e] (the record's length and its
  /// profile's) are derived copies, inline so that the select rejects a
  /// posting without loading the record's profile or string.
  struct PostingLists {
    std::vector<size_t> offsets;
    std::vector<int> ids;
    std::vector<int> positions;
    std::vector<int> lengths;
    std::vector<int> prefix_last_ranks;
  };

  /// The built gram machinery. Immutable after construction, shared between
  /// searcher copies; exposed so the storage layer can serialize and
  /// bulk-load it.
  ///
  /// Every index is flat. A CSR list is a half-open slice of one entry
  /// array: list k of (offsets, entries) is entries[offsets[k] ..
  /// offsets[k + 1]), in build order (ids ascending).
  ///  * pivotal / prefix: one posting list per gram rank (PostingLists),
  ///    of the records' pivotal and prefix grams; pivotal_indexes is one
  ///    more column of `pivotal`, the gram's index j in its record's ring;
  ///  * length: one list of ids per record length (max length + 2
  ///    offsets).
  /// Record id's window masks are window_masks[window_offsets[id] ..
  /// window_offsets[id + 1]), one per position of its padded string. Its
  /// ring — the masks and positions of its tau + 1 pivotal grams — sits at
  /// ring_masks / ring_positions[id * (tau + 1) + j] (zero for short
  /// records).
  ///
  /// The ring arrays and the posting lists' lengths / prefix_last_ranks
  /// columns are derived from the profiles and the strings by the adopting
  /// constructor; everything else is what the storage layer saves.
  struct Index {
    /// Every field but the dictionary is filled in by the builder or the
    /// storage layer's loader.
    explicit Index(GramDictionary grams) : dictionary(std::move(grams)) {}

    GramDictionary dictionary;
    std::vector<GramProfile> profiles;
    std::vector<std::string> padded;  // PadForGrams(record)
    std::vector<uint64_t> window_masks;
    std::vector<size_t> window_offsets;
    std::vector<uint64_t> ring_masks;
    std::vector<int> ring_positions;
    PostingLists pivotal;
    std::vector<int> pivotal_indexes;
    PostingLists prefix;
    std::vector<size_t> length_offsets;
    std::vector<int> length_ids;
    std::vector<int> short_ids;
  };

  /// Indexes `data` for threshold `tau` with gram length `kappa` (the
  /// paper uses kappa in {2, 3} for short strings and up to 8 for long
  /// ones), then adopts the index through the constructor below.
  EditDistanceSearcher(const std::vector<std::string>* data, int tau,
                       int kappa);

  /// Adopts a built index, as the build constructor and the storage
  /// layer's bulk load both do: no profiles or postings are re-derived,
  /// only the ring arrays and the postings' derived columns are filled in.
  /// `index` must describe exactly `data` under the same tau and kappa.
  EditDistanceSearcher(const std::vector<std::string>* data, int tau,
                       int kappa, std::shared_ptr<Index> index);

  int tau() const { return tau_; }
  int num_boxes() const { return tau_ + 1; }
  const Index& index() const { return *index_; }

  /// Finds ids in `range` (common/id_limit.h) of all strings with
  /// ed(x, query) <= tau. `chain_length` is used only by EditFilter::kRing
  /// (clamped to [1, tau + 1]; the paper's default is min(3, tau + 1)).
  std::vector<int> Search(const std::string& query, EditFilter filter,
                          int chain_length, engine::QueryStats* stats = nullptr,
                          IdRange range = {});

  /// Record `id`'s self-join probe: the ids and integral counters of
  /// Search((*data)[id], filter, chain_length, stats, range.Below(id)),
  /// but the probe's profile, padded string and window masks are read from
  /// the index instead of being derived again, and no clock is read (the
  /// *_millis fields stay 0).
  std::vector<int> JoinProbe(int id, EditFilter filter, int chain_length,
                             engine::QueryStats* stats = nullptr,
                             IdRange range = {});

 private:
  /// A query as the filter reads it: the string, its gram profile, and
  /// its padded form with that form's window masks (both unused when the
  /// profile is short).
  struct Probe {
    const std::string& query;
    const GramProfile& profile;
    const std::string& padded;
    std::span<const uint64_t> masks;
  };

  /// The one filter and verify body behind Search and JoinProbe. When
  /// `started` is given (Search), it was started with the query, so
  /// deriving the probe counts as filter time, and the *_millis fields are
  /// filled in; JoinProbe passes none.
  std::vector<int> SearchProbe(const Probe& probe, EditFilter filter,
                               int chain_length, IdRange range,
                               const StopWatch* started,
                               engine::QueryStats* stats);

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
  std::vector<int> selected_;    // one posting list's survivors, list order
  std::vector<int> candidates_;  // the probe's candidates, reused per probe
};

/// Reference result set by exhaustive banded-DP scan.
std::vector<int> BruteForceEditSearch(const std::vector<std::string>& data,
                                      const std::string& query, int tau);

}  // namespace pigeonring::editdist

#endif  // PIGEONRING_EDITDIST_PIVOTAL_H_
