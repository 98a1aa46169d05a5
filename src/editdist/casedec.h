// Fixed-length edit distance fast path: case decomposition onto the
// vectorized Hamming stack (ROADMAP item 5(a)).
//
// For a collection whose strings all share one length L, an optimal
// alignment between two members has an equal number j of insertions and
// deletions, so ed(x, q) = s + 2 j where s counts substitutions. Hence
//
//   ed(x, q) <= tau  <=>  exists j in [0, floor(tau / 2)] and j-element
//   deletion sets D_x, D_q with Ham(x \ D_x, q \ D_q) <= tau - 2 j,
//
// where the Hamming distance is taken position-by-position over the two
// (L - j)-character remnants. Each case j therefore reduces to a Hamming
// search over the deletion neighborhood: every record contributes C(L, j)
// signature rows (one per deletion set, lexicographic order), the query
// probes with its own C(L, j) variants, and survivors are confirmed with
// EditVerifier (editdist/verify.h: bit-parallel for L <= 64, banded DP
// above), its pattern masks built once per query. Signatures one-hot code
// each remnant character into 32 bits (c & 31 — exact for lowercase a..z,
// merely folded for wider alphabets), so a character mismatch costs
// exactly 2 signature bits and filtering at 2 (tau - 2 j) bits is
// complete; folding only weakens the filter, never its completeness. The
// per-case searches reuse the whole pigeonring Hamming machinery —
// partition index, threshold allocation, chain filter, and the
// AVX2/AVX-512 verification kernels.
//
// An optimal alignment never deletes all L characters (substituting
// everything costs L < 2 L), so j <= L - 1; and any case whose character
// threshold tau - 2 j reaches the remnant length L - j passes every pair,
// at which point filtering is pointless and the searcher degenerates to
// verify-only (cases() is empty exactly when tau >= L or the collection
// is empty). Queries whose length differs from L fall back to a
// verify-every-record scan (sound; self-joins over a fixed-length
// collection never hit it).

#ifndef PIGEONRING_EDITDIST_CASEDEC_H_
#define PIGEONRING_EDITDIST_CASEDEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/id_limit.h"
#include "common/logging.h"
#include "engine/query_stats.h"
#include "hamming/search.h"

namespace pigeonring::editdist {

/// Searcher for ed(x, q) <= tau over a fixed-length string collection via
/// case decomposition.
///
/// Copies are cheap and parallel-safe: each per-case HammingSearcher shares
/// its immutable index state between copies, and the only other mutable
/// member is the epoch-stamped record-dedup scratch. The engine's
/// per-thread clones rely on this.
class CaseDecSearcher {
 public:
  /// Longest eligible string: keeps every per-case signature within the
  /// partition layer's 64-part ceiling (d = 128 * 32 bits -> 64 parts of
  /// one 64-bit word each).
  static constexpr int kMaxLength = 128;
  /// One-hot signature width per remnant character.
  static constexpr int kBitsPerChar = 32;

  /// Returns the shared length if every string in `data` has the same
  /// length in [1, kMaxLength], 0 for an empty collection (trivially
  /// eligible), and -1 if the collection is ineligible (mixed lengths,
  /// empty strings, or strings longer than kMaxLength).
  static int UniformLength(const std::vector<std::string>& data);

  static bool Eligible(const std::vector<std::string>& data) {
    return UniformLength(data) >= 0;
  }

  /// One indel case: a Hamming searcher over the n * C(L, indels)
  /// signature rows of the whole collection, filtered at `hamming_tau` =
  /// 2 * (tau - 2 * indels) signature bits. Exposed so the storage layer
  /// can serialize and bulk-load the built state.
  ///
  /// `exact` is derived acceleration state, never persisted: when
  /// hamming_tau == 0 the filter demands remnant *equality*, so probing
  /// the partition index degenerates into scanning one part's bucket and
  /// chain-checking every row in it. A sorted (remnant hash, row) table
  /// answers the same question with one binary search per query variant;
  /// hash collisions only admit extra candidates, which verification
  /// removes. The adopting constructor derives it from `data`, so built
  /// and loaded searchers behave identically.
  struct Case {
    int indels;
    int hamming_tau;
    hamming::HammingSearcher searcher;
    std::shared_ptr<const std::vector<std::pair<uint64_t, int32_t>>> exact;
  };

  /// Indexes `data` (which must outlive the searcher and every copy) for
  /// threshold `tau`, then adopts the cases through the constructor below.
  /// `data` must be eligible per UniformLength.
  CaseDecSearcher(const std::vector<std::string>* data, int tau);

  /// Adopts built per-case indexes, as the build constructor and the
  /// storage layer's bulk load both do. `cases` must match exactly what
  /// the build constructor would build for (`data`, `tau`).
  CaseDecSearcher(const std::vector<std::string>* data, int tau,
                  std::vector<Case> cases);

  int tau() const { return tau_; }
  int length() const { return length_; }
  int num_records() const { return static_cast<int>(data_->size()); }
  const std::vector<Case>& cases() const { return cases_; }

  /// Finds ids in `range` (common/id_limit.h) of all strings with
  /// ed(x, query) <= tau, identical to the pivotal path's result set.
  /// `chain_length` is forwarded to the per-case Hamming chain filter
  /// (clamped to each case's part count). Rows are record-major, so case j
  /// searches the rows [begin * C(L, j), end * C(L, j)).
  std::vector<int> Search(const std::string& query, int chain_length,
                          engine::QueryStats* stats = nullptr,
                          IdRange range = {});

  // --- building blocks, exposed for the storage codec and tests ---

  /// Number of indel cases built for (`length`, `tau`): 0 when length is 0
  /// or tau >= length (verify-only), else min(floor(tau / 2), length - 1)
  /// + 1.
  static int NumCases(int length, int tau);

  /// C(length, indels), saturated at INT64_MAX.
  static int64_t VariantsPerRecord(int length, int indels);

  /// Part count for one case: wide enough that no part exceeds 64 bits,
  /// and at least hamming_tau + 1 parts when the signature affords them,
  /// so the pigeonhole principle forces a radius-0 (exact hash) probe in
  /// some part.
  static int CaseNumParts(int length, int indels, int hamming_tau);

  /// Signature of `s` with the characters at positions `deleted` (strictly
  /// increasing, possibly empty) removed: remnant position k with
  /// character c sets bit k * kBitsPerChar + (c & 31).
  static BitVector EncodeVariant(std::string_view s,
                                 const std::vector<int>& deleted);

  /// Enumerates the strictly increasing `indels`-element subsets of
  /// [0, length) in lexicographic order. Requires indels <= length.
  template <typename Fn>
  static void ForEachDeletionSet(int length, int indels, Fn&& fn) {
    PR_CHECK(0 <= indels && indels <= length);
    std::vector<int> deleted(indels);
    for (int i = 0; i < indels; ++i) deleted[i] = i;
    if (indels == 0) {
      fn(static_cast<const std::vector<int>&>(deleted));
      return;
    }
    while (true) {
      fn(static_cast<const std::vector<int>&>(deleted));
      int i = indels - 1;
      while (i >= 0 && deleted[i] == length - indels + i) --i;
      if (i < 0) break;
      ++deleted[i];
      for (int k = i + 1; k < indels; ++k) deleted[k] = deleted[k - 1] + 1;
    }
  }

  /// All signature rows of one case over the whole collection, in row
  /// order: record-major, deletion sets lexicographic within a record.
  /// Row r belongs to record r / C(length, indels).
  static std::vector<BitVector> BuildCaseRows(
      const std::vector<std::string>& data, int length, int indels);

  /// FNV-1a over the remnant of `s` after removing the characters at
  /// positions `deleted` (strictly increasing). Characters are folded to
  /// 5 bits first so the hash identifies exactly what the one-hot
  /// signature encodes.
  static uint64_t HashVariant(std::string_view s,
                              const std::vector<int>& deleted);

  /// The exact-match table of one case: every (HashVariant, row) pair of
  /// the collection, sorted by hash then row. Same row numbering as
  /// BuildCaseRows.
  static std::vector<std::pair<uint64_t, int32_t>> BuildExactIndex(
      const std::vector<std::string>& data, int length, int indels);

 private:
  const std::vector<std::string>* data_ = nullptr;
  int tau_ = 0;
  int length_ = 0;
  std::vector<Case> cases_;

  // Per-query record-dedup scratch, epoch-stamped so no O(N) clearing.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
};

}  // namespace pigeonring::editdist

#endif  // PIGEONRING_EDITDIST_CASEDEC_H_
