// Edit distance verification kernels (§6.3).

#ifndef PIGEONRING_EDITDIST_VERIFY_H_
#define PIGEONRING_EDITDIST_VERIFY_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace pigeonring::editdist {

/// Banded (Ukkonen) edit distance with threshold: returns ed(a, b) if it is
/// <= tau, otherwise any value > tau. O((2 tau + 1) * max(|a|, |b|)).
int BandedEditDistance(std::string_view a, std::string_view b, int tau);

/// Threshold verifier of one query against many texts: ed(query, text)
/// <= tau. A query of at most kMaxBitParallelLength bytes runs Myers'
/// bit-parallel algorithm (J. ACM 1999; the global-distance form of Hyyrö
/// 2003): its per-byte match masks are built once, at construction, and
/// each text then costs a dozen word operations per byte, stopping once
/// the distance provably exceeds tau. Longer queries fall back to
/// BandedEditDistance.
class EditVerifier {
 public:
  static constexpr int kMaxBitParallelLength = 64;

  /// `query` must outlive the verifier.
  EditVerifier(std::string_view query, int tau);

  /// BandedEditDistance(text, query, tau)'s contract: ed(query, text) if
  /// it is <= tau, otherwise some value > tau.
  int Distance(std::string_view text) const;
  bool Matches(std::string_view text) const { return Distance(text) <= tau_; }

 private:
  std::string_view query_;
  int tau_;
  bool bit_parallel_;
  std::array<uint64_t, 256> match_{};  // bit i of match_[c]: query[i] == c
};

/// Unrestricted edit distance (full DP); reference implementation for tests
/// and small inputs.
int EditDistance(std::string_view a, std::string_view b);

/// Minimum edit distance from `pattern` to any substring b[u..v] with
/// u in [win_lo, win_hi] (inclusive, clamped) and v - u + 1 <= max_len.
/// Used by the Pivotal alignment filter: the substring start is confined to
/// the +-tau window around the pivotal gram's position and the substring
/// length to kappa + tau - 1. Semi-global DP over the window region.
int MinSubstringEditDistance(std::string_view pattern, std::string_view text,
                             int win_lo, int win_hi, int max_len);

/// Alphabet presence mask of `s`: bit (c & 63) is set iff character c
/// occurs. The content-based filter (§6.3, [114]) uses
/// ed(x, y) <= t  =>  popcount(mask(x) ^ mask(y)) <= 2 t,
/// i.e. ceil(popcount / 2) lower-bounds the edit distance. Folding the
/// alphabet to 64 bits only weakens the bound (never unsound).
uint64_t AlphabetMask(std::string_view s);

}  // namespace pigeonring::editdist

#endif  // PIGEONRING_EDITDIST_VERIFY_H_
