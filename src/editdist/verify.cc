#include "editdist/verify.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/logging.h"

namespace pigeonring::editdist {

int BandedEditDistance(std::string_view a, std::string_view b, int tau) {
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  if (tau < 0) return 1;  // any positive value: nothing qualifies
  if (std::abs(la - lb) > tau) return tau + 1;
  if (la == 0) return lb;
  if (lb == 0) return la;
  const int big = tau + 1;
  // dp[j] = edit distance for prefixes a[0..i), b[0..j), banded to
  // |i - j| <= tau. The row lives on the stack unless b is long.
  constexpr int kStackRow = 256;
  int stack_row[kStackRow];
  std::vector<int> heap_row;
  int* dp = stack_row;
  if (lb + 1 > kStackRow) {
    heap_row.resize(lb + 1);
    dp = heap_row.data();
  }
  std::fill(dp, dp + lb + 1, big);
  for (int j = 0; j <= std::min(lb, tau); ++j) dp[j] = j;
  for (int i = 1; i <= la; ++i) {
    const int lo = std::max(1, i - tau);
    const int hi = std::min(lb, i + tau);
    int diag = dp[lo - 1];           // dp_{i-1}[lo-1]
    if (lo == 1) dp[0] = i <= tau ? i : big;
    int row_min = lo > 1 ? big : dp[0];
    for (int j = lo; j <= hi; ++j) {
      const int up = dp[j];          // dp_{i-1}[j]
      int best = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      if (up + 1 < best) best = up + 1;        // delete from a
      if (dp[j - 1] + 1 < best) best = dp[j - 1] + 1;  // insert into a
      if (best > big) best = big;
      diag = up;
      dp[j] = best;
      row_min = std::min(row_min, best);
    }
    if (hi < lb) dp[hi + 1] = big;  // invalidate cell outside the new band
    if (row_min > tau) return tau + 1;  // the whole band exceeded tau
  }
  return dp[lb];
}

EditVerifier::EditVerifier(std::string_view query, int tau)
    : query_(query),
      tau_(tau),
      bit_parallel_(query.size() <= kMaxBitParallelLength) {
  if (!bit_parallel_) return;
  for (size_t i = 0; i < query.size(); ++i) {
    match_[static_cast<unsigned char>(query[i])] |= uint64_t{1} << i;
  }
}

int EditVerifier::Distance(std::string_view text) const {
  const int m = static_cast<int>(query_.size());
  const int n = static_cast<int>(text.size());
  if (tau_ < 0 || std::abs(m - n) > tau_) return tau_ + 1;
  if (!bit_parallel_) return BandedEditDistance(text, query_, tau_);
  if (m == 0) return n;
  // Column j of the DP over query (rows) x text (columns) as vertical
  // deltas: bit i of pv / mv is set iff D[i+1][j] - D[i][j] is +1 / -1.
  // Bits above m - 1 carry garbage that never flows down: additions and
  // shifts only move information toward higher bits. `score` tracks
  // D[m][j], the bottom row.
  const uint64_t bottom = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = m;
  for (int j = 0; j < n; ++j) {
    const uint64_t eq = match_[static_cast<unsigned char>(text[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    score += static_cast<int>((ph & bottom) != 0) -
             static_cast<int>((mh & bottom) != 0);
    // Row 0 is D[0][j] = j: every horizontal delta entering it is +1.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    // Each of the n - j - 1 remaining bytes lowers the score by at most 1.
    if (score - (n - j - 1) > tau_) return tau_ + 1;
  }
  return score;
}

int EditDistance(std::string_view a, std::string_view b) {
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  std::vector<int> dp(lb + 1);
  for (int j = 0; j <= lb; ++j) dp[j] = j;
  for (int i = 1; i <= la; ++i) {
    int diag = dp[0];
    dp[0] = i;
    for (int j = 1; j <= lb; ++j) {
      const int up = dp[j];
      dp[j] = std::min({diag + (a[i - 1] == b[j - 1] ? 0 : 1), up + 1,
                        dp[j - 1] + 1});
      diag = up;
    }
  }
  return dp[lb];
}

int MinSubstringEditDistance(std::string_view pattern, std::string_view text,
                             int win_lo, int win_hi, int max_len) {
  const int lp = static_cast<int>(pattern.size());
  const int lt = static_cast<int>(text.size());
  win_lo = std::max(win_lo, 0);
  win_hi = std::min(win_hi, lt - 1);
  if (lp == 0) return 0;
  if (win_lo > win_hi || lt == 0) return lp;  // no admissible substring
  // Region of text reachable: starts in [win_lo, win_hi], lengths up to
  // max_len.
  const int region_end = std::min(lt, win_hi + max_len);  // exclusive
  const int region_len = region_end - win_lo;
  // Semi-global DP: dp[i][j] = min edit distance from pattern[0..i) to a
  // substring of region ending at region position j, with free start at any
  // window position. Row 0 is 0 at positions j corresponding to starts in
  // [win_lo, win_hi] (empty substring started there), and increases outside.
  std::vector<int> prev(region_len + 1), cur(region_len + 1);
  const int window_width = win_hi - win_lo;  // starts allowed: 0..window_width
  for (int j = 0; j <= region_len; ++j) {
    prev[j] = j <= window_width ? 0 : j - window_width;
  }
  int best = lp;  // empty substring from any window start costs lp
  for (int i = 1; i <= lp; ++i) {
    cur[0] = i;
    for (int j = 1; j <= region_len; ++j) {
      const char tc = text[win_lo + j - 1];
      cur[j] = std::min({prev[j - 1] + (pattern[i - 1] == tc ? 0 : 1),
                         prev[j] + 1, cur[j - 1] + 1});
    }
    prev.swap(cur);
  }
  // Free end anywhere in the region, but the substring length constraint
  // (v - u + 1 <= max_len) is enforced approximately by the region bound;
  // substrings longer than max_len only ever increase the distance for
  // patterns of length <= max_len, so this is a valid lower bound and exact
  // whenever lp <= max_len (always true for the alignment filter, where
  // max_len = kappa + tau - 1 >= lp = kappa).
  for (int j = 0; j <= region_len; ++j) best = std::min(best, prev[j]);
  return best;
}

uint64_t AlphabetMask(std::string_view s) {
  uint64_t mask = 0;
  for (char c : s) mask |= uint64_t{1} << (static_cast<unsigned char>(c) & 63);
  return mask;
}

}  // namespace pigeonring::editdist
