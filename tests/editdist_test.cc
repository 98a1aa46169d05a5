// Unit, integration, and property tests for string edit distance search
// (verification kernels, q-gram machinery, Pivotal baseline, Ring upgrade).
// The end-to-end oracles run once per supported kernel ISA, so every
// posting-select path and both chain-check popcount paths meet brute
// force.

#include "editdist/pivotal.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/bitvector.h"
#include "common/random.h"
#include "datagen/strings.h"
#include "editdist/qgram.h"
#include "editdist/verify.h"
#include "kernels/kernels.h"

namespace pigeonring::editdist {
namespace {

using datagen::GenerateStrings;
using datagen::StringConfig;

std::string RandomString(Rng& rng, int min_len, int max_len, int alphabet) {
  const int len = static_cast<int>(rng.NextInRange(min_len, max_len));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBounded(alphabet)));
  }
  return s;
}

// Every kernel ISA this CPU and build support, weakest first.
std::vector<kernels::Isa> SupportedIsas() {
  const kernels::Isa saved = kernels::ActiveIsa();
  std::vector<kernels::Isa> isas;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (kernels::SetActiveIsa(isa)) isas.push_back(isa);
  }
  kernels::SetActiveIsa(saved);
  return isas;
}

// Restores the best ISA when a test that pins paths exits.
class IsaGuard {
 public:
  IsaGuard() = default;
  ~IsaGuard() { kernels::SetActiveIsa(kernels::BestIsa()); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

// ---------------------------------------------------------------------------
// Verification kernels.
// ---------------------------------------------------------------------------

TEST(VerifyTest, EditDistanceKnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("abc", "abd"), 1);
  EXPECT_EQ(EditDistance("llabcdefkk", "llabghijkk"), 4);  // paper Example 11
}

TEST(VerifyTest, BandedMatchesFullDpWithinThreshold) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = RandomString(rng, 0, 20, 4);
    const std::string b = RandomString(rng, 0, 20, 4);
    const int exact = EditDistance(a, b);
    for (int tau : {0, 1, 2, 3, 5, 8}) {
      const int banded = BandedEditDistance(a, b, tau);
      if (exact <= tau) {
        EXPECT_EQ(banded, exact) << a << " vs " << b << " tau=" << tau;
      } else {
        EXPECT_GT(banded, tau) << a << " vs " << b << " tau=" << tau;
      }
    }
  }
}

// Random bytes over `alphabet` letters, or over bytes >= 0x80 when
// `high` is set.
std::string RandomBytes(Rng& rng, int len, int alphabet, bool high) {
  std::string s;
  for (int i = 0; i < len; ++i) {
    const int c = static_cast<int>(rng.NextBounded(alphabet));
    s.push_back(static_cast<char>(high ? 0x80 + c : 'a' + c));
  }
  return s;
}

// `s` with `edits` random substitutions, insertions and deletions.
std::string Mutated(std::string s, int edits, int alphabet, bool high,
                    Rng& rng) {
  for (int e = 0; e < edits; ++e) {
    const std::string c = RandomBytes(rng, 1, alphabet, high);
    const int op = static_cast<int>(rng.NextBounded(3));
    if (op == 0 || s.empty()) {
      s.insert(rng.NextBounded(s.size() + 1), c);
    } else if (op == 1) {
      s.erase(rng.NextBounded(s.size()), 1);
    } else {
      s[rng.NextBounded(s.size())] = c[0];
    }
  }
  return s;
}

TEST(VerifyTest, EditVerifierMatchesFullDpAroundTheWordLength) {
  Rng rng(47);
  for (const int len : {0, 1, 2, 16, 63, 64, 65, 80}) {
    for (const bool high : {false, true}) {
      for (int trial = 0; trial < 40; ++trial) {
        const int alphabet = trial % 2 == 0 ? 2 : 26;
        const std::string query = RandomBytes(rng, len, alphabet, high);
        // Near copies and unrelated strings, around the query's length.
        const std::string text =
            trial % 4 == 3
                ? RandomBytes(rng,
                              std::max(0, len - 2 +
                                              static_cast<int>(
                                                  rng.NextBounded(5))),
                              alphabet, high)
                : Mutated(query, static_cast<int>(rng.NextBounded(6)),
                          alphabet, high, rng);
        const int exact = EditDistance(query, text);
        for (int tau = 0; tau <= 4; ++tau) {
          const EditVerifier verifier(query, tau);
          const int got = verifier.Distance(text);
          if (exact <= tau) {
            EXPECT_EQ(got, exact) << "len=" << len << " tau=" << tau;
          } else {
            EXPECT_GT(got, tau) << "len=" << len << " tau=" << tau;
          }
          EXPECT_EQ(verifier.Matches(text), exact <= tau);
        }
      }
    }
  }
}

TEST(VerifyTest, MinSubstringEditDistanceBasics) {
  // Pattern occurs exactly inside the window: distance 0.
  EXPECT_EQ(MinSubstringEditDistance("abc", "xxabcxx", 0, 6, 5), 0);
  // Window excludes the occurrence.
  EXPECT_GT(MinSubstringEditDistance("abc", "abcxxxx", 3, 6, 5), 0);
  // Empty text region.
  EXPECT_EQ(MinSubstringEditDistance("ab", "xyz", 5, 9, 4), 2);
}

TEST(VerifyTest, MinSubstringEditDistanceMatchesBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string pattern = RandomString(rng, 1, 4, 3);
    const std::string text = RandomString(rng, 0, 12, 3);
    const int win_lo = static_cast<int>(rng.NextInRange(-2, 10));
    const int win_hi = win_lo + static_cast<int>(rng.NextBounded(6));
    const int max_len =
        static_cast<int>(pattern.size()) + static_cast<int>(rng.NextBounded(4));
    int expected = static_cast<int>(pattern.size());
    for (int u = std::max(0, win_lo);
         u <= std::min(win_hi, static_cast<int>(text.size()) - 1); ++u) {
      for (int len = 0;
           len <= max_len && u + len <= static_cast<int>(text.size()); ++len) {
        expected = std::min(
            expected, EditDistance(pattern, text.substr(u, len)));
      }
    }
    const int got =
        MinSubstringEditDistance(pattern, text, win_lo, win_hi, max_len);
    // The implementation may consider slightly longer substrings (it is a
    // lower bound; see verify.cc), so got <= expected, and both agree when
    // the pattern fits in max_len.
    EXPECT_LE(got, expected);
    EXPECT_GE(got, 0);
  }
}

TEST(VerifyTest, AlphabetMaskAndContentFilterBound) {
  // ed(x, y) <= t implies popcount(mask(x) ^ mask(y)) <= 2t, so
  // ceil(popcount / 2) <= ed.
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = RandomString(rng, 0, 10, 8);
    const std::string b = RandomString(rng, 0, 10, 8);
    const int ed = EditDistance(a, b);
    const int hamming = Popcount64(AlphabetMask(a) ^ AlphabetMask(b));
    EXPECT_LE((hamming + 1) / 2, ed) << a << " vs " << b;
  }
}

// ---------------------------------------------------------------------------
// q-gram machinery.
// ---------------------------------------------------------------------------

TEST(QgramTest, ProfileSelectsRequestedCounts) {
  const std::vector<std::string> data = {"abcdefghijkl", "abcabcabcabc",
                                         "mnopqrstuvwx"};
  GramDictionary dict(data, 2);
  const int tau = 2;
  for (const std::string& s : data) {
    const GramProfile profile = dict.Profile(s, tau);
    ASSERT_FALSE(profile.is_short);
    EXPECT_GE(static_cast<int>(profile.prefix.size()), 2 * tau + 1);
    EXPECT_EQ(static_cast<int>(profile.pivotal.size()), tau + 1);
    // Pivotal grams are pairwise disjoint and sorted by position.
    for (size_t j = 1; j < profile.pivotal.size(); ++j) {
      EXPECT_GE(profile.pivotal[j].position,
                profile.pivotal[j - 1].position + 2);
    }
    // Prefix is sorted by (rank, position).
    for (size_t j = 1; j < profile.prefix.size(); ++j) {
      EXPECT_LE(profile.prefix[j - 1].rank, profile.prefix[j].rank);
    }
  }
}

TEST(QgramTest, ShortStringsAreFlagged) {
  // With padding, a string of length n yields n + kappa - 1 grams, so the
  // short flag trips when n + kappa - 1 < kappa*tau + 1.
  GramDictionary dict({"abcdefgh"}, 3);
  EXPECT_TRUE(dict.Profile("", 1).is_short);         // 2 grams < 4
  EXPECT_FALSE(dict.Profile("ab", 1).is_short);      // 4 grams >= 4
  EXPECT_TRUE(dict.Profile("abcd", 2).is_short);     // 6 grams < 7
  EXPECT_FALSE(dict.Profile("abcde", 2).is_short);   // 7 grams >= 7
  EXPECT_FALSE(dict.Profile("abcdefgh", 1).is_short);
}

TEST(QgramTest, UnknownQueryGramsGetNegativeRanks) {
  GramDictionary dict({"aaaa"}, 2);
  const GramProfile profile = dict.Profile("zzzz", 1);
  ASSERT_FALSE(profile.is_short);
  for (const Gram& g : profile.prefix) EXPECT_LT(g.rank, 0);
}

// ---------------------------------------------------------------------------
// End-to-end correctness.
// ---------------------------------------------------------------------------

struct EditCase {
  int avg_length;
  int tau;
  int kappa;
  EditFilter filter;
  int chain_length;
};

// Applies `edits` random edits to `s`: kind 0 inserts, kind 1 deletes
// (while characters remain), kind 2 mixes insertions, deletions and
// substitutions. Inserted and substituted characters are lowercase or
// uppercase letters.
std::string WithRandomEdits(std::string s, int edits, int kind, Rng& rng) {
  for (int e = 0; e < edits; ++e) {
    const int op = kind == 2 ? static_cast<int>(rng.NextBounded(3)) : kind;
    const char c = static_cast<char>((rng.NextBounded(2) == 0 ? 'a' : 'A') +
                                     rng.NextBounded(26));
    if (op == 0 || s.empty()) {
      s.insert(rng.NextBounded(s.size() + 1), 1, c);
    } else if (op == 1) {
      s.erase(rng.NextBounded(s.size()), 1);
    } else {
      s[rng.NextBounded(s.size())] = c;
    }
  }
  return s;
}

class EditSearchCorrectness : public ::testing::TestWithParam<EditCase> {};

TEST_P(EditSearchCorrectness, MatchesBruteForce) {
  const auto [avg_length, tau, kappa, filter, chain_length] = GetParam();
  StringConfig config;
  config.num_records = 1200;
  config.avg_length = avg_length;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = std::max(1, tau);
  config.seed = 500 + avg_length + tau;
  const auto data = GenerateStrings(config);
  EditDistanceSearcher searcher(&data, tau, kappa);
  Rng rng(19);
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(data[rng.NextBounded(data.size())]);
  }
  // Queries outside the collection: sampled records with tau + 1 random
  // edits (all insertions, all deletions, or mixed, so lengths reach the
  // +-tau window edges; uppercase inserts make grams the dictionary has
  // never seen, which get negative ranks), and one string of bytes >= 0x80.
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        WithRandomEdits(data[rng.NextBounded(data.size())], tau + 1, i % 3,
                        rng));
  }
  queries.push_back(std::string(static_cast<size_t>(avg_length), '\xC3') +
                    "\x80\xFF\xA9");
  std::vector<std::vector<int>> expected;
  for (const std::string& query : queries) {
    expected.push_back(BruteForceEditSearch(data, query, tau));
  }
  IsaGuard guard;
  for (const kernels::Isa isa : SupportedIsas()) {
    ASSERT_TRUE(kernels::SetActiveIsa(isa));
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(searcher.Search(queries[i], filter, chain_length),
                expected[i])
          << "query=" << queries[i] << " tau=" << tau
          << " isa=" << kernels::IsaName(isa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EditSearchCorrectness,
    ::testing::Values(
        EditCase{16, 1, 3, EditFilter::kPivotal, 1},
        EditCase{16, 2, 2, EditFilter::kPivotal, 1},
        EditCase{16, 2, 2, EditFilter::kRing, 2},
        EditCase{16, 2, 2, EditFilter::kRing, 3},
        EditCase{16, 4, 2, EditFilter::kRing, 3},
        EditCase{40, 4, 4, EditFilter::kRing, 3},
        EditCase{40, 6, 4, EditFilter::kPivotal, 1},
        EditCase{40, 6, 4, EditFilter::kRing, 4},
        EditCase{101, 8, 6, EditFilter::kRing, 3},
        EditCase{16, 0, 2, EditFilter::kRing, 1}),
    [](const ::testing::TestParamInfo<EditCase>& info) {
      return "len" + std::to_string(info.param.avg_length) + "_tau" +
             std::to_string(info.param.tau) + "_k" +
             std::to_string(info.param.kappa) +
             (info.param.filter == EditFilter::kPivotal ? "_piv" : "_ring") +
             "_l" + std::to_string(info.param.chain_length);
    });

// Every record's join probe against brute force over the ids below it,
// at every ISA, for both filters.
TEST(EditSearchTest, SelfJoinMatchesBruteForceOnEveryIsa) {
  StringConfig config;
  config.num_records = 400;
  config.avg_length = 16;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 43;
  const auto data = GenerateStrings(config);
  EditDistanceSearcher searcher(&data, 2, 2);
  std::vector<std::vector<int>> expected(data.size());
  for (size_t p = 0; p < data.size(); ++p) {
    for (size_t id = 0; id < p; ++id) {
      if (EditDistance(data[id], data[p]) <= 2) {
        expected[p].push_back(static_cast<int>(id));
      }
    }
  }
  IsaGuard guard;
  for (const kernels::Isa isa : SupportedIsas()) {
    ASSERT_TRUE(kernels::SetActiveIsa(isa));
    for (const auto [filter, l] : {std::pair{EditFilter::kPivotal, 1},
                                   std::pair{EditFilter::kRing, 3}}) {
      for (size_t p = 0; p < data.size(); ++p) {
        EXPECT_EQ(searcher.JoinProbe(static_cast<int>(p), filter, l),
                  expected[p])
            << "probe=" << p << " isa=" << kernels::IsaName(isa);
      }
    }
  }
}

// The chain check compiled for the popcount instruction (AVX2 / AVX-512
// active) decides every box exactly as the portable loop (scalar pinned):
// same ids and same integral counters, chain lengths 2..m.
TEST(EditSearchTest, ChainCheckPortableMatchesNativePopcount) {
  const std::vector<kernels::Isa> isas = SupportedIsas();
  if (isas.size() < 2) GTEST_SKIP() << "no SIMD ISA: one chain-check path";
  StringConfig config;
  config.num_records = 1500;
  config.avg_length = 24;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 4;
  config.seed = 53;
  const auto data = GenerateStrings(config);
  IsaGuard guard;
  for (const int tau : {2, 4}) {
    EditDistanceSearcher searcher(&data, tau, 2);
    for (int l = 2; l <= tau + 1; ++l) {
      for (int p = 0; p < 300; ++p) {
        std::vector<int> want;
        engine::QueryStats want_stats;
        for (const kernels::Isa isa : isas) {
          ASSERT_TRUE(kernels::SetActiveIsa(isa));
          engine::QueryStats stats;
          const std::vector<int> got =
              searcher.JoinProbe(p, EditFilter::kRing, l, &stats);
          if (isa == kernels::Isa::kScalar) {
            want = got;
            want_stats = stats;
            continue;
          }
          EXPECT_EQ(got, want) << "probe=" << p << " l=" << l;
          EXPECT_EQ(stats.index_hits, want_stats.index_hits);
          EXPECT_EQ(stats.candidates, want_stats.candidates)
              << "probe=" << p << " tau=" << tau << " l=" << l
              << " isa=" << kernels::IsaName(isa);
          EXPECT_EQ(stats.results, want_stats.results);
        }
      }
    }
  }
}

TEST(EditSearchTest, PerturbedCopiesAreFound) {
  StringConfig config;
  config.num_records = 300;
  config.avg_length = 20;
  config.duplicate_fraction = 0.0;
  config.seed = 23;
  auto data = GenerateStrings(config);
  // Plant three known near-duplicates of data[0].
  std::string base = data[0];
  std::string sub = base;
  sub[2] = sub[2] == 'a' ? 'b' : 'a';
  std::string del = base.substr(0, 4) + base.substr(5);
  std::string ins = base.substr(0, 3) + "q" + base.substr(3);
  data.push_back(sub);
  data.push_back(del);
  data.push_back(ins);
  EditDistanceSearcher searcher(&data, 2, 2);
  const auto results = searcher.Search(base, EditFilter::kRing, 3);
  for (int planted : {300, 301, 302}) {
    EXPECT_TRUE(std::find(results.begin(), results.end(), planted) !=
                results.end())
        << "missing planted near-duplicate " << planted;
  }
}

TEST(EditSearchTest, RingNeverHasMoreStage2CandidatesGrowingChains) {
  StringConfig config;
  config.num_records = 2000;
  config.avg_length = 24;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 4;
  config.seed = 29;
  const auto data = GenerateStrings(config);
  EditDistanceSearcher searcher(&data, 4, 2);
  Rng rng(31);
  for (int i = 0; i < 8; ++i) {
    const std::string& query = data[rng.NextBounded(data.size())];
    int64_t prev = std::numeric_limits<int64_t>::max();
    std::vector<int> baseline;
    for (int l = 1; l <= 5; ++l) {
      engine::QueryStats stats;
      auto results = searcher.Search(query, EditFilter::kRing, l, &stats);
      EXPECT_LE(stats.candidates, prev);
      prev = stats.candidates;
      if (l == 1) {
        baseline = results;
      } else {
        EXPECT_EQ(results, baseline);
      }
    }
  }
}

TEST(EditSearchTest, PivotalStagesAreNested) {
  // Cand-2 (alignment filter) <= Cand-1 (pivotal prefix filter), and
  // results <= Cand-2.
  StringConfig config;
  config.num_records = 2000;
  config.avg_length = 24;
  config.duplicate_fraction = 0.4;
  config.seed = 37;
  const auto data = GenerateStrings(config);
  EditDistanceSearcher searcher(&data, 3, 2);
  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    engine::QueryStats stats;
    searcher.Search(data[rng.NextBounded(data.size())], EditFilter::kPivotal,
                    1, &stats);
    EXPECT_LE(stats.candidates_stage2, stats.candidates);
    EXPECT_LE(stats.results, stats.candidates_stage2);
  }
}

TEST(EditSearchTest, TauZeroIsExactMatch) {
  const std::vector<std::string> data = {"alpha", "beta", "alpha", "gamma"};
  EditDistanceSearcher searcher(&data, 0, 2);
  const auto results = searcher.Search("alpha", EditFilter::kRing, 1);
  EXPECT_EQ(results, (std::vector<int>{0, 2}));
}

TEST(EditSearchTest, ShortQueriesAndShortData) {
  // Strings shorter than the gram scheme must still be searched correctly
  // through the length-window fallback.
  const std::vector<std::string> data = {"ab", "abc", "abcd", "xy",
                                         "abcdefghij", "b"};
  EditDistanceSearcher searcher(&data, 2, 3);
  for (const std::string query : {"ab", "abc", "abcdefghij", ""}) {
    const auto expected = BruteForceEditSearch(data, query, 2);
    EXPECT_EQ(searcher.Search(query, EditFilter::kRing, 2), expected)
        << "query=" << query;
  }
}

TEST(DatagenTest, StringsDeterministicAndShaped) {
  StringConfig config;
  config.num_records = 300;
  config.avg_length = 16;
  config.seed = 5;
  const auto a = GenerateStrings(config);
  const auto b = GenerateStrings(config);
  EXPECT_EQ(a, b);
  double total = 0;
  for (const auto& s : a) total += s.size();
  EXPECT_NEAR(total / a.size(), 16.0, 5.0);
}

TEST(DatagenTest, FixedLengthModeIsUniformAndDeterministic) {
  StringConfig config;
  config.num_records = 400;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.5;
  config.max_perturb_edits = 3;
  config.seed = 7;
  const auto a = GenerateStrings(config);
  const auto b = GenerateStrings(config);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 400u);
  for (const auto& s : a) {
    ASSERT_EQ(s.size(), 12u);
    for (char c : s) {
      ASSERT_GE(c, 'a');
      ASSERT_LT(c, 'a' + 26);
    }
  }
  // The near-copy machinery must still produce close pairs in fixed mode:
  // with half the records perturbed copies, some pair sits within tau = 3.
  bool close_pair = false;
  for (size_t i = 1; i < a.size() && !close_pair; ++i) {
    for (size_t j = 0; j < i && !close_pair; ++j) {
      if (BandedEditDistance(a[i], a[j], 3) <= 3) close_pair = true;
    }
  }
  EXPECT_TRUE(close_pair);
}

TEST(DatagenTest, FixedLengthChangesOutputButNotVariableMode) {
  StringConfig variable;
  variable.num_records = 100;
  variable.seed = 11;
  StringConfig fixed = variable;
  fixed.fixed_length = 16;
  const auto a = GenerateStrings(variable);
  const auto b = GenerateStrings(fixed);
  EXPECT_NE(a, b);
  // fixed_length = 0 must reproduce the historical variable-length stream.
  size_t distinct_lengths = 0;
  std::vector<bool> seen(64, false);
  for (const auto& s : a) {
    if (s.size() < seen.size() && !seen[s.size()]) {
      seen[s.size()] = true;
      ++distinct_lengths;
    }
  }
  EXPECT_GT(distinct_lengths, 1u);
}

}  // namespace
}  // namespace pigeonring::editdist
