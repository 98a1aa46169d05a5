// Unit, integration, and property tests for string edit distance search
// (verification kernels, q-gram machinery, Pivotal baseline, Ring upgrade).

#include "editdist/pivotal.h"

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/random.h"
#include "datagen/strings.h"
#include "editdist/qgram.h"
#include "editdist/verify.h"

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
      for (int len = 0; len <= max_len && u + len <= static_cast<int>(text.size());
           ++len) {
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
  for (int i = 0; i < 12; ++i) {
    const std::string& query = data[rng.NextBounded(data.size())];
    const auto expected = BruteForceEditSearch(data, query, tau);
    EXPECT_EQ(searcher.Search(query, filter, chain_length), expected)
        << "query=" << query << " tau=" << tau;
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
