// Unit and parity tests for the fixed-length edit distance fast path
// (editdist/casedec.h): case decomposition onto the Hamming stack must
// return byte-identical result sets to a brute-force banded-DP scan (and
// hence to the pivotal path) for every tau, length, and alphabet tried.

#include "editdist/casedec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/strings.h"
#include "editdist/verify.h"

namespace pigeonring::editdist {
namespace {

std::string RandomFixedString(Rng& rng, int len, int alphabet) {
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.NextBounded(alphabet)));
  }
  return s;
}

std::vector<int> BruteForce(const std::vector<std::string>& data,
                            const std::string& query, int tau) {
  std::vector<int> out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (BandedEditDistance(data[i], query, tau) <= tau) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Building blocks.
// ---------------------------------------------------------------------------

TEST(CaseDecTest, UniformLengthDetection) {
  EXPECT_EQ(CaseDecSearcher::UniformLength({}), 0);
  EXPECT_EQ(CaseDecSearcher::UniformLength({"abc", "xyz"}), 3);
  EXPECT_EQ(CaseDecSearcher::UniformLength({"abc", "xy"}), -1);
  EXPECT_EQ(CaseDecSearcher::UniformLength({""}), -1);
  EXPECT_EQ(CaseDecSearcher::UniformLength({"a"}), 1);
  const std::string at_limit(CaseDecSearcher::kMaxLength, 'a');
  EXPECT_EQ(CaseDecSearcher::UniformLength({at_limit}),
            CaseDecSearcher::kMaxLength);
  const std::string too_long(CaseDecSearcher::kMaxLength + 1, 'a');
  EXPECT_EQ(CaseDecSearcher::UniformLength({too_long}), -1);
}

TEST(CaseDecTest, NumCasesAndVariantCounts) {
  // tau < length: floor(tau / 2) + 1 cases (capped by length - 1).
  EXPECT_EQ(CaseDecSearcher::NumCases(8, 0), 1);
  EXPECT_EQ(CaseDecSearcher::NumCases(8, 1), 1);
  EXPECT_EQ(CaseDecSearcher::NumCases(8, 2), 2);
  EXPECT_EQ(CaseDecSearcher::NumCases(8, 3), 2);
  EXPECT_EQ(CaseDecSearcher::NumCases(8, 4), 3);
  // tau >= length or empty: verify-only regime, no filter cases.
  EXPECT_EQ(CaseDecSearcher::NumCases(0, 2), 0);
  EXPECT_EQ(CaseDecSearcher::NumCases(3, 3), 0);
  EXPECT_EQ(CaseDecSearcher::NumCases(3, 7), 0);

  EXPECT_EQ(CaseDecSearcher::VariantsPerRecord(8, 0), 1);
  EXPECT_EQ(CaseDecSearcher::VariantsPerRecord(8, 1), 8);
  EXPECT_EQ(CaseDecSearcher::VariantsPerRecord(8, 2), 28);
  EXPECT_EQ(CaseDecSearcher::VariantsPerRecord(5, 5), 1);
  EXPECT_EQ(CaseDecSearcher::VariantsPerRecord(128, 2), 128 * 127 / 2);
}

TEST(CaseDecTest, DeletionSetsAreLexicographicAndComplete) {
  std::vector<std::vector<int>> sets;
  CaseDecSearcher::ForEachDeletionSet(
      4, 2, [&](const std::vector<int>& d) { sets.push_back(d); });
  const std::vector<std::vector<int>> expected = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(sets, expected);

  sets.clear();
  CaseDecSearcher::ForEachDeletionSet(
      3, 0, [&](const std::vector<int>& d) { sets.push_back(d); });
  EXPECT_EQ(sets, std::vector<std::vector<int>>{{}});

  int count = 0;
  CaseDecSearcher::ForEachDeletionSet(
      6, 3, [&](const std::vector<int>&) { ++count; });
  EXPECT_EQ(count, 20);  // C(6, 3)
}

TEST(CaseDecTest, SignatureBitDistanceBoundsCharacterHamming) {
  // For equal-length remnants, signature bit distance = 2 * (number of
  // folded-character mismatches) <= 2 * char-Hamming; exact on a..z.
  Rng rng(17);
  const std::vector<int> no_deletions;
  for (int trial = 0; trial < 200; ++trial) {
    const int len = 1 + static_cast<int>(rng.NextBounded(20));
    const std::string a = RandomFixedString(rng, len, 26);
    std::string b = a;
    int char_ham = 0;
    for (int i = 0; i < len; ++i) {
      if (rng.NextBounded(3) == 0) {
        const char c = static_cast<char>('a' + rng.NextBounded(26));
        if (c != b[i]) ++char_ham;
        b[i] = c;
      }
    }
    const BitVector sa = CaseDecSearcher::EncodeVariant(a, no_deletions);
    const BitVector sb = CaseDecSearcher::EncodeVariant(b, no_deletions);
    int bit_ham = 0;
    for (size_t w = 0; w < sa.words().size(); ++w) {
      bit_ham += __builtin_popcountll(sa.words()[w] ^ sb.words()[w]);
    }
    EXPECT_EQ(bit_ham, 2 * char_ham) << a << " vs " << b;
  }
}

TEST(CaseDecTest, EncodeVariantSkipsDeletedPositions) {
  const BitVector direct = CaseDecSearcher::EncodeVariant("ace", {});
  const BitVector via_deletion =
      CaseDecSearcher::EncodeVariant("abcde", {1, 3});
  EXPECT_EQ(direct.words(), via_deletion.words());
}

// ---------------------------------------------------------------------------
// Parity with brute force across tau, lengths, alphabets.
// ---------------------------------------------------------------------------

TEST(CaseDecTest, ParityAcrossTauLengthsAndAlphabets) {
  Rng rng(99);
  for (const int length : {4, 7, 12, 24}) {
    for (const int alphabet : {2, 4, 26}) {
      std::vector<std::string> data;
      for (int i = 0; i < 120; ++i) {
        data.push_back(RandomFixedString(rng, length, alphabet));
      }
      // Seed near-duplicates so small-tau result sets are non-trivial.
      for (int i = 0; i < 40; ++i) {
        std::string s = data[rng.NextBounded(80)];
        const int pos = static_cast<int>(rng.NextBounded(length));
        s[pos] = static_cast<char>('a' + rng.NextBounded(alphabet));
        data.push_back(std::move(s));
      }
      for (const int tau : {1, 2, 3, 4}) {
        CaseDecSearcher searcher(&data, tau);
        for (int q = 0; q < 30; ++q) {
          const std::string query =
              q % 2 == 0 ? data[rng.NextBounded(data.size())]
                         : RandomFixedString(rng, length, alphabet);
          for (const int chain : {1, 2, 4}) {
            engine::QueryStats stats;
            const auto got = searcher.Search(query, chain, &stats);
            const auto expected = BruteForce(data, query, tau);
            ASSERT_EQ(got, expected)
                << "L=" << length << " sigma=" << alphabet << " tau=" << tau
                << " chain=" << chain << " query=" << query;
            EXPECT_EQ(stats.results, static_cast<int64_t>(expected.size()));
            EXPECT_GE(stats.candidates, stats.results);
          }
        }
      }
    }
  }
}

TEST(CaseDecTest, ParityOnPerturbedNearDuplicateCollection) {
  datagen::StringConfig config;
  config.num_records = 250;
  config.fixed_length = 16;
  config.duplicate_fraction = 0.5;
  config.max_perturb_edits = 4;
  config.seed = 23;
  const auto data = datagen::GenerateStrings(config);
  for (const int tau : {2, 3, 4}) {
    CaseDecSearcher searcher(&data, tau);
    for (size_t q = 0; q < data.size(); q += 7) {
      const auto got = searcher.Search(data[q], 2);
      const auto expected = BruteForce(data, data[q], tau);
      ASSERT_EQ(got, expected) << "tau=" << tau << " q=" << q;
      // Self-match guarantees a non-empty result set.
      ASSERT_TRUE(std::binary_search(got.begin(), got.end(),
                                     static_cast<int>(q)));
    }
  }
}

TEST(CaseDecTest, VerifyOnlyRegimeWhenTauReachesLength) {
  Rng rng(31);
  std::vector<std::string> data;
  for (int i = 0; i < 60; ++i) data.push_back(RandomFixedString(rng, 3, 4));
  for (const int tau : {3, 5}) {  // tau >= L = 3
    CaseDecSearcher searcher(&data, tau);
    EXPECT_TRUE(searcher.cases().empty());
    const std::string query = RandomFixedString(rng, 3, 4);
    engine::QueryStats stats;
    const auto got = searcher.Search(query, 2, &stats);
    EXPECT_EQ(got, BruteForce(data, query, tau));
    EXPECT_EQ(stats.candidates, static_cast<int64_t>(data.size()));
  }
}

TEST(CaseDecTest, LengthMismatchedQueriesFallBackSoundly) {
  Rng rng(41);
  std::vector<std::string> data;
  for (int i = 0; i < 80; ++i) data.push_back(RandomFixedString(rng, 10, 6));
  CaseDecSearcher searcher(&data, 3);
  for (const int qlen : {5, 8, 9, 11, 12, 13, 20}) {
    const std::string query = RandomFixedString(rng, qlen, 6);
    engine::QueryStats stats;
    const auto got = searcher.Search(query, 2, &stats);
    EXPECT_EQ(got, BruteForce(data, query, 3)) << "qlen=" << qlen;
    if (std::abs(qlen - 10) > 3) {
      // |length delta| > tau: pruned without touching any record.
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(stats.candidates, 0);
    }
  }
  // The empty query is just an extreme length mismatch.
  EXPECT_TRUE(searcher.Search("", 2).empty());
}

TEST(CaseDecTest, EmptyAndSingleRecordCollections) {
  const std::vector<std::string> empty;
  CaseDecSearcher on_empty(&empty, 2);
  EXPECT_TRUE(on_empty.cases().empty());
  EXPECT_TRUE(on_empty.Search("abc", 2).empty());
  EXPECT_TRUE(on_empty.Search("", 2).empty());

  const std::vector<std::string> one = {"abcd"};
  CaseDecSearcher on_one(&one, 2);
  EXPECT_EQ(on_one.Search("abcd", 2), std::vector<int>{0});
  EXPECT_EQ(on_one.Search("abxd", 2), std::vector<int>{0});
  EXPECT_EQ(on_one.Search("bcda", 2), std::vector<int>{0});  // del + ins
  EXPECT_TRUE(on_one.Search("zzzz", 2).empty());
}

TEST(CaseDecTest, TauZeroIsExactMatch) {
  const std::vector<std::string> data = {"abc", "abd", "abc", "xyz"};
  CaseDecSearcher searcher(&data, 0);
  EXPECT_EQ(searcher.Search("abc", 1), (std::vector<int>{0, 2}));
  EXPECT_TRUE(searcher.Search("abe", 1).empty());
}

TEST(CaseDecTest, FromBuiltAnswersIdentically) {
  Rng rng(53);
  std::vector<std::string> data;
  for (int i = 0; i < 100; ++i) data.push_back(RandomFixedString(rng, 9, 8));
  const int tau = 3;
  CaseDecSearcher built(&data, tau);
  // Rebuild the per-case state exactly as the storage loader does.
  std::vector<CaseDecSearcher::Case> cases;
  for (const auto& c : built.cases()) {
    cases.push_back(CaseDecSearcher::Case{c.indels, c.hamming_tau,
                                          c.searcher});
  }
  CaseDecSearcher adopted =
      CaseDecSearcher::FromBuilt(&data, tau, std::move(cases));
  for (int q = 0; q < 40; ++q) {
    const std::string query = q % 2 == 0
                                  ? data[rng.NextBounded(data.size())]
                                  : RandomFixedString(rng, 9, 8);
    EXPECT_EQ(adopted.Search(query, 2), built.Search(query, 2));
  }
}

TEST(CaseDecTest, CopiesSearchIndependently) {
  Rng rng(61);
  std::vector<std::string> data;
  for (int i = 0; i < 80; ++i) data.push_back(RandomFixedString(rng, 8, 6));
  CaseDecSearcher original(&data, 2);
  CaseDecSearcher copy = original;
  for (int q = 0; q < 20; ++q) {
    const std::string query = data[rng.NextBounded(data.size())];
    EXPECT_EQ(copy.Search(query, 2), original.Search(query, 2));
  }
}

TEST(CaseDecTest, StatsReportFilterReduction) {
  // On a collection with few near-duplicates, the chain filter must verify
  // far fewer records than a full scan would.
  Rng rng(71);
  std::vector<std::string> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(RandomFixedString(rng, 16, 26));
  }
  CaseDecSearcher searcher(&data, 3);
  int64_t total_candidates = 0;
  for (int q = 0; q < 20; ++q) {
    engine::QueryStats stats;
    searcher.Search(data[rng.NextBounded(data.size())], 2, &stats);
    total_candidates += stats.candidates;
    EXPECT_GE(stats.fast_path_hits, stats.candidates);
  }
  EXPECT_LT(total_candidates, 20 * static_cast<int64_t>(data.size()) / 10);
}

}  // namespace
}  // namespace pigeonring::editdist
