// Unit, integration, and property tests for set similarity search
// (records, prefix scheme, pkwise/Ring, AllPairs and PartAlloc baselines).

#include "setsim/pkwise.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.h"
#include "datagen/token_sets.h"
#include "setsim/baselines.h"
#include "setsim/prefix.h"
#include "setsim/record.h"

namespace pigeonring::setsim {
namespace {

using datagen::GenerateTokenSets;
using datagen::TokenSetConfig;

// ---------------------------------------------------------------------------
// Record-level primitives.
// ---------------------------------------------------------------------------

TEST(RecordTest, OverlapByMerge) {
  EXPECT_EQ(Overlap({1, 3, 5, 7}, {3, 4, 5, 9}), 2);
  EXPECT_EQ(Overlap({}, {1, 2}), 0);
  EXPECT_EQ(Overlap({1, 2, 3}, {1, 2, 3}), 3);
  EXPECT_EQ(Overlap({1, 2}, {3, 4}), 0);
}

TEST(RecordTest, OverlapAtLeastAgreesWithExactOverlap) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    RankedSet x, y;
    for (int i = 0; i < 30; ++i) {
      if (rng.NextBernoulli(0.4)) x.push_back(i);
      if (rng.NextBernoulli(0.4)) y.push_back(i);
    }
    const int exact = Overlap(x, y);
    for (int required = 0; required <= 12; ++required) {
      EXPECT_EQ(OverlapAtLeast(x, y, required), exact >= required)
          << "required=" << required;
    }
  }
}

TEST(RecordTest, JaccardThresholdConversion) {
  // J >= tau  <=>  O >= ceil((|x|+|y|) tau / (1+tau)): check on enumerated
  // small cases.
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    RankedSet x, y;
    for (int i = 0; i < 16; ++i) {
      if (rng.NextBernoulli(0.5)) x.push_back(i);
      if (rng.NextBernoulli(0.5)) y.push_back(i);
    }
    if (x.empty() || y.empty()) continue;
    for (double tau : {0.5, 0.7, 0.8, 0.95}) {
      const int o = JaccardOverlapThreshold(static_cast<int>(x.size()),
                                            static_cast<int>(y.size()), tau);
      EXPECT_EQ(Jaccard(x, y) >= tau - 1e-12, Overlap(x, y) >= o);
    }
  }
}

TEST(RecordTest, CollectionRanksByIncreasingFrequency) {
  // Token 7 appears in three records, token 5 in two, token 9 in one:
  // ranks must order 9 < 5 < 7 (rarest first).
  SetCollection collection({{7, 5}, {7, 5, 9}, {7}});
  // Record 2 = {7} must map to the largest rank.
  ASSERT_EQ(collection.record(2).size(), 1u);
  const int rank7 = collection.record(2)[0];
  EXPECT_EQ(rank7, 2);
  EXPECT_EQ(collection.universe_size(), 3);
}

TEST(RecordTest, MapQueryHandlesUnknownTokens) {
  SetCollection collection({{1, 2}, {2, 3}});
  const RankedSet mapped = collection.MapQuery({2, 99, 1});
  EXPECT_EQ(mapped.size(), 3u);
  // Exactly one negative (unknown) rank.
  int negatives = 0;
  for (int r : mapped) negatives += (r < 0) ? 1 : 0;
  EXPECT_EQ(negatives, 1);
}

TEST(RecordTest, RecordsAreDeduplicated) {
  SetCollection collection({{4, 4, 4, 2}});
  EXPECT_EQ(collection.record(0).size(), 2u);
}

TEST(RecordTest, TokenInvertsTheDictionary) {
  // Ranks 9 -> 0, 5 -> 1, 7 -> 2 (see CollectionRanksByIncreasingFrequency).
  SetCollection collection({{7, 5}, {7, 5, 9}, {7}});
  EXPECT_EQ(collection.Token(0), 9);
  EXPECT_EQ(collection.Token(1), 5);
  EXPECT_EQ(collection.Token(2), 7);
  EXPECT_EQ(collection.Token(-1), std::nullopt);
  EXPECT_EQ(collection.Token(3), std::nullopt);
  EXPECT_EQ(collection.RawRecord(1), (std::vector<int>{5, 7, 9}));

  // A bulk-loaded collection inverts the same dictionary.
  const SetCollection loaded = SetCollection::FromBuilt(
      collection.ExportDictionary(), collection.records(),
      collection.universe_size());
  for (int rank = 0; rank < collection.universe_size(); ++rank) {
    EXPECT_EQ(loaded.Token(rank), collection.Token(rank)) << rank;
  }
  for (int id = 0; id < collection.num_records(); ++id) {
    EXPECT_EQ(loaded.RawRecord(id), collection.RawRecord(id)) << id;
  }
}

// ---------------------------------------------------------------------------
// Prefix scheme.
// ---------------------------------------------------------------------------

TEST(PrefixTest, ThresholdsSumToOverlapPlusBoxesMinusOne) {
  // ||T||_1 = o + m - 1 (the >= integer-reduction budget), also after
  // deficit reduction.
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const int num_classes = 1 + static_cast<int>(rng.NextBounded(6));
    const int size = 1 + static_cast<int>(rng.NextBounded(40));
    RankedSet tokens;
    int next = 0;
    for (int i = 0; i < size; ++i) {
      next += 1 + static_cast<int>(rng.NextBounded(3));
      tokens.push_back(next);
    }
    const int o = 1 + static_cast<int>(rng.NextBounded(size));
    const PrefixInfo info = ComputePrefixInfo(tokens, o, num_classes);
    int sum = info.suffix_threshold;
    for (int k = 1; k <= num_classes; ++k) {
      sum += info.class_threshold[k];
      EXPECT_GE(info.class_threshold[k], 1);
      EXPECT_LE(info.class_threshold[k], k);
    }
    EXPECT_LE(sum, o + num_classes);  // = o + m - 1, m = classes + 1
    // Without deficit the sum is exact.
    if (info.prefix_length < size) {
      EXPECT_EQ(sum, o + num_classes);
    }
  }
}

TEST(PrefixTest, PrefixShrinksAsOverlapGrows) {
  RankedSet tokens;
  for (int i = 0; i < 20; ++i) tokens.push_back(i);
  int prev = 21;
  for (int o = 1; o <= 20; ++o) {
    const PrefixInfo info = ComputePrefixInfo(tokens, o, 4);
    EXPECT_LE(info.prefix_length, prev);
    prev = info.prefix_length;
  }
  // o = |x| needs |x| - o + 1 = 1 unit: a single class-1 token suffices
  // eventually.
  EXPECT_GE(prev, 1);
}

TEST(PrefixTest, ChainBoundUsesIntegerReductionSlack) {
  RankedSet tokens = {0, 1, 2, 3, 4, 5, 6, 7};
  const PrefixInfo info = ComputePrefixInfo(tokens, 4, 3);
  // Bound(start, 1) = t_start; Bound(start, 2) = t_s + t_{s+1} - 1.
  EXPECT_EQ(info.ChainBound(1, 1), info.class_threshold[1]);
  EXPECT_EQ(info.ChainBound(1, 2),
            info.class_threshold[1] + info.class_threshold[2] - 1);
  EXPECT_EQ(info.ChainBound(3, 2),
            info.class_threshold[3] + info.suffix_threshold - 1);
}

// ---------------------------------------------------------------------------
// End-to-end correctness: every searcher must equal brute force.
// ---------------------------------------------------------------------------

struct SetSimCase {
  int avg_tokens;
  double tau;
  int num_boxes;
  int chain_length;
};

class SetSimCorrectness : public ::testing::TestWithParam<SetSimCase> {};

TEST_P(SetSimCorrectness, AllSearchersMatchBruteForce) {
  const auto [avg_tokens, tau, num_boxes, chain_length] = GetParam();
  TokenSetConfig config;
  config.num_records = 1500;
  config.avg_tokens = avg_tokens;
  config.universe_size = 4000;
  config.duplicate_fraction = 0.4;
  config.seed = 100 + avg_tokens;
  const auto raw = GenerateTokenSets(config);
  SetCollection collection(raw);
  PkwiseSearcher ring(&collection, tau, num_boxes);
  AllPairsSearcher allpairs(&collection, tau);
  PartAllocSearcher partalloc(&collection, tau, num_boxes - 1);
  Rng rng(17);
  for (int i = 0; i < 15; ++i) {
    const RankedSet& query =
        collection.record(rng.NextBounded(collection.num_records()));
    const auto expected = BruteForceJaccardSearch(collection, query, tau);
    EXPECT_EQ(ring.Search(query, chain_length), expected)
        << "pkwise/Ring l=" << chain_length;
    EXPECT_EQ(allpairs.Search(query), expected) << "AllPairs";
    EXPECT_EQ(partalloc.Search(query), expected) << "PartAlloc";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetSimCorrectness,
    ::testing::Values(SetSimCase{14, 0.7, 5, 1}, SetSimCase{14, 0.7, 5, 2},
                      SetSimCase{14, 0.7, 5, 5}, SetSimCase{14, 0.9, 5, 2},
                      SetSimCase{14, 0.5, 4, 3}, SetSimCase{40, 0.8, 5, 2},
                      SetSimCase{40, 0.8, 8, 4}, SetSimCase{6, 0.6, 5, 2},
                      SetSimCase{3, 0.5, 5, 2}),
    [](const ::testing::TestParamInfo<SetSimCase>& info) {
      return "avg" + std::to_string(info.param.avg_tokens) + "_tau" +
             std::to_string(static_cast<int>(info.param.tau * 100)) + "_m" +
             std::to_string(info.param.num_boxes) + "_l" +
             std::to_string(info.param.chain_length);
    });

TEST(SetSimTest, RingCandidatesSubsetOfPkwise) {
  TokenSetConfig config;
  config.num_records = 3000;
  config.avg_tokens = 20;
  config.universe_size = 6000;
  config.duplicate_fraction = 0.4;
  config.seed = 23;
  SetCollection collection(GenerateTokenSets(config));
  PkwiseSearcher searcher(&collection, 0.7, 5);
  Rng rng(29);
  for (int i = 0; i < 10; ++i) {
    const RankedSet& query =
        collection.record(rng.NextBounded(collection.num_records()));
    int64_t prev = std::numeric_limits<int64_t>::max();
    std::vector<int> baseline_results;
    for (int l = 1; l <= 5; ++l) {
      engine::QueryStats stats;
      auto results = searcher.Search(query, l, &stats);
      EXPECT_LE(stats.candidates, prev) << "l=" << l;
      EXPECT_GE(stats.candidates, stats.results);
      prev = stats.candidates;
      if (l == 1) {
        baseline_results = results;
      } else {
        EXPECT_EQ(results, baseline_results);
      }
    }
  }
}

TEST(SetSimTest, QueryFindsItself) {
  TokenSetConfig config;
  config.num_records = 500;
  config.avg_tokens = 10;
  config.universe_size = 1500;
  config.seed = 31;
  SetCollection collection(GenerateTokenSets(config));
  PkwiseSearcher searcher(&collection, 0.95, 5);
  for (int id : {0, 100, 499}) {
    auto results = searcher.Search(collection.record(id), 2);
    EXPECT_TRUE(std::find(results.begin(), results.end(), id) !=
                results.end());
  }
}

TEST(SetSimTest, DisjointQueryFindsNothing) {
  SetCollection collection({{1, 2, 3}, {2, 3, 4}, {5, 6}});
  PkwiseSearcher searcher(&collection, 0.5, 3);
  const RankedSet query = collection.MapQuery({100, 200, 300});
  EXPECT_TRUE(searcher.Search(query, 2).empty());
}

TEST(SetSimTest, TinySetsAndExtremeThresholds) {
  // Exercises the deficit-reduction path (records shorter than the class
  // structure) and tau = 1.0 (exact duplicates only).
  std::vector<std::vector<int>> raw = {
      {1}, {2}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4}, {1}, {9}};
  SetCollection collection(raw);
  for (double tau : {0.3, 0.5, 1.0}) {
    PkwiseSearcher searcher(&collection, tau, 5);
    for (int id = 0; id < collection.num_records(); ++id) {
      const auto expected =
          BruteForceJaccardSearch(collection, collection.record(id), tau);
      for (int l : {1, 2, 3, 5}) {
        EXPECT_EQ(searcher.Search(collection.record(id), l), expected)
            << "tau=" << tau << " id=" << id << " l=" << l;
      }
    }
  }
}

struct OverlapCase {
  int overlap;
  int chain_length;
};

class OverlapSearchCorrectness
    : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(OverlapSearchCorrectness, MatchesBruteForce) {
  // The paper's Problem 3 as literally stated: |x ∩ q| >= tau with a fixed
  // integral threshold.
  const auto [overlap, chain_length] = GetParam();
  TokenSetConfig config;
  config.num_records = 1200;
  config.avg_tokens = 16;
  config.universe_size = 3000;
  config.duplicate_fraction = 0.4;
  config.seed = 321;
  SetCollection collection(GenerateTokenSets(config));
  PkwiseSearcher searcher(&collection, overlap, 5, SetMeasure::kOverlap);
  Rng rng(47);
  for (int i = 0; i < 12; ++i) {
    const RankedSet& query =
        collection.record(rng.NextBounded(collection.num_records()));
    EXPECT_EQ(searcher.Search(query, chain_length),
              BruteForceOverlapSearch(collection, query, overlap))
        << "overlap=" << overlap << " l=" << chain_length;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverlapSearchCorrectness,
    ::testing::Values(OverlapCase{3, 1}, OverlapCase{3, 2}, OverlapCase{8, 1},
                      OverlapCase{8, 2}, OverlapCase{8, 5},
                      OverlapCase{14, 2}, OverlapCase{1, 2}),
    [](const ::testing::TestParamInfo<OverlapCase>& info) {
      return "o" + std::to_string(info.param.overlap) + "_l" +
             std::to_string(info.param.chain_length);
    });

TEST(SetSimTest, OverlapModeIgnoresSizeUpperBound) {
  // A tiny query can overlap-match a huge record; Jaccard cannot.
  std::vector<std::vector<int>> raw = {{1, 2, 3}};
  for (int i = 0; i < 60; ++i) raw[0].push_back(100 + i);  // one big record
  raw.push_back({1, 2, 3});
  SetCollection collection(raw);
  PkwiseSearcher overlap(&collection, 3, 3, SetMeasure::kOverlap);
  const auto results = overlap.Search(collection.record(1), 2);
  EXPECT_EQ(results, (std::vector<int>{0, 1}));
}

TEST(DatagenTest, TokenSetsDeterministicAndShaped) {
  TokenSetConfig config;
  config.num_records = 400;
  config.avg_tokens = 14;
  config.seed = 7;
  const auto a = GenerateTokenSets(config);
  const auto b = GenerateTokenSets(config);
  EXPECT_EQ(a, b);
  double total = 0;
  for (const auto& rec : a) {
    EXPECT_GE(rec.size(), 1u);
    total += rec.size();
  }
  const double avg = total / a.size();
  EXPECT_GT(avg, 7.0);
  EXPECT_LT(avg, 25.0);
}

TEST(DatagenTest, DuplicatesCreateHighJaccardPairs) {
  TokenSetConfig config;
  config.num_records = 800;
  config.avg_tokens = 20;
  config.duplicate_fraction = 0.5;
  config.perturb_rate = 0.05;
  config.seed = 41;
  SetCollection collection(GenerateTokenSets(config));
  int high_pairs = 0;
  for (int i = 0; i < 200; ++i) {
    for (int j = i + 1; j < 200; ++j) {
      if (Jaccard(collection.record(i), collection.record(j)) >= 0.8) {
        ++high_pairs;
      }
    }
  }
  EXPECT_GT(high_pairs, 0);
}

}  // namespace
}  // namespace pigeonring::setsim
