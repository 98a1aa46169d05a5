// Unit, integration, and property tests for Hamming distance search
// (partition, index, GPH baseline, Ring upgrade).

#include "hamming/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>

#include "common/random.h"
#include "datagen/binary_vectors.h"
#include "hamming/index.h"
#include "hamming/partition.h"

namespace pigeonring::hamming {
namespace {

using datagen::BinaryVectorConfig;
using datagen::GenerateBinaryVectors;

std::vector<BitVector> RandomVectors(int n, int d, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    BitVector v(d);
    for (int j = 0; j < d; ++j) v.Set(j, rng.NextBernoulli(0.5));
    out.push_back(std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Partition.
// ---------------------------------------------------------------------------

TEST(PartitionTest, EquiWidthCoversAllDimensionsDisjointly) {
  for (int d : {16, 63, 64, 100, 256}) {
    for (int m : {1, 3, 5, 16}) {
      if (m > d || (d + m - 1) / m > 64) continue;
      const Partition p = Partition::EquiWidth(d, m);
      EXPECT_EQ(p.num_parts(), m);
      EXPECT_EQ(p.begin(0), 0);
      EXPECT_EQ(p.end(m - 1), d);
      int total = 0;
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(p.begin(i), i == 0 ? 0 : p.end(i - 1));
        EXPECT_GE(p.width(i), d / m);
        EXPECT_LE(p.width(i), (d + m - 1) / m);
        total += p.width(i);
      }
      EXPECT_EQ(total, d);
    }
  }
}

// ---------------------------------------------------------------------------
// Key enumeration and index probing.
// ---------------------------------------------------------------------------

TEST(IndexTest, ForEachKeyAtRadiusEnumeratesExactlyTheSphere) {
  const int width = 10;
  const uint64_t base = 0b1011001110;
  for (int radius = 0; radius <= 4; ++radius) {
    std::set<uint64_t> seen;
    ForEachKeyAtRadius(base, width, radius, [&](uint64_t key) {
      EXPECT_EQ(Popcount64(key ^ base), radius);
      EXPECT_TRUE(seen.insert(key).second) << "duplicate key";
    });
    // |sphere| = C(width, radius).
    long long expect = 1;
    for (int i = 0; i < radius; ++i) expect = expect * (width - i) / (i + 1);
    EXPECT_EQ(static_cast<long long>(seen.size()), expect);
  }
}

// Index geometries covering both postings forms: 16-bit parts (dense
// offsets), 24- and 64-bit parts (sorted keys), and one partition mixing
// 17- and 16-bit parts.
struct IndexGeometry {
  int d;
  int m;
};
constexpr IndexGeometry kIndexGeometries[] = {
    {64, 4}, {96, 4}, {128, 2}, {50, 3}};

// `n` random vectors, then a near-copy (two bits flipped) of every third
// one, so wide parts hold multi-id buckets too.
std::vector<BitVector> IndexObjects(int n, int d, uint64_t seed) {
  std::vector<BitVector> objects = RandomVectors(n, d, seed);
  for (int id = 0; id < n; id += 3) {
    BitVector copy = objects[id];
    copy.Flip((id * 7) % d);
    copy.Flip((id * 13 + 5) % d);
    objects.push_back(std::move(copy));
  }
  return objects;
}

TEST(IndexTest, ProbeAtRadiusFindsExactlyMatchingParts) {
  for (const auto [d, m] : kIndexGeometries) {
    auto objects = IndexObjects(200, d, 3);
    const Partition partition = Partition::EquiWidth(d, m);
    PartitionIndex index(objects, partition);
    const BitVector query = objects[7];
    for (int part = 0; part < m; ++part) {
      for (int radius = 0; radius <= 3; ++radius) {
        std::vector<int> probed;
        index.ProbeAtRadius(query, part, radius, [&](int id, int dist) {
          EXPECT_EQ(dist, radius);
          probed.push_back(id);
        });
        std::sort(probed.begin(), probed.end());
        std::vector<int> expected;
        for (int id = 0; id < static_cast<int>(objects.size()); ++id) {
          if (objects[id].PartDistance(query, partition.begin(part),
                                       partition.end(part)) == radius) {
            expected.push_back(id);
          }
        }
        EXPECT_EQ(probed, expected)
            << "d=" << d << " m=" << m << " part=" << part
            << " r=" << radius;
      }
    }
  }
}

TEST(IndexTest, CountAtRadiusMatchesProbe) {
  for (const auto [d, m] : kIndexGeometries) {
    auto objects = IndexObjects(300, d, 5);
    PartitionIndex index(objects, Partition::EquiWidth(d, m));
    const BitVector query = objects[0];
    for (int part = 0; part < m; ++part) {
      for (int radius = 0; radius <= 4; ++radius) {
        int64_t probed = 0;
        index.ProbeAtRadius(query, part, radius, [&](int, int) { ++probed; });
        EXPECT_EQ(index.CountAtRadius(query, part, radius), probed)
            << "d=" << d << " m=" << m << " part=" << part
            << " r=" << radius;
      }
    }
  }
}

// The storage layer's dump: strictly ascending keys, each the part pattern
// of every id in its bucket, ids strictly ascending, and every row exactly
// once per part.
TEST(IndexTest, ForEachBucketSortedWalksEveryRowOnceInOrder) {
  for (const auto [d, m] : kIndexGeometries) {
    auto objects = IndexObjects(250, d, 9);
    const Partition partition = Partition::EquiWidth(d, m);
    PartitionIndex index(objects, partition);
    for (int part = 0; part < m; ++part) {
      SCOPED_TRACE("d=" + std::to_string(d) + " m=" + std::to_string(m) +
                   " part=" + std::to_string(part));
      const int begin = partition.begin(part);
      const int end = partition.end(part);
      std::vector<int> rows_seen(objects.size(), 0);
      bool first = true;
      uint64_t previous_key = 0;
      int64_t multi_id_buckets = 0;
      index.ForEachBucketSorted(
          part, [&](uint64_t key, std::span<const int> ids) {
            EXPECT_TRUE(first || key > previous_key);
            first = false;
            previous_key = key;
            ASSERT_FALSE(ids.empty());
            multi_id_buckets += ids.size() > 1;
            for (size_t k = 0; k < ids.size(); ++k) {
              if (k > 0) EXPECT_LT(ids[k - 1], ids[k]);
              const BitVector& row = objects[ids[k]];
              EXPECT_EQ(row.ExtractBits(begin, end), key);
              ++rows_seen[ids[k]];
            }
          });
      EXPECT_GT(multi_id_buckets, 0);
      for (int seen : rows_seen) EXPECT_EQ(seen, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Threshold allocation.
// ---------------------------------------------------------------------------

TEST(AllocationTest, ThresholdsSumToIntegerReductionBudget) {
  auto objects = RandomVectors(500, 128, 7);
  HammingSearcher searcher(objects, 8);
  const BitVector query = objects[3];
  for (int tau : {4, 10, 16, 40}) {
    for (auto mode : {AllocationMode::kUniform, AllocationMode::kCostModel}) {
      const std::vector<int> t =
          searcher.AllocateThresholds(query, tau, mode);
      int sum = 0;
      for (int v : t) {
        sum += v;
        EXPECT_GE(v, -1);
      }
      EXPECT_EQ(sum, tau - searcher.num_parts() + 1)
          << "tau=" << tau
          << " mode=" << (mode == AllocationMode::kUniform ? "uni" : "cost");
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end search correctness.
// ---------------------------------------------------------------------------

struct HammingCase {
  int d;
  int m;
  int tau;
  int l;
  AllocationMode mode;
};

class HammingSearchCorrectness
    : public ::testing::TestWithParam<HammingCase> {};

TEST_P(HammingSearchCorrectness, MatchesBruteForce) {
  const auto [d, m, tau, l, mode] = GetParam();
  BinaryVectorConfig config;
  config.dimensions = d;
  config.num_objects = 2000;
  config.num_clusters = 50;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.06;
  config.seed = 11;
  auto objects = GenerateBinaryVectors(config);
  HammingSearcher searcher(objects, m);
  auto queries = datagen::SampleQueries(objects, 10, 13);
  for (const auto& q : queries) {
    const auto expected = BruteForceSearch(objects, q, tau);
    const auto got = searcher.Search(q, tau, l, mode);
    EXPECT_EQ(got, expected) << "d=" << d << " m=" << m << " tau=" << tau
                             << " l=" << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HammingSearchCorrectness,
    ::testing::Values(
        HammingCase{64, 4, 6, 1, AllocationMode::kCostModel},
        HammingCase{64, 4, 6, 2, AllocationMode::kCostModel},
        HammingCase{64, 4, 6, 4, AllocationMode::kCostModel},
        HammingCase{64, 4, 2, 3, AllocationMode::kUniform},
        HammingCase{128, 8, 16, 1, AllocationMode::kCostModel},
        HammingCase{128, 8, 16, 5, AllocationMode::kCostModel},
        HammingCase{128, 8, 16, 8, AllocationMode::kUniform},
        HammingCase{128, 8, 3, 4, AllocationMode::kCostModel},
        HammingCase{256, 16, 32, 6, AllocationMode::kCostModel},
        HammingCase{256, 16, 48, 3, AllocationMode::kUniform},
        // Parts wider than 16 bits (sorted-key postings).
        HammingCase{96, 4, 8, 1, AllocationMode::kCostModel},
        HammingCase{96, 4, 12, 3, AllocationMode::kCostModel},
        HammingCase{96, 4, 6, 2, AllocationMode::kUniform},
        HammingCase{128, 2, 3, 1, AllocationMode::kCostModel},
        HammingCase{128, 2, 4, 2, AllocationMode::kUniform},
        // 17-, 17- and 16-bit parts: both forms in one partition.
        HammingCase{50, 3, 6, 2, AllocationMode::kCostModel},
        HammingCase{50, 3, 5, 3, AllocationMode::kUniform},
        // kRadiusZero, and its uniform fallback once tau + 1 > m.
        HammingCase{128, 8, 5, 3, AllocationMode::kRadiusZero},
        HammingCase{64, 4, 3, 2, AllocationMode::kRadiusZero},
        HammingCase{96, 4, 3, 4, AllocationMode::kRadiusZero},
        HammingCase{128, 2, 1, 2, AllocationMode::kRadiusZero},
        HammingCase{50, 3, 2, 3, AllocationMode::kRadiusZero},
        HammingCase{64, 4, 6, 2, AllocationMode::kRadiusZero}),
    [](const ::testing::TestParamInfo<HammingCase>& info) {
      const char* mode = info.param.mode == AllocationMode::kUniform ? "_uni"
                         : info.param.mode == AllocationMode::kCostModel
                             ? "_cost"
                             : "_r0";
      return "d" + std::to_string(info.param.d) + "_m" +
             std::to_string(info.param.m) + "_tau" +
             std::to_string(info.param.tau) + "_l" +
             std::to_string(info.param.l) + mode;
    });

TEST(HammingSearchTest, RingCandidatesAreSubsetOfGphCandidates) {
  // Lemma 4 end-to-end: candidate counts are non-increasing in l, results
  // identical.
  BinaryVectorConfig config;
  config.num_objects = 3000;
  config.dimensions = 128;
  config.num_clusters = 60;
  config.seed = 17;
  auto objects = GenerateBinaryVectors(config);
  HammingSearcher searcher(objects, 8);
  auto queries = datagen::SampleQueries(objects, 5, 19);
  for (const auto& q : queries) {
    int64_t prev_candidates = std::numeric_limits<int64_t>::max();
    std::vector<int> first_results;
    for (int l = 1; l <= 8; ++l) {
      engine::QueryStats stats;
      auto results = searcher.Search(q, 24, l, AllocationMode::kCostModel,
                                     &stats);
      EXPECT_LE(stats.candidates, prev_candidates) << "l=" << l;
      EXPECT_GE(stats.candidates, stats.results);
      prev_candidates = stats.candidates;
      if (l == 1) {
        first_results = results;
      } else {
        EXPECT_EQ(results, first_results);
      }
    }
  }
}

TEST(HammingSearchTest, FullChainLengthYieldsCandidatesEqualResults) {
  // With l = m and a tight instance, candidates == results (§3).
  auto objects = RandomVectors(2000, 64, 23);
  HammingSearcher searcher(objects, 4);
  auto queries = datagen::SampleQueries(objects, 5, 29);
  for (const auto& q : queries) {
    engine::QueryStats stats;
    searcher.Search(q, 10, 4, AllocationMode::kCostModel, &stats);
    EXPECT_EQ(stats.candidates, stats.results);
  }
}

TEST(HammingSearchTest, QueryIsItsOwnResultAtTauZero) {
  auto objects = RandomVectors(500, 64, 31);
  HammingSearcher searcher(objects, 4);
  for (int id : {0, 17, 499}) {
    auto results = searcher.Search(objects[id], 0, 2);
    EXPECT_FALSE(results.empty());
    bool found = false;
    for (int r : results) {
      EXPECT_EQ(objects[r].HammingDistance(objects[id]), 0);
      found |= (r == id);
    }
    EXPECT_TRUE(found);
  }
}

TEST(HammingSearchTest, MaxThresholdReturnsEverything) {
  auto objects = RandomVectors(300, 64, 37);
  HammingSearcher searcher(objects, 4);
  auto results = searcher.Search(objects[0], 64, 2);
  EXPECT_EQ(results.size(), objects.size());
}

TEST(HammingSearchTest, StatsTimingFieldsArePopulated) {
  auto objects = RandomVectors(1000, 128, 41);
  HammingSearcher searcher(objects, 8);
  engine::QueryStats stats;
  searcher.Search(objects[1], 20, 4, AllocationMode::kCostModel, &stats);
  EXPECT_GE(stats.total_millis, 0.0);
  EXPECT_GE(stats.filter_millis, 0.0);
  EXPECT_GE(stats.verify_millis, 0.0);
  EXPECT_GT(stats.index_hits, 0);
}

TEST(DatagenTest, BinaryVectorsDeterministicInSeed) {
  BinaryVectorConfig config;
  config.num_objects = 100;
  config.dimensions = 64;
  config.num_clusters = 5;
  auto a = GenerateBinaryVectors(config);
  auto b = GenerateBinaryVectors(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
  config.seed = 2;
  auto c = GenerateBinaryVectors(config);
  int same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += (a[i] == c[i]) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(DatagenTest, ClustersCreateClosePairs) {
  BinaryVectorConfig config;
  config.num_objects = 2000;
  config.dimensions = 256;
  config.num_clusters = 40;
  config.cluster_fraction = 0.7;
  config.flip_rate = 0.03;
  config.seed = 43;
  auto objects = GenerateBinaryVectors(config);
  // Some pair must be within a quarter of the mean random distance (128).
  int close_pairs = 0;
  for (int i = 0; i < 200; ++i) {
    for (int j = i + 1; j < 200; ++j) {
      if (objects[i].HammingDistance(objects[j]) <= 48) ++close_pairs;
    }
  }
  EXPECT_GT(close_pairs, 0);
}

}  // namespace
}  // namespace pigeonring::hamming
