// Brute-force oracles for engine::SelfJoin over the domain adapters: each
// join must equal the all-pairs result, and the pigeonring chain length
// must not change it.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "editdist/verify.h"
#include "graphed/ged.h"

namespace pigeonring::engine {
namespace {

template <typename Predicate>
std::vector<IdPair> BruteForcePairs(int n, const Predicate& related) {
  std::vector<IdPair> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (related(i, j)) pairs.push_back({i, j});
    }
  }
  return pairs;
}

TEST(SelfJoinTest, HammingJoinMatchesBruteForce) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 400;
  config.num_clusters = 20;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = 71;
  auto objects = datagen::GenerateBinaryVectors(config);
  hamming::HammingSearcher searcher(objects, 4);
  const int tau = 8;
  const auto expected = BruteForcePairs(
      static_cast<int>(objects.size()), [&](int i, int j) {
        return objects[i].HammingDistance(objects[j]) <= tau;
      });
  ASSERT_FALSE(expected.empty()) << "workload should contain close pairs";
  Executor executor;
  const ExecutionContext sequential(executor, {});
  for (int l : {1, 3}) {
    HammingAdapter adapter(searcher, tau, l);
    JoinStats stats;
    EXPECT_EQ(SelfJoin(adapter, sequential, &stats), expected);
    EXPECT_EQ(stats.pairs, static_cast<int64_t>(expected.size()));
  }
}

TEST(SelfJoinTest, SetJoinMatchesBruteForceBothMeasures) {
  datagen::TokenSetConfig config;
  config.num_records = 400;
  config.avg_tokens = 12;
  config.universe_size = 900;
  config.duplicate_fraction = 0.4;
  config.seed = 73;
  setsim::SetCollection collection(datagen::GenerateTokenSets(config));
  Executor executor;
  const ExecutionContext sequential(executor, {});
  {
    const double tau = 0.7;
    SetAdapter adapter(setsim::PkwiseSearcher(&collection, tau, 5),
                       &collection, 2);
    const auto expected = BruteForcePairs(
        collection.num_records(), [&](int i, int j) {
          return setsim::Jaccard(collection.record(i),
                                 collection.record(j)) >= tau - 1e-12;
        });
    EXPECT_EQ(SelfJoin(adapter, sequential), expected);
  }
  {
    const int overlap = 8;
    SetAdapter adapter(setsim::PkwiseSearcher(&collection, overlap, 5,
                                              setsim::SetMeasure::kOverlap),
                       &collection, 2);
    const auto expected = BruteForcePairs(
        collection.num_records(), [&](int i, int j) {
          return setsim::Overlap(collection.record(i),
                                 collection.record(j)) >= overlap;
        });
    EXPECT_EQ(SelfJoin(adapter, sequential), expected);
  }
}

TEST(SelfJoinTest, EditJoinMatchesBruteForce) {
  datagen::StringConfig config;
  config.num_records = 300;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 79;
  const auto data = datagen::GenerateStrings(config);
  const int tau = 2;
  editdist::EditDistanceSearcher searcher(&data, tau, 2);
  const auto expected = BruteForcePairs(
      static_cast<int>(data.size()), [&](int i, int j) {
        return editdist::BandedEditDistance(data[i], data[j], tau) <= tau;
      });
  ASSERT_FALSE(expected.empty());
  EditAdapter ring(searcher, &data, editdist::EditFilter::kRing, 3);
  EditAdapter pivotal(searcher, &data, editdist::EditFilter::kPivotal, 1);
  Executor executor;
  const ExecutionContext sequential(executor, {});
  EXPECT_EQ(SelfJoin(ring, sequential), expected);
  EXPECT_EQ(SelfJoin(pivotal, sequential), expected);
}

TEST(SelfJoinTest, GraphJoinMatchesBruteForce) {
  datagen::GraphConfig config;
  config.num_graphs = 120;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 83;
  const auto data = datagen::GenerateGraphs(config);
  const int tau = 2;
  graphed::GraphSearcher searcher(&data, tau);
  const auto expected = BruteForcePairs(
      static_cast<int>(data.size()), [&](int i, int j) {
        return graphed::GraphEditDistanceWithin(data[i], data[j], tau) <=
               tau;
      });
  GraphAdapter ring(searcher, &data, graphed::GraphFilter::kRing, 2);
  GraphAdapter pars(searcher, &data, graphed::GraphFilter::kPars, 1);
  Executor executor;
  const ExecutionContext sequential(executor, {});
  EXPECT_EQ(SelfJoin(ring, sequential), expected);
  EXPECT_EQ(SelfJoin(pars, sequential), expected);
}

TEST(SelfJoinTest, PairsAreCanonicalAndUnique) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 200;
  config.num_clusters = 5;
  config.flip_rate = 0.02;
  config.seed = 89;
  auto objects = datagen::GenerateBinaryVectors(config);
  HammingAdapter adapter(hamming::HammingSearcher(objects, 4), 12, 3);
  Executor executor;
  const auto pairs = SelfJoin(adapter, ExecutionContext(executor, {}));
  std::set<std::pair<int, int>> seen;
  for (const IdPair& p : pairs) {
    EXPECT_LT(p.first, p.second);
    EXPECT_TRUE(seen.insert({p.first, p.second}).second) << "duplicate pair";
  }
}

}  // namespace
}  // namespace pigeonring::engine
