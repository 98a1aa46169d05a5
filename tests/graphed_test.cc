// Unit, integration, and property tests for graph edit distance search
// (graph type, exact GED, partitioning, subgraph isomorphism, deletion
// neighborhood, Pars baseline, Ring upgrade).

#include "graphed/pars.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/graphs.h"
#include "graphed/ged.h"
#include "graphed/subiso.h"

namespace pigeonring::graphed {
namespace {

using datagen::GenerateGraphs;
using datagen::GraphConfig;

Graph Triangle(int l0, int l1, int l2, int e01, int e12, int e02) {
  Graph g({l0, l1, l2});
  g.AddEdge(0, 1, e01);
  g.AddEdge(1, 2, e12);
  g.AddEdge(0, 2, e02);
  return g;
}

Graph RandomGraph(Rng& rng, int max_vertices, int vlabels, int elabels) {
  const int n = 1 + static_cast<int>(rng.NextBounded(max_vertices));
  std::vector<int> labels(n);
  for (int& l : labels) l = static_cast<int>(rng.NextBounded(vlabels));
  Graph g(std::move(labels));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextBernoulli(0.3)) {
        g.AddEdge(u, v, static_cast<int>(rng.NextBounded(elabels)));
      }
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Graph basics.
// ---------------------------------------------------------------------------

TEST(GraphTest, EdgesAndNeighbors) {
  Graph g({1, 2, 3});
  g.AddEdge(0, 1, 7);
  g.AddEdge(2, 1, 8);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.EdgeLabel(0, 1), 7);
  EXPECT_EQ(g.EdgeLabel(1, 0), 7);
  EXPECT_EQ(g.EdgeLabel(1, 2), 8);
  EXPECT_EQ(g.EdgeLabel(0, 2), -1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Degree(0), 1);
}

// ---------------------------------------------------------------------------
// Exact GED.
// ---------------------------------------------------------------------------

TEST(GedTest, IdenticalGraphsHaveZeroDistance) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = RandomGraph(rng, 8, 4, 2);
    EXPECT_EQ(GraphEditDistanceWithin(g, g, 3), 0);
  }
}

TEST(GedTest, KnownSmallCases) {
  const Graph a = Triangle(1, 2, 3, 0, 0, 0);
  // One vertex relabel.
  EXPECT_EQ(GraphEditDistanceWithin(a, Triangle(1, 2, 9, 0, 0, 0), 3), 1);
  // One edge relabel.
  EXPECT_EQ(GraphEditDistanceWithin(a, Triangle(1, 2, 3, 0, 0, 5), 3), 1);
  // Remove one edge: path vs triangle.
  Graph path({1, 2, 3});
  path.AddEdge(0, 1, 0);
  path.AddEdge(1, 2, 0);
  EXPECT_EQ(GraphEditDistanceWithin(a, path, 3), 1);
  // Empty vs single vertex: one insertion.
  EXPECT_EQ(GraphEditDistanceWithin(Graph(std::vector<int>{}), Graph({5}), 2),
            1);
  // Deleting a degree-2 vertex costs 1 + 2 (edges first).
  Graph two({1, 2});
  two.AddEdge(0, 1, 0);
  EXPECT_EQ(GraphEditDistanceWithin(a, two, 4),
            3);  // delete vertex 3's two edges + the vertex... relabels may
                 // do better; check against an explicit bound below.
}

TEST(GedTest, SymmetricOnRandomPairs) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph a = RandomGraph(rng, 5, 3, 2);
    const Graph b = RandomGraph(rng, 5, 3, 2);
    const int tau = 6;
    const int ab = GraphEditDistanceWithin(a, b, tau);
    const int ba = GraphEditDistanceWithin(b, a, tau);
    if (ab <= tau || ba <= tau) {
      EXPECT_EQ(ab, ba) << "GED must be symmetric";
    }
  }
}

TEST(GedTest, PerturbationBoundsDistance) {
  // k edit operations applied to a graph put the result within GED k.
  Rng rng(11);
  GraphConfig config;
  config.vertex_labels = 5;
  config.edge_labels = 2;
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = RandomGraph(rng, 6, 5, 2);
    if (g.num_vertices() < 2) continue;
    // One relabel = distance <= 1.
    Graph relabeled = g;
    relabeled.set_vertex_label(0, 99);
    EXPECT_LE(GraphEditDistanceWithin(g, relabeled, 2), 1);
    // One pendant vertex addition = distance <= 2 (vertex + edge).
    Graph extended = g;
    const int v = extended.AddVertex(3);
    extended.AddEdge(0, v, 1);
    EXPECT_LE(GraphEditDistanceWithin(g, extended, 3), 2);
  }
}

TEST(GedTest, LabelLowerBoundIsAdmissible) {
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph a = RandomGraph(rng, 5, 3, 2);
    const Graph b = RandomGraph(rng, 5, 3, 2);
    const int tau = 8;
    const int exact = GraphEditDistanceWithin(a, b, tau);
    if (exact <= tau) {
      EXPECT_LE(LabelLowerBound(a, b), exact);
    }
  }
}

TEST(GedTest, ThresholdAbortNeverUnderreports) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph a = RandomGraph(rng, 5, 3, 2);
    const Graph b = RandomGraph(rng, 5, 3, 2);
    const int exact = GraphEditDistanceWithin(a, b, 10);
    for (int tau = 0; tau <= 6; ++tau) {
      const int banded = GraphEditDistanceWithin(a, b, tau);
      if (exact <= tau) {
        EXPECT_EQ(banded, exact);
      } else {
        EXPECT_GT(banded, tau);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------------

TEST(PartitionTest, PartsCoverVerticesAndEdgesExactlyOnce) {
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = RandomGraph(rng, 12, 4, 3);
    for (int m : {1, 2, 3, 5}) {
      if (m > std::max(1, g.num_vertices())) continue;
      const std::vector<Part> parts = PartitionGraph(g, m, trial);
      EXPECT_EQ(static_cast<int>(parts.size()), m);
      int vertices = 0, internal_edges = 0, half_edges = 0;
      for (const Part& part : parts) {
        vertices += part.graph.num_vertices();
        internal_edges += part.graph.num_edges();
        half_edges += static_cast<int>(part.half_edges.size());
      }
      EXPECT_EQ(vertices, g.num_vertices());
      // Every edge is either internal to one part or one half-edge.
      EXPECT_EQ(internal_edges + half_edges, g.num_edges());
    }
  }
}

TEST(PartitionTest, BalancedSizes) {
  Rng rng(23);
  const Graph g = RandomGraph(rng, 12, 4, 2);
  const std::vector<Part> parts = PartitionGraph(g, 4, 1);
  int min_size = g.num_vertices(), max_size = 0;
  for (const Part& part : parts) {
    min_size = std::min(min_size, part.graph.num_vertices());
    max_size = std::max(max_size, part.graph.num_vertices());
  }
  EXPECT_LE(max_size - min_size, 1);
}

// ---------------------------------------------------------------------------
// Subgraph isomorphism.
// ---------------------------------------------------------------------------

TEST(SubIsoTest, PartOfGraphIsIsomorphicToIt) {
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = RandomGraph(rng, 10, 4, 3);
    if (g.num_vertices() == 0) continue;
    const std::vector<Part> parts =
        PartitionGraph(g, std::min(3, g.num_vertices()), trial);
    for (const Part& part : parts) {
      EXPECT_TRUE(PartLabelsContained(part, g));
      EXPECT_TRUE(PartSubgraphIsomorphic(part, g))
          << "a part must embed into its own graph";
    }
  }
}

TEST(SubIsoTest, LabelMismatchFails) {
  Part part;
  part.graph = Graph({1, 2});
  part.graph.AddEdge(0, 1, 0);
  Graph q({1, 3});
  q.AddEdge(0, 1, 0);
  EXPECT_FALSE(PartSubgraphIsomorphic(part, q));
  // Wildcard rescues the mismatch.
  part.graph.set_vertex_label(1, Graph::kWildcardLabel);
  EXPECT_TRUE(PartSubgraphIsomorphic(part, q));
}

TEST(SubIsoTest, EdgeLabelMismatchFails) {
  Part part;
  part.graph = Graph({1, 2});
  part.graph.AddEdge(0, 1, 5);
  Graph q({1, 2});
  q.AddEdge(0, 1, 6);
  EXPECT_FALSE(PartSubgraphIsomorphic(part, q));
}

TEST(SubIsoTest, HalfEdgesRequireIncidentLabels) {
  Part part;
  part.graph = Graph({1});
  part.half_edges.emplace_back(0, 7);
  Graph q_without({1, 2});
  q_without.AddEdge(0, 1, 3);
  EXPECT_FALSE(PartSubgraphIsomorphic(part, q_without));
  Graph q_with({1, 2});
  q_with.AddEdge(0, 1, 7);
  EXPECT_TRUE(PartSubgraphIsomorphic(part, q_with));
}

TEST(SubIsoTest, TwoHalfEdgesMayShareOneQueryEdge) {
  // Soundness of the relaxation: two half-edges with the same label on
  // different part vertices are satisfiable by the two endpoints of a
  // single query edge.
  Part part;
  part.graph = Graph({1, 1});
  part.half_edges.emplace_back(0, 7);
  part.half_edges.emplace_back(1, 7);
  Graph q({1, 1});
  q.AddEdge(0, 1, 7);
  EXPECT_TRUE(PartLabelsContained(part, q));
  EXPECT_TRUE(PartSubgraphIsomorphic(part, q));
}

// ---------------------------------------------------------------------------
// Deletion neighborhood.
// ---------------------------------------------------------------------------

TEST(DeletionNeighborhoodTest, ZeroOpsEqualsSubIso) {
  Rng rng(31);
  int64_t tests = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = RandomGraph(rng, 8, 3, 2);
    const Graph q = RandomGraph(rng, 8, 3, 2);
    if (g.num_vertices() == 0) continue;
    const std::vector<Part> parts = PartitionGraph(g, 2, trial);
    for (const Part& part : parts) {
      const int r = DeletionNeighborhoodBound(part, q, 0, &tests);
      EXPECT_EQ(r == 0, PartSubgraphIsomorphic(part, q));
    }
  }
}

TEST(DeletionNeighborhoodTest, BoundLowerBoundsPartDistance) {
  // r <= min ged(part, subgraph of q): verified indirectly — if the true
  // data graph is within tau of the query, the per-part bounds summed along
  // any chain may not exceed the viability budget (this is exactly the
  // completeness property the searcher test below exercises end to end).
  // Here: deleting one edge from a part makes it reachable in <= 1 op.
  Rng rng(37);
  int64_t tests = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = RandomGraph(rng, 8, 3, 2);
    if (g.num_edges() == 0) continue;
    const std::vector<Part> parts = PartitionGraph(g, 1, trial);
    const Part& whole = parts[0];
    // Remove one edge from the query side.
    Graph q(g.vertex_labels());
    for (int i = 1; i < g.num_edges(); ++i) {
      const Edge& e = g.edges()[i];
      q.AddEdge(e.u, e.v, e.label);
    }
    const int r = DeletionNeighborhoodBound(whole, q, 2, &tests);
    EXPECT_LE(r, 1);
  }
}

// ---------------------------------------------------------------------------
// End-to-end search correctness.
// ---------------------------------------------------------------------------

struct GraphCase {
  int tau;
  GraphFilter filter;
  int chain_length;
  int vertex_labels;
};

class GraphSearchCorrectness : public ::testing::TestWithParam<GraphCase> {};

TEST_P(GraphSearchCorrectness, MatchesBruteForce) {
  const auto [tau, filter, chain_length, vertex_labels] = GetParam();
  GraphConfig config;
  config.num_graphs = 250;
  config.avg_vertices = 9;
  config.avg_edges = 11;
  config.vertex_labels = vertex_labels;
  config.edge_labels = 3;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = std::max(1, tau);
  config.seed = 900 + tau + vertex_labels;
  const auto data = GenerateGraphs(config);
  GraphSearcher searcher(&data, tau);
  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    const Graph& query = data[rng.NextBounded(data.size())];
    const auto expected = BruteForceGedSearch(data, query, tau);
    EXPECT_EQ(searcher.Search(query, filter, chain_length), expected)
        << "tau=" << tau << " l=" << chain_length;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GraphSearchCorrectness,
    ::testing::Values(GraphCase{1, GraphFilter::kPars, 1, 10},
                      GraphCase{2, GraphFilter::kPars, 1, 10},
                      GraphCase{2, GraphFilter::kRing, 2, 10},
                      GraphCase{3, GraphFilter::kRing, 2, 10},
                      GraphCase{3, GraphFilter::kRing, 3, 10},
                      GraphCase{4, GraphFilter::kRing, 3, 10},
                      GraphCase{3, GraphFilter::kRing, 3, 3},
                      GraphCase{0, GraphFilter::kRing, 1, 10}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return "tau" + std::to_string(info.param.tau) +
             (info.param.filter == GraphFilter::kPars ? "_pars" : "_ring") +
             "_l" + std::to_string(info.param.chain_length) + "_vl" +
             std::to_string(info.param.vertex_labels);
    });

TEST(GraphSearchTest, RingCandidatesSubsetOfPars) {
  GraphConfig config;
  config.num_graphs = 400;
  config.avg_vertices = 10;
  config.avg_edges = 12;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.seed = 43;
  const auto data = GenerateGraphs(config);
  const int tau = 3;
  GraphSearcher searcher(&data, tau);
  Rng rng(47);
  for (int i = 0; i < 6; ++i) {
    const Graph& query = data[rng.NextBounded(data.size())];
    engine::QueryStats pars_stats, ring_stats;
    const auto pars_results =
        searcher.Search(query, GraphFilter::kPars, 1, &pars_stats);
    const auto ring_results =
        searcher.Search(query, GraphFilter::kRing, tau, &ring_stats);
    EXPECT_EQ(pars_results, ring_results);
    EXPECT_LE(ring_stats.candidates, pars_stats.candidates);
    EXPECT_GE(ring_stats.candidates, ring_stats.results);
  }
}

TEST(GraphSearchTest, QueryFindsItself) {
  GraphConfig config;
  config.num_graphs = 100;
  config.seed = 53;
  const auto data = GenerateGraphs(config);
  GraphSearcher searcher(&data, 2);
  for (int id : {0, 50, 99}) {
    const auto results = searcher.Search(data[id], GraphFilter::kRing, 2);
    EXPECT_TRUE(std::find(results.begin(), results.end(), id) !=
                results.end());
  }
}

TEST(DatagenTest, GraphsDeterministicAndShaped) {
  GraphConfig config;
  config.num_graphs = 200;
  config.seed = 59;
  const auto a = GenerateGraphs(config);
  const auto b = GenerateGraphs(config);
  ASSERT_EQ(a.size(), b.size());
  double vertices = 0, edges = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vertex_labels(), b[i].vertex_labels());
    EXPECT_EQ(a[i].edges().size(), b[i].edges().size());
    vertices += a[i].num_vertices();
    edges += a[i].num_edges();
  }
  EXPECT_NEAR(vertices / a.size(), config.avg_vertices, 4.0);
  EXPECT_GT(edges / a.size(), config.avg_vertices - 4.0);
}

}  // namespace
}  // namespace pigeonring::graphed
