#include "graphed/pars.h"

#include <algorithm>

#include "common/timer.h"
#include "graphed/ged.h"

namespace pigeonring::graphed {

namespace {

// Rebuilds a Part without internal edge `edge_index`.
Part WithoutEdge(const Part& part, int edge_index) {
  Part variant;
  variant.graph = Graph(part.graph.vertex_labels());
  for (int i = 0; i < part.graph.num_edges(); ++i) {
    if (i == edge_index) continue;
    const Edge& e = part.graph.edges()[i];
    variant.graph.AddEdge(e.u, e.v, e.label);
  }
  variant.half_edges = part.half_edges;
  return variant;
}

Part WithoutHalfEdge(const Part& part, int half_index) {
  Part variant = part;
  variant.half_edges.erase(variant.half_edges.begin() + half_index);
  return variant;
}

Part WithWildcard(const Part& part, int vertex) {
  Part variant = part;
  variant.graph.set_vertex_label(vertex, Graph::kWildcardLabel);
  return variant;
}

// Rebuilds a Part without (isolated) vertex `vertex`.
Part WithoutVertex(const Part& part, int vertex) {
  Part variant;
  std::vector<int> remap(part.graph.num_vertices(), -1);
  for (int v = 0; v < part.graph.num_vertices(); ++v) {
    if (v == vertex) continue;
    remap[v] = variant.graph.AddVertex(part.graph.vertex_label(v));
  }
  for (const Edge& e : part.graph.edges()) {
    variant.graph.AddEdge(remap[e.u], remap[e.v], e.label);
  }
  for (const auto& [v, label] : part.half_edges) {
    variant.half_edges.emplace_back(remap[v], label);
  }
  return variant;
}

bool IsIsolated(const Part& part, int vertex) {
  if (part.graph.Degree(vertex) > 0) return false;
  for (const auto& [v, label] : part.half_edges) {
    (void)label;
    if (v == vertex) return false;
  }
  return true;
}

// True iff some variant of `part` reachable by at most `ops_left`
// deletion-neighborhood operations is subgraph-isomorphic to `query`.
bool Reachable(const Part& part, const Graph& query, int ops_left,
               int64_t* subiso_tests) {
  ++*subiso_tests;
  if (PartLabelsContained(part, query) &&
      PartSubgraphIsomorphic(part, query)) {
    return true;
  }
  if (ops_left == 0) return false;
  for (int i = 0; i < part.graph.num_edges(); ++i) {
    if (Reachable(WithoutEdge(part, i), query, ops_left - 1, subiso_tests)) {
      return true;
    }
  }
  for (size_t i = 0; i < part.half_edges.size(); ++i) {
    if (Reachable(WithoutHalfEdge(part, static_cast<int>(i)), query,
                  ops_left - 1, subiso_tests)) {
      return true;
    }
  }
  for (int v = 0; v < part.graph.num_vertices(); ++v) {
    if (part.graph.vertex_label(v) != Graph::kWildcardLabel &&
        Reachable(WithWildcard(part, v), query, ops_left - 1, subiso_tests)) {
      return true;
    }
    if (IsIsolated(part, v) &&
        Reachable(WithoutVertex(part, v), query, ops_left - 1,
                  subiso_tests)) {
      return true;
    }
  }
  return false;
}

// Size-difference lower bound on ged: every operation changes |V| or |E|
// by at most one.
int SizeLowerBound(const Graph& a, const Graph& b) {
  return std::abs(a.num_vertices() - b.num_vertices()) +
         std::abs(a.num_edges() - b.num_edges());
}

}  // namespace

int DeletionNeighborhoodBound(const Part& part, const Graph& query,
                              int max_ops, int64_t* subiso_tests) {
  for (int r = 0; r <= max_ops; ++r) {
    if (Reachable(part, query, r, subiso_tests)) return r;
  }
  return max_ops + 1;
}

namespace {

GraphSearcher::LabelHistogram BuildHistogram(const Graph& g) {
  GraphSearcher::LabelHistogram h;
  h.num_vertices = g.num_vertices();
  h.num_edges = g.num_edges();
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int label = g.vertex_label(v);
    if (label >= static_cast<int>(h.vertex_counts.size())) {
      h.vertex_counts.resize(label + 1, 0);
    }
    if (label >= 0) ++h.vertex_counts[label];
  }
  for (const Edge& e : g.edges()) {
    if (e.label >= static_cast<int>(h.edge_counts.size())) {
      h.edge_counts.resize(e.label + 1, 0);
    }
    if (e.label >= 0) ++h.edge_counts[e.label];
  }
  return h;
}

// The build constructor's state: every data graph split into tau + 1
// parts (seeded with partition_seed + graph id), and its label histogram.
std::shared_ptr<const GraphSearcher::State> BuildState(
    const std::vector<Graph>* data, int tau, uint64_t partition_seed) {
  PR_CHECK(data != nullptr);
  auto state = std::make_shared<GraphSearcher::State>();
  state->parts.reserve(data->size());
  state->histograms.reserve(data->size());
  for (size_t id = 0; id < data->size(); ++id) {
    state->parts.push_back(
        PartitionGraph((*data)[id], tau + 1, partition_seed + id));
    state->histograms.push_back(BuildHistogram((*data)[id]));
  }
  return state;
}

}  // namespace

GraphSearcher::GraphSearcher(const std::vector<Graph>* data, int tau,
                             uint64_t partition_seed)
    : GraphSearcher(data, tau, BuildState(data, tau, partition_seed)) {}

GraphSearcher::GraphSearcher(const std::vector<Graph>* data, int tau,
                             std::shared_ptr<const State> state)
    : data_(data), tau_(tau), state_(std::move(state)) {
  PR_CHECK(data_ != nullptr);
  PR_CHECK(tau_ >= 0);
  PR_CHECK_MSG(tau_ + 1 <= 64, "ruled-out bitmask supports at most 64 boxes");
  PR_CHECK(state_ != nullptr);
  PR_CHECK(state_->parts.size() == data_->size());
  PR_CHECK(state_->histograms.size() == data_->size());
}

int GraphSearcher::HistogramLowerBound(const LabelHistogram& a,
                                       const LabelHistogram& b) {
  int vertex_common = 0;
  const size_t vn = std::min(a.vertex_counts.size(), b.vertex_counts.size());
  for (size_t i = 0; i < vn; ++i) {
    vertex_common += std::min(a.vertex_counts[i], b.vertex_counts[i]);
  }
  int edge_common = 0;
  const size_t en = std::min(a.edge_counts.size(), b.edge_counts.size());
  for (size_t i = 0; i < en; ++i) {
    edge_common += std::min(a.edge_counts[i], b.edge_counts[i]);
  }
  return std::max(a.num_vertices, b.num_vertices) - vertex_common +
         std::max(a.num_edges, b.num_edges) - edge_common;
}

std::vector<int> GraphSearcher::Search(const Graph& query, GraphFilter filter,
                                       int chain_length,
                                       engine::QueryStats* stats,
                                       IdRange range) {
  StopWatch total_watch;
  StopWatch phase_watch;
  engine::QueryStats local;
  const int m = tau_ + 1;
  const int l = std::clamp(chain_length, 1, m);

  const LabelHistogram q_hist = BuildHistogram(query);
  std::vector<int> candidates;
  const IdRange scan = range.ClampTo(static_cast<int>(data_->size()));
  for (int id = scan.begin; id < scan.end; ++id) {
    const Graph& x = (*data_)[id];
    if (SizeLowerBound(x, query) > tau_) continue;
    if (HistogramLowerBound(state_->histograms[id], q_hist) > tau_) continue;
    const std::vector<Part>& parts = state_->parts[id];
    uint64_t ruled_out = 0;
    bool is_candidate = false;
    for (int i = 0; i < m && !is_candidate; ++i) {
      if (ruled_out & (uint64_t{1} << i)) continue;
      ++local.subiso_tests;
      if (!PartLabelsContained(parts[i], query) ||
          !PartSubgraphIsomorphic(parts[i], query)) {
        continue;  // b_i > 0: not an entry box
      }
      if (filter == GraphFilter::kPars || l == 1) {
        is_candidate = true;
        break;
      }
      int sum = 0;
      int failed_at = 0;
      for (int len = 2; len <= l; ++len) {
        const int j = (i + len - 1) % m;
        // Uniform thresholds: prefix viable iff sum <= floor(len*tau/m).
        const int budget = len * tau_ / m - sum;
        if (budget < 0) {
          failed_at = len;
          break;
        }
        const int r = DeletionNeighborhoodBound(parts[j], query, budget,
                                                &local.subiso_tests);
        if (r > budget) {
          failed_at = len;
          break;
        }
        sum += r;
      }
      if (failed_at != 0) {
        for (int off = 0; off < failed_at; ++off) {
          ruled_out |= uint64_t{1} << ((i + off) % m);
        }
        continue;
      }
      is_candidate = true;
    }
    if (is_candidate) candidates.push_back(id);
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.filter_millis = phase_watch.ElapsedMillis();

  phase_watch.Restart();
  std::vector<int> results;
  for (int id : candidates) {
    if (GraphEditDistanceWithin((*data_)[id], query, tau_) <= tau_) {
      results.push_back(id);
    }
  }
  local.verify_millis = phase_watch.ElapsedMillis();
  local.results = static_cast<int64_t>(results.size());
  local.total_millis = total_watch.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<int> BruteForceGedSearch(const std::vector<Graph>& data,
                                     const Graph& query, int tau) {
  std::vector<int> results;
  for (int id = 0; id < static_cast<int>(data.size()); ++id) {
    if (GraphEditDistanceWithin(data[id], query, tau) <= tau) {
      results.push_back(id);
    }
  }
  return results;
}

}  // namespace pigeonring::graphed
