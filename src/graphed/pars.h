// Graph edit distance search: the Pars pigeonhole baseline and the
// pigeonring (Ring) upgrade (§6.4).
//
// Filtering instance: m = tau + 1 boxes, b_i = minimum graph edit distance
// from part x_i (with half-edges) to any subgraph of q; D(tau) = tau.
// ||B||_1 <= ged(x, q), so the instance is complete (not tight). Uniform
// thresholds tau/m < 1 make b_i = 0 (a subgraph-isomorphic part) the entry
// condition.
//
//  * Pars baseline: candidate as soon as one part is subgraph-isomorphic.
//  * Ring: from each subgraph-isomorphic part, the strong-form chain check
//    of length l. The next box's value is lower-bounded by probing the
//    *deletion neighborhood* (§6.4): b_j <= r only if some variant of part
//    j reachable by r operations (delete an edge or half-edge, delete an
//    isolated vertex, wildcard a vertex label) is subgraph-isomorphic to q.
//
// Candidate generation scans the collection with a cheap label-containment
// pre-filter per part before the backtracking test; the original Pars adds
// a trie index over parts, which changes constants but not candidates.

#ifndef PIGEONRING_GRAPHED_PARS_H_
#define PIGEONRING_GRAPHED_PARS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/id_limit.h"
#include "engine/query_stats.h"
#include "graphed/partition.h"
#include "graphed/subiso.h"

namespace pigeonring::graphed {

/// Filtering mode for GraphSearcher::Search.
enum class GraphFilter {
  kPars,  // pigeonhole: any subgraph-isomorphic part
  kRing,  // pigeonring: prefix-viable chain from a subgraph-isomorphic part
};

/// Lower-bounds box value b_j: returns the smallest r in [0, max_ops] such
/// that a variant of `part` reachable by r deletion-neighborhood operations
/// is subgraph-isomorphic to `query`, or max_ops + 1 if none is.
int DeletionNeighborhoodBound(const Part& part, const Graph& query,
                              int max_ops, int64_t* subiso_tests);

/// Searcher for ged(x, q) <= tau over a fixed graph collection.
///
/// Copies are cheap and parallel-safe: the per-graph partitions and label
/// histograms are immutable after construction and shared between copies
/// behind a shared_ptr (concurrent reads, no locks); the searcher keeps no
/// per-query scratch. The engine's per-thread clones and the api layer's
/// per-session cursors rely on this.
class GraphSearcher {
 public:
  // Compact per-graph label histograms for the scan-time lower bound (the
  // generic LabelLowerBound allocates maps, too slow for the per-query
  // collection scan).
  struct LabelHistogram {
    std::vector<int> vertex_counts;  // indexed by label
    std::vector<int> edge_counts;
    int num_vertices = 0;
    int num_edges = 0;
  };

  /// The built partitions + histograms. Immutable after construction,
  /// shared between searcher copies; exposed so the storage layer can
  /// serialize and bulk-load it.
  struct State {
    std::vector<std::vector<Part>> parts;
    std::vector<LabelHistogram> histograms;
  };

  /// Partitions every data graph into tau + 1 parts (deterministic in
  /// `partition_seed`), then adopts the state through the constructor
  /// below.
  GraphSearcher(const std::vector<Graph>* data, int tau,
                uint64_t partition_seed = 1);

  /// Adopts built partitions and histograms, as the build constructor and
  /// the storage layer's bulk load both do: nothing is re-derived. `state`
  /// must describe exactly `data` under the same tau and seed.
  GraphSearcher(const std::vector<Graph>* data, int tau,
                std::shared_ptr<const State> state);

  int tau() const { return tau_; }
  int num_boxes() const { return tau_ + 1; }
  const std::vector<Part>& parts(int id) const { return state_->parts[id]; }
  const State& state() const { return *state_; }

  /// Finds ids in `range` (common/id_limit.h) of all graphs with
  /// ged(x, query) <= tau. `chain_length` is used only by GraphFilter::kRing
  /// (the paper's best setting is l in [tau - 2, tau]).
  std::vector<int> Search(const Graph& query, GraphFilter filter,
                          int chain_length,
                          engine::QueryStats* stats = nullptr,
                          IdRange range = {});

 private:
  static int HistogramLowerBound(const LabelHistogram& a,
                                 const LabelHistogram& b);

  const std::vector<Graph>* data_;
  int tau_;
  std::shared_ptr<const State> state_;
};

/// Reference result set by exhaustive GED scan.
std::vector<int> BruteForceGedSearch(const std::vector<Graph>& data,
                                     const Graph& query, int tau);

}  // namespace pigeonring::graphed

#endif  // PIGEONRING_GRAPHED_PARS_H_
