// Figure 12: Pars vs Ring on graph edit distance search across thresholds.
//
// AIDS-like (many labels) and Protein-like (few labels) synthetic graphs,
// tau = 1..5; Ring uses l = max(1, tau - 1) within the paper's best band
// [tau - 2, tau].

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/table.h"
#include "datagen/graphs.h"
#include "graphed/pars.h"

namespace {

using namespace pigeonring;

void RunPanel(const char* name, const datagen::GraphConfig& base_config,
              uint64_t query_seed) {
  datagen::GraphConfig config = base_config;
  config.num_graphs = bench::Scaled(base_config.num_graphs);
  std::printf("[%s] generating %d graphs (~%dV/%dE, %d/%d labels)...\n", name,
              config.num_graphs, config.avg_vertices, config.avg_edges,
              config.vertex_labels, config.edge_labels);
  const auto data = datagen::GenerateGraphs(config);

  Rng rng(query_seed);
  std::vector<int> query_ids;
  for (int i = 0; i < bench::Scaled(30); ++i) {
    query_ids.push_back(static_cast<int>(rng.NextBounded(data.size())));
  }

  Table table(std::string(name) + ": Pars vs Ring, avg per query",
              {"tau", "Pars cand.", "Ring cand.", "results",
               "Pars time (ms)", "Ring time (ms)", "speedup"});
  for (int tau = 1; tau <= 5; ++tau) {
    graphed::GraphSearcher searcher(&data, tau);
    const int l = std::max(1, tau - 1);
    bench::Avg pars_cand, ring_cand, results, pars_ms, ring_ms;
    for (int id : query_ids) {
      engine::QueryStats stats;
      searcher.Search(data[id], graphed::GraphFilter::kPars, 1, &stats);
      pars_cand.Add(static_cast<double>(stats.candidates));
      pars_ms.Add(stats.total_millis);
      searcher.Search(data[id], graphed::GraphFilter::kRing, l, &stats);
      ring_cand.Add(static_cast<double>(stats.candidates));
      ring_ms.Add(stats.total_millis);
      results.Add(static_cast<double>(stats.results));
    }
    table.AddRow(
        {Table::Int(tau), Table::Num(pars_cand.Mean(), 1),
         Table::Num(ring_cand.Mean(), 1), Table::Num(results.Mean(), 1),
         Table::Num(pars_ms.Mean(), 3), Table::Num(ring_ms.Mean(), 3),
         Table::Num(pars_ms.Mean() / std::max(1e-9, ring_ms.Mean()), 2) +
             "x"});
  }
  table.Print();
  std::printf("\n");
}

// Engine extension (not in the paper): an AIDS-like GED self-join through
// the public api::Db facade, sequential vs sharded.
void RunJoinPanel() {
  datagen::GraphConfig config;
  config.num_graphs = bench::Scaled(1000);
  config.avg_vertices = 10;
  config.avg_edges = 11;
  config.vertex_labels = 20;
  config.edge_labels = 3;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 7009;
  std::printf("[join] generating %d graphs...\n", config.num_graphs);
  api::IndexSpec spec;
  spec.domain = api::Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(datagen::GenerateGraphs(config))),
      "open graphs");
  bench::RunDbJoinScalingTable(
      "GED self-join (tau = 2, l = 2): Db thread scaling", db, {2, 4});
}

}  // namespace

int main() {
  std::printf(
      "== Figure 12: comparison on graph edit distance search ==\n\n");
  datagen::GraphConfig aids;
  aids.num_graphs = 4000;
  aids.avg_vertices = 12;
  aids.avg_edges = 13;
  aids.vertex_labels = 30;
  aids.label_skew = 1.2;
  aids.edge_labels = 3;
  aids.duplicate_fraction = 0.4;
  aids.max_perturb_ops = 5;
  aids.seed = 7007;
  RunPanel("AIDS-like", aids, 7008);

  datagen::GraphConfig protein;
  protein.num_graphs = 1500;
  protein.avg_vertices = 14;
  protein.avg_edges = 24;
  protein.vertex_labels = 3;
  protein.edge_labels = 5;
  protein.duplicate_fraction = 0.4;
  protein.max_perturb_ops = 5;
  protein.seed = 8008;
  RunPanel("Protein-like", protein, 8009);
  RunJoinPanel();

  std::printf(
      "Paper shape check: Ring <= Pars candidates everywhere; the gap (and\n"
      "speedup) is clear on AIDS-like and nearly vanishes on Protein-like,\n"
      "whose few labels make subgraph parts unselective.\n");
  return 0;
}
