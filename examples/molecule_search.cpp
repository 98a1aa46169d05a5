// Structure search over molecule-like graphs with graph edit distance
// (the AIDS antivirus-screen scenario of §8.1): find compounds whose
// structure is within a small number of edit operations of a query
// compound.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/table.h"
#include "datagen/graphs.h"
#include "graphed/pars.h"

int main() {
  using namespace pigeonring;

  datagen::GraphConfig config;
  config.num_graphs = 3000;
  config.avg_vertices = 12;
  config.avg_edges = 13;
  config.vertex_labels = 20;  // AIDS-like: many atom types
  config.edge_labels = 3;     // bond types
  config.duplicate_fraction = 0.4;
  config.seed = 8;
  std::printf("generating %d molecule-like graphs...\n", config.num_graphs);
  const auto data = datagen::GenerateGraphs(config);

  const int tau = 3;
  graphed::GraphSearcher searcher(&data, tau);

  Rng rng(21);
  std::vector<int> query_ids;
  for (int i = 0; i < 20; ++i) {
    query_ids.push_back(static_cast<int>(rng.NextBounded(data.size())));
  }

  Table table("graph edit distance <= 3, 20 queries",
              {"method", "avg candidates", "avg results",
               "avg subiso tests", "avg total (ms)"});
  using Method = std::tuple<const char*, graphed::GraphFilter, int>;
  for (const auto& [name, filter, l] :
       {Method{"Pars", graphed::GraphFilter::kPars, 1},
        Method{"Ring (l=tau)", graphed::GraphFilter::kRing, tau}}) {
    double candidates = 0, results = 0, tests = 0, total = 0;
    for (int id : query_ids) {
      engine::QueryStats stats;
      searcher.Search(data[id], filter, l, &stats);
      candidates += static_cast<double>(stats.candidates);
      results += static_cast<double>(stats.results);
      tests += static_cast<double>(stats.subiso_tests);
      total += stats.total_millis;
    }
    const double n = static_cast<double>(query_ids.size());
    table.AddRow({std::string(name), Table::Num(candidates / n, 1),
                  Table::Num(results / n, 1), Table::Num(tests / n, 0),
                  Table::Num(total / n, 3)});
  }
  table.Print();

  // Show one concrete query's matches.
  const int qid = query_ids.front();
  const auto results =
      searcher.Search(data[qid], graphed::GraphFilter::kRing, tau);
  std::printf("\nquery graph #%d (%d vertices, %d edges) matches %zu "
              "compounds within %d edits\n",
              qid, data[qid].num_vertices(), data[qid].num_edges(),
              results.size(), tau);
  return 0;
}
