// Figure 11: Pivotal vs Ring on string edit distance search across
// thresholds.
//
// Reports Pivotal's two candidate stages (Cand-1 = pivotal prefix filter,
// Cand-2 = alignment filter) against Ring's candidates, plus total times.
// IMDB-like: tau = 1..4 with the paper's kappa schedule (3, 2, 2, 2);
// PubMed-like: tau = 4..12 with kappa (8, 6, 6, 4, 4).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/table.h"
#include "datagen/strings.h"
#include "editdist/pivotal.h"

namespace {

using namespace pigeonring;

void RunPanel(const char* name, int avg_length, int num_records,
              const std::vector<std::pair<int, int>>& tau_kappa,
              uint64_t seed) {
  datagen::StringConfig config;
  config.num_records = bench::Scaled(num_records);
  config.avg_length = avg_length;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 4;
  config.seed = seed;
  std::printf("[%s] generating %d strings (avg length %d)...\n", name,
              config.num_records, avg_length);
  const auto data = datagen::GenerateStrings(config);

  Rng rng(seed + 1);
  std::vector<int> query_ids;
  for (int i = 0; i < bench::Scaled(200); ++i) {
    query_ids.push_back(static_cast<int>(rng.NextBounded(data.size())));
  }

  Table cand_table(std::string(name) + ": avg candidates per query",
                   {"tau", "Pivotal Cand-1", "Pivotal Cand-2", "Ring",
                    "results"});
  Table time_table(std::string(name) + ": avg search time (ms) per query",
                   {"tau", "Pivotal", "Ring", "speedup"});
  for (const auto& [tau, kappa] : tau_kappa) {
    editdist::EditDistanceSearcher searcher(&data, tau, kappa);
    const int l = std::min(3, tau + 1);
    bench::Avg cand1, cand2, ring_cand, results, piv_ms, ring_ms;
    for (int id : query_ids) {
      engine::QueryStats stats;
      searcher.Search(data[id], editdist::EditFilter::kPivotal, 1, &stats);
      cand1.Add(static_cast<double>(stats.candidates));
      cand2.Add(static_cast<double>(stats.candidates_stage2));
      piv_ms.Add(stats.total_millis);
      searcher.Search(data[id], editdist::EditFilter::kRing, l, &stats);
      ring_cand.Add(static_cast<double>(stats.candidates));
      ring_ms.Add(stats.total_millis);
      results.Add(static_cast<double>(stats.results));
    }
    cand_table.AddRow({Table::Int(tau), Table::Num(cand1.Mean(), 1),
                       Table::Num(cand2.Mean(), 1),
                       Table::Num(ring_cand.Mean(), 1),
                       Table::Num(results.Mean(), 1)});
    time_table.AddRow(
        {Table::Int(tau), Table::Num(piv_ms.Mean(), 4),
         Table::Num(ring_ms.Mean(), 4),
         Table::Num(piv_ms.Mean() / std::max(1e-9, ring_ms.Mean()), 2) +
             "x"});
  }
  cand_table.Print();
  std::printf("\n");
  time_table.Print();
  std::printf("\n");
}

// Engine extension (not in the paper): an IMDB-like edit-distance
// self-join through the public api::Db facade, sequential vs sharded.
void RunJoinPanel() {
  datagen::StringConfig config;
  config.num_records = bench::Scaled(20000);
  config.avg_length = 16;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 2;
  config.seed = 5007;
  std::printf("[join] generating %d strings (avg length %d)...\n",
              config.num_records, config.avg_length);
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  api::Db db = bench::BenchUnwrap(
      api::Db::Open(spec, api::Dataset(datagen::GenerateStrings(config))),
      "open strings");
  bench::RunDbJoinScalingTable(
      "Edit-distance self-join (tau = 2, l = 3): Db thread scaling", db,
      {2, 4});
}

}  // namespace

int main() {
  std::printf(
      "== Figure 11: comparison on string edit distance search ==\n\n");
  RunPanel("IMDB-like", 16, 100000, {{1, 3}, {2, 2}, {3, 2}, {4, 2}}, 5005);
  RunPanel("PubMed-like", 101, 30000,
           {{4, 8}, {6, 6}, {8, 6}, {10, 4}, {12, 4}}, 6006);
  RunJoinPanel();
  std::printf(
      "Paper shape check: Cand-2 can undercut Ring's candidate count, but\n"
      "Ring wins on time because its chain check costs a few bit\n"
      "operations instead of exact gram edit distances.\n");
  return 0;
}
