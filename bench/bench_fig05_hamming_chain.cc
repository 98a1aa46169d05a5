// Figure 5: effect of chain length on Hamming distance search.
//
// Panels (a)/(c): average candidates per query vs chain length, two
// thresholds per dataset. Panels (b)/(d): candidate-generation time and
// total search time vs chain length. Datasets are GIST-like (d = 256) and
// SIFT-like (d = 512) synthetic binary codes (see DESIGN.md §3 for the
// substitution); thresholds are scaled to the synthetic distance
// distribution so result counts are comparable to the paper's.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/advisor.h"
#include "datagen/binary_vectors.h"
#include "hamming/search.h"

namespace {

using namespace pigeonring;

void RunPanel(const char* name, int dimensions, const std::vector<int>& taus,
              uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dimensions;
  config.num_objects = bench::Scaled(100000);
  config.num_clusters = bench::Scaled(2000);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = seed;
  std::printf("[%s] generating %d codes (d = %d)...\n", name,
              config.num_objects, dimensions);
  auto objects = datagen::GenerateBinaryVectors(config);
  auto queries =
      datagen::SampleQueries(objects, bench::Scaled(100), seed + 1);
  hamming::HammingSearcher searcher(std::move(objects));

  const int max_l = 8;
  for (int tau : taus) {
    Table table(std::string(name) + ", tau = " + Table::Int(tau) +
                    " (avg per query)",
                {"chain length l", "candidates", "results",
                 "cand. gen. time (ms)", "total time (ms)"});
    for (int l = 1; l <= max_l; ++l) {
      bench::Avg candidates, results, filter_ms, total_ms;
      for (const auto& q : queries) {
        engine::QueryStats stats;
        searcher.Search(q, tau, l, hamming::AllocationMode::kCostModel,
                        &stats);
        candidates.Add(static_cast<double>(stats.candidates));
        results.Add(static_cast<double>(stats.results));
        filter_ms.Add(stats.filter_millis);
        total_ms.Add(stats.total_millis);
      }
      table.AddRow({Table::Int(l), Table::Num(candidates.Mean(), 1),
                    Table::Num(results.Mean(), 1),
                    Table::Num(filter_ms.Mean(), 4),
                    Table::Num(total_ms.Mean(), 4)});
    }
    table.Print();
    // Analytic suggestion from the §3.1 model + §7 cost decomposition, for
    // comparison with the measured optimum.
    const int m = searcher.num_parts();
    core::FilterAnalysis analysis(
        core::DiscretePmf::Binomial(dimensions / m, 0.5), m, tau);
    core::ChainCostModel costs{1.0, static_cast<double>(dimensions) / 32};
    std::printf("advisor suggests l = %d for this setting\n\n",
                core::SuggestChainLength(analysis, std::min(8, m), costs));
  }
}

}  // namespace

int main() {
  std::printf("== Figure 5: effect of chain length, Hamming distance ==\n\n");
  RunPanel("GIST-like", 256, {48, 64}, 1001);
  RunPanel("SIFT-like", 512, {96, 128}, 2002);
  std::printf(
      "Paper shape check: candidates are non-increasing in l; candidate\n"
      "generation time grows with l; total time falls then rebounds\n"
      "(best around l = 5-6).\n");
  return 0;
}
