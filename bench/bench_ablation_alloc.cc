// Ablation A2: threshold allocation schemes (§4).
//
// Part 1 (principle-level): on full box vectors, counts candidates under
//   (a) uniform thresholds t_i = tau/m              (Theorem 3),
//   (b) variable allocation, cost-aware             (Theorem 6),
//   (c) variable allocation + integer reduction     (Theorem 7),
// showing that integer reduction strictly tightens the filter.
//
// Part 2 (system-level): GPH/Ring search with uniform round-robin vs
// greedy cost-model allocation of the probe budget.

#include <cstdio>
#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/principle.h"
#include "datagen/binary_vectors.h"
#include "hamming/partition.h"
#include "hamming/search.h"

int main() {
  using namespace pigeonring;
  std::printf("== Ablation: threshold allocation ==\n\n");

  datagen::BinaryVectorConfig config;
  config.dimensions = 256;
  config.num_objects = bench::Scaled(20000);
  config.num_clusters = bench::Scaled(400);
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = 42;
  const auto objects = datagen::GenerateBinaryVectors(config);
  const auto queries = datagen::SampleQueries(objects, 5, 44);
  const int m = 16;
  const int tau = 48;
  const hamming::Partition partition =
      hamming::Partition::EquiWidth(config.dimensions, m);

  // A data-aware variable allocation: proportional to the average per-part
  // distance over a sample (parts that tend to be far get more budget).
  std::vector<double> avg_part(m, 0.0);
  for (int s = 0; s < 500; ++s) {
    const auto& a = objects[s];
    const auto& b = objects[(s * 37 + 11) % objects.size()];
    for (int i = 0; i < m; ++i) {
      avg_part[i] += a.PartDistance(b, partition.begin(i), partition.end(i));
    }
  }
  const double total_avg =
      std::accumulate(avg_part.begin(), avg_part.end(), 0.0);
  std::vector<double> variable(m), reduced(m);
  for (int i = 0; i < m; ++i) {
    variable[i] = tau * avg_part[i] / total_avg;
  }
  // Theorem 7 needs *integer* thresholds summing to tau - m + 1: round the
  // proportional shares down, then hand out the leftover units to the
  // largest remainders.
  {
    const int budget = tau - m + 1;
    std::vector<std::pair<double, int>> remainders(m);
    int assigned = 0;
    for (int i = 0; i < m; ++i) {
      const double share = budget * avg_part[i] / total_avg;
      reduced[i] = std::floor(share);
      assigned += static_cast<int>(reduced[i]);
      remainders[i] = {share - reduced[i], i};
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (int u = 0; u < budget - assigned; ++u) {
      reduced[remainders[u].second] += 1.0;
    }
  }
  auto t_uniform = core::ThresholdSeq::Uniform(tau, m);
  auto t_variable = core::ThresholdSeq::Variable(variable, tau);
  auto t_reduced = core::ThresholdSeq::IntegerReduced(reduced, tau);
  PR_CHECK(t_variable.ok() && t_reduced.ok());

  Table table("principle-level candidates, tau = 48, m = 16, strong form",
              {"chain length l", "uniform (Thm 3)", "variable (Thm 6)",
               "var + int. reduction (Thm 7)"});
  for (int l : {1, 2, 4, 6, 8}) {
    long long uni = 0, var = 0, red = 0;
    for (const auto& q : queries) {
      for (const auto& x : objects) {
        std::vector<double> boxes(m);
        for (int i = 0; i < m; ++i) {
          boxes[i] =
              x.PartDistance(q, partition.begin(i), partition.end(i));
        }
        uni += core::PrefixViableChainExists(boxes, t_uniform, l) ? 1 : 0;
        var += core::PrefixViableChainExists(boxes, *t_variable, l) ? 1 : 0;
        red += core::PrefixViableChainExists(boxes, *t_reduced, l) ? 1 : 0;
      }
    }
    table.AddRow({Table::Int(l), Table::Int(uni), Table::Int(var),
                  Table::Int(red)});
  }
  table.Print();

  std::printf("\n");
  hamming::HammingSearcher searcher(objects);
  Table sys("system-level: probe-budget allocation in GPH/Ring (tau = 48)",
            {"allocation", "chain length", "avg candidates",
             "avg time (ms)"});
  for (auto mode : {hamming::AllocationMode::kUniform,
                    hamming::AllocationMode::kCostModel}) {
    for (int l : {1, 5}) {
      bench::Avg cand, ms;
      for (const auto& q : queries) {
        engine::QueryStats stats;
        searcher.Search(q, tau, l, mode, &stats);
        cand.Add(static_cast<double>(stats.candidates));
        ms.Add(stats.total_millis);
      }
      sys.AddRow({mode == hamming::AllocationMode::kUniform ? "round-robin"
                                                            : "cost model",
                  Table::Int(l), Table::Num(cand.Mean(), 1),
                  Table::Num(ms.Mean(), 4)});
    }
  }
  sys.Print();
  std::printf(
      "\nShape check: integer reduction <= variable <= uniform candidates\n"
      "(the allocation theorems strictly tighten the filter). The probe\n"
      "cost model trims GPH's candidates on biased bits at roughly equal\n"
      "wall time at this scale; its payoff grows with dataset size.\n");
  return 0;
}
