// Whole-collection deduplication with similarity self-joins.
//
// Data-cleaning pipelines rarely issue one query at a time: they join a
// collection with itself and review every near-duplicate pair. This example
// runs pigeonring-accelerated self-joins (engine::SelfJoin over the domain
// adapters) over two object types and uses the analytic chain-length
// advisor (core/advisor.h) to pick l instead of hand-tuning it.

#include <cstdio>

#include "common/table.h"
#include "core/advisor.h"
#include "datagen/binary_vectors.h"
#include "datagen/strings.h"
#include "engine/engine.h"

int main() {
  using namespace pigeonring;
  // One executor serves every join below; a one-thread context runs each
  // join inline on this thread.
  engine::Executor executor;
  const engine::ExecutionContext sequential(executor, {});

  // --- Binary-code dedup ----------------------------------------------
  datagen::BinaryVectorConfig vec_config;
  vec_config.dimensions = 128;
  vec_config.num_objects = 20000;
  vec_config.num_clusters = 500;
  vec_config.flip_rate = 0.03;
  vec_config.seed = 15;
  auto codes = datagen::GenerateBinaryVectors(vec_config);
  hamming::HammingSearcher code_searcher(std::move(codes));
  const int tau = 16;

  // Ask the §3.1 model which chain length to use: per-part distances of
  // unrelated codes are ~Binomial(d/m, 1/2); verification costs roughly
  // d/64 word operations vs ~1 per box check.
  const int m = code_searcher.num_parts();
  core::FilterAnalysis analysis(
      core::DiscretePmf::Binomial(vec_config.dimensions / m, 0.5), m, tau);
  core::ChainCostModel costs;
  costs.box_check_cost = 1.0;
  costs.verify_cost = 8.0;
  const int advised_l = core::SuggestChainLength(analysis, m, costs);
  std::printf("advisor suggests chain length l = %d for tau = %d, m = %d\n",
              advised_l, tau, m);

  Table table("binary-code self-join, tau = 16",
              {"method", "pairs", "candidate probes", "time (ms)"});
  for (int l : {1, advised_l}) {
    engine::HammingAdapter adapter(code_searcher, tau, l);
    engine::JoinStats stats;
    engine::SelfJoin(adapter, sequential, &stats);
    table.AddRow({l == 1 ? "GPH baseline" : "Ring (advised l)",
                  Table::Int(stats.pairs), Table::Int(stats.candidates),
                  Table::Num(stats.total_millis, 1)});
  }
  table.Print();

  // --- String dedup -----------------------------------------------------
  datagen::StringConfig str_config;
  str_config.num_records = 8000;
  str_config.avg_length = 24;
  str_config.duplicate_fraction = 0.25;
  str_config.max_perturb_edits = 2;
  str_config.seed = 16;
  const auto names = datagen::GenerateStrings(str_config);
  editdist::EditDistanceSearcher name_searcher(&names, /*tau=*/2,
                                               /*kappa=*/2);
  Table table2("string self-join, ed <= 2",
               {"method", "pairs", "candidate probes", "time (ms)"});
  {
    engine::EditAdapter adapter(name_searcher, &names,
                                editdist::EditFilter::kPivotal, 1);
    engine::JoinStats stats;
    engine::SelfJoin(adapter, sequential, &stats);
    table2.AddRow({"Pivotal", Table::Int(stats.pairs),
                   Table::Int(stats.candidates),
                   Table::Num(stats.total_millis, 1)});
  }
  {
    engine::EditAdapter adapter(name_searcher, &names,
                                editdist::EditFilter::kRing, 3);
    engine::JoinStats stats;
    const auto pairs = engine::SelfJoin(adapter, sequential, &stats);
    table2.AddRow({"Ring (l=3)", Table::Int(stats.pairs),
                   Table::Int(stats.candidates),
                   Table::Num(stats.total_millis, 1)});
    if (!pairs.empty()) {
      std::printf("\nexample duplicate pair: \"%s\" ~ \"%s\"\n",
                  names[pairs.front().first].c_str(),
                  names[pairs.front().second].c_str());
    }
  }
  std::printf("\n");
  table2.Print();
  std::printf(
      "\nBoth joins return identical pair sets; the pigeonring filter cuts\n"
      "the candidate probes that each probe record must verify.\n");
  return 0;
}
