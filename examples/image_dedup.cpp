// Image near-duplicate retrieval (the paper's §1/§2 motivating scenario):
// images converted to binary codes (GIST + spectral hashing in the paper),
// near-duplicates found by Hamming distance search with a threshold.
//
// This example builds a GIST-like synthetic code collection with planted
// duplicate clusters, then compares the GPH pigeonhole baseline against the
// pigeonring (Ring) search across chain lengths, reporting the candidate
// and timing profile for a batch of queries.

#include <cstdio>
#include <vector>

#include "common/table.h"
#include "datagen/binary_vectors.h"
#include "hamming/search.h"

int main() {
  using namespace pigeonring;

  datagen::BinaryVectorConfig config;
  config.dimensions = 256;  // GIST-like codes
  config.num_objects = 50000;
  config.num_clusters = 1200;
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.04;
  config.seed = 2024;
  std::printf("generating %d binary codes (d = %d)...\n", config.num_objects,
              config.dimensions);
  auto objects = datagen::GenerateBinaryVectors(config);
  auto queries = datagen::SampleQueries(objects, 50, 99);

  hamming::HammingSearcher searcher(std::move(objects));
  const int tau = 32;  // "within 16 bits" scaled to our noisier codes

  Table table("image near-duplicate search, tau = 32, 50 queries",
              {"chain length", "avg candidates", "avg results",
               "avg time (ms)", "note"});
  for (int l : {1, 2, 3, 4, 5, 6}) {
    double candidates = 0, results = 0, millis = 0;
    for (const auto& q : queries) {
      engine::QueryStats stats;
      searcher.Search(q, tau, l, hamming::AllocationMode::kCostModel,
                      &stats);
      candidates += static_cast<double>(stats.candidates);
      results += static_cast<double>(stats.results);
      millis += stats.total_millis;
    }
    const double n = static_cast<double>(queries.size());
    table.AddRow({Table::Int(l), Table::Num(candidates / n, 1),
                  Table::Num(results / n, 1), Table::Num(millis / n, 3),
                  l == 1 ? "GPH baseline (pigeonhole)" : "pigeonring"});
  }
  table.Print();
  std::printf(
      "\nEvery row returns identical results; longer chains trade a little\n"
      "filtering work for far fewer expensive verifications.\n");
  return 0;
}
