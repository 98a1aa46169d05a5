// Entity resolution with edit distance search (the paper's §2 example:
// alternative spellings such as al-Qaeda / al-Qaida / al-Qa'ida are within
// a small edit distance of each other).
//
// The example plants a handful of spelling variants of known entities in a
// synthetic name collection, then retrieves them with the Pivotal baseline
// and the pigeonring (Ring) search, printing both the matches and the
// filtering profile.

#include <cstdio>
#include <tuple>
#include <string>
#include <vector>

#include "common/table.h"
#include "datagen/strings.h"
#include "editdist/pivotal.h"

int main() {
  using namespace pigeonring;

  datagen::StringConfig config;
  config.num_records = 40000;
  config.avg_length = 16;  // IMDB-like person names
  config.duplicate_fraction = 0.3;
  config.seed = 11;
  std::printf("generating %d name strings...\n", config.num_records);
  auto data = datagen::GenerateStrings(config);

  // Plant alternative spellings of two entities.
  const std::string canonical1 = "alqaedanetwork";
  data.push_back(canonical1);            // id N-6
  data.push_back("alqaidanetwork");      // 1 substitution
  data.push_back("alqaidanetworks");     // 2 edits
  const std::string canonical2 = "johnsmithjunior";
  data.push_back(canonical2);
  data.push_back("jonsmithjunior");      // 1 deletion
  data.push_back("johnsmytthjunior");    // 2 edits

  const int tau = 2;
  editdist::EditDistanceSearcher searcher(&data, tau, /*kappa=*/2);

  for (const std::string& query : {canonical1, canonical2}) {
    engine::QueryStats stats;
    const auto results =
        searcher.Search(query, editdist::EditFilter::kRing,
                        /*chain_length=*/3, &stats);
    std::printf("\nquery \"%s\" (tau = %d): %zu matches\n", query.c_str(),
                tau, results.size());
    for (int id : results) std::printf("  %s\n", data[id].c_str());
  }

  // Profile comparison over a query batch.
  Table table("Pivotal vs Ring, tau = 2, 40 queries",
              {"method", "avg Cand-1", "avg Cand-2", "avg time (ms)"});
  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(data[i * 700 % data.size()]);
  using Method = std::tuple<const char*, editdist::EditFilter, int>;
  for (const auto& [name, filter, l] :
       {Method{"Pivotal", editdist::EditFilter::kPivotal, 1},
        Method{"Ring", editdist::EditFilter::kRing, 3}}) {
    double c1 = 0, c2 = 0, millis = 0;
    for (const auto& q : queries) {
      engine::QueryStats stats;
      searcher.Search(q, filter, l, &stats);
      c1 += static_cast<double>(stats.candidates);
      c2 += static_cast<double>(stats.candidates_stage2);
      millis += stats.total_millis;
    }
    const double n = static_cast<double>(queries.size());
    table.AddRow({std::string(name), Table::Num(c1 / n, 1),
                  Table::Num(c2 / n, 1), Table::Num(millis / n, 3)});
  }
  std::printf("\n");
  table.Print();
  return 0;
}
