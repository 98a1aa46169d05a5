// Churn test for the writer/epoch machinery: one writer thread mutating
// (inserts + removals, with a tiny delta_compact_threshold so background
// compactions fire repeatedly) while reader threads continuously mint
// Sessions and verify their frozen views — all under TSan in CI.
//
// Reader invariants (domain-agnostic, no distance math needed):
//  * a Session's view never changes: re-running a search returns the
//    exact ids captured when the session was minted, no matter how many
//    mutations and compactions happen meanwhile;
//  * every result id is live in that session, and every live record
//    matches itself (tau >= 0 in every distance domain, and a Jaccard
//    self-similarity of 1 passes any legal threshold).
//
// The ground-truth check runs post-quiesce: after the writer thread is
// done and the delta explicitly compacted, the database must be
// byte-identical (Save) and result/counter-identical to a cold Db::Open
// over the dataset reconstructed record-by-record via RecordQuery — in
// all four domains plus the edit fast path, with >= 2 background
// compactions observed while churning.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "api/db.h"
#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"

namespace pigeonring::api {
namespace {

constexpr int kReaderThreads = 2;
constexpr int kInitialRecords = 30;
constexpr int kInsertPool = 40;
constexpr uint64_t kRequiredCompactions = 2;

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

Dataset Slice(const Dataset& dataset, int begin, int end) {
  return std::visit(
      [&](const auto& records) {
        using T = std::decay_t<decltype(records)>;
        return Dataset(T(records.begin() + begin, records.begin() + end));
      },
      dataset);
}

/// Rebuilds a raw dataset from RecordQuery queries (which carry raw
/// domain representations by contract, so this is lossless).
Dataset DatasetFromQueries(Domain domain, const std::vector<Query>& queries) {
  switch (domain) {
    case Domain::kHamming: {
      std::vector<BitVector> records;
      for (const Query& q : queries) records.push_back(std::get<BitVector>(q));
      return Dataset(std::move(records));
    }
    case Domain::kSet: {
      std::vector<std::vector<int>> records;
      for (const Query& q : queries) {
        records.push_back(std::get<SetQuery>(q).tokens);
      }
      return Dataset(std::move(records));
    }
    case Domain::kEdit: {
      std::vector<std::string> records;
      for (const Query& q : queries) {
        records.push_back(std::get<std::string>(q));
      }
      return Dataset(std::move(records));
    }
    case Domain::kGraph:
      break;
  }
  std::vector<graphed::Graph> records;
  for (const Query& q : queries) {
    records.push_back(std::get<graphed::Graph>(q));
  }
  return Dataset(std::move(records));
}

/// One reader: mint a session, freeze a few results, then keep checking
/// the frozen view stays byte-identical while the writer churns.
void ReaderLoop(const Db& db, const std::atomic<bool>& stop,
                std::atomic<int>& failures) {
  while (!stop.load(std::memory_order_acquire)) {
    Session session = db.NewSession();
    const int n = session.num_records();
    if (n == 0) continue;
    std::vector<int> probes = {0, n / 2, n - 1};
    std::vector<std::optional<Query>> queries(probes.size());
    std::vector<std::vector<int>> frozen(probes.size());
    for (size_t p = 0; p < probes.size(); ++p) {
      auto query = session.RecordQuery(probes[p]);
      if (!query.ok()) {
        ++failures;
        continue;
      }
      auto result = session.Search(*query);
      if (!result.ok()) {
        ++failures;
        continue;
      }
      queries[p] = std::move(query).value();
      frozen[p] = result->ids;
      // Self-match and liveness within the frozen view.
      if (session.IsLive(probes[p]) &&
          std::find(frozen[p].begin(), frozen[p].end(), probes[p]) ==
              frozen[p].end()) {
        ++failures;
      }
      for (int id : frozen[p]) {
        if (!session.IsLive(id)) ++failures;
      }
    }
    // The view must not move, no matter what the writer does meanwhile.
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (size_t p = 0; p < probes.size(); ++p) {
        if (!queries[p].has_value()) continue;
        auto again = session.Search(*queries[p]);
        if (!again.ok() || again->ids != frozen[p]) ++failures;
      }
    }
  }
}

void RunChurn(IndexSpec spec, Dataset full, const std::string& tag) {
  spec.delta_compact_threshold = 6;
  const Db pool_db = OpenOrDie(spec, Slice(full, kInitialRecords,
                                           kInitialRecords + kInsertPool));
  std::vector<Query> pool;
  for (int i = 0; i < pool_db.num_records(); ++i) {
    auto query = pool_db.RecordQuery(i);
    ASSERT_TRUE(query.ok()) << tag;
    pool.push_back(std::move(query).value());
  }

  Db db = OpenOrDie(spec, Slice(full, 0, kInitialRecords));
  std::atomic<bool> stop(false);
  std::atomic<int> failures(0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back(
        [&db, &stop, &failures] { ReaderLoop(db, stop, failures); });
  }

  int inserted = 0;
  int removed = 0;
  {
    auto writer_or = db.NewWriter();
    ASSERT_TRUE(writer_or.ok()) << tag;
    Writer writer = std::move(writer_or).value();
    // Churn until the pool is drained AND >= 2 background compactions
    // have published (the writer never calls Compact while churning).
    int step = 0;
    while (inserted < static_cast<int>(pool.size()) ||
           db.epoch() < kRequiredCompactions) {
      ASSERT_LT(step, 20000) << tag << ": compactions never published";
      const bool do_remove = (step % 5 == 4);
      if (do_remove) {
        // Ids renumber at any install point, so target a slot that is
        // always populated and accept the typed no-ops.
        Status status = writer.Remove(step % writer.num_records());
        if (status.ok()) {
          ++removed;
        } else {
          ASSERT_EQ(status.code(), StatusCode::kNotFound)
              << tag << ": " << status.ToString();
        }
      } else if (inserted < static_cast<int>(pool.size())) {
        auto id = writer.Insert(pool[inserted]);
        ASSERT_TRUE(id.ok()) << tag << ": " << id.status().ToString();
        ++inserted;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ++step;
    }
    // ~Writer waits out the in-flight background compaction, if any.
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0) << tag;
  EXPECT_GE(db.epoch(), kRequiredCompactions) << tag;

  // Quiesce: fold the remainder and compare against a cold rebuild over
  // the reconstructed dataset — byte-identical file, identical results
  // and deterministic counters.
  {
    auto writer_or = db.NewWriter();
    ASSERT_TRUE(writer_or.ok()) << tag;
    Status compacted = writer_or->Compact();
    ASSERT_TRUE(compacted.ok()) << tag << ": " << compacted.ToString();
  }
  const int n = db.num_records();
  EXPECT_EQ(n, kInitialRecords + inserted - removed) << tag;
  Session session = db.NewSession();
  std::vector<Query> records;
  for (int i = 0; i < n; ++i) {
    auto query = session.RecordQuery(i);
    ASSERT_TRUE(query.ok()) << tag;
    records.push_back(std::move(query).value());
  }
  const Db cold =
      OpenOrDie(spec, DatasetFromQueries(spec.domain, records));
  EXPECT_EQ(SavedBytes(db, tag + "_churned.pgri"),
            SavedBytes(cold, tag + "_cold.pgri"))
      << tag;
  Session cold_session = cold.NewSession();
  for (int i = 0; i < n; i += 4) {
    auto got = session.Search(records[i]);
    auto want = cold_session.Search(records[i]);
    ASSERT_TRUE(got.ok() && want.ok()) << tag;
    EXPECT_EQ(got->ids, want->ids) << tag << " record " << i;
    ExpectSameCounters(got->stats, want->stats);
  }
  auto got_join = session.SelfJoin();
  auto want_join = cold_session.SelfJoin();
  ASSERT_TRUE(got_join.ok() && want_join.ok()) << tag;
  EXPECT_EQ(got_join->pairs, want_join->pairs) << tag;
  EXPECT_EQ(got_join->stats.candidates, want_join->stats.candidates) << tag;
}

TEST(ApiChurnTest, Hamming) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = kInitialRecords + kInsertPool;
  config.num_clusters = 8;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = 3301;
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  RunChurn(spec, Dataset(datagen::GenerateBinaryVectors(config)), "hamming");
}

TEST(ApiChurnTest, Sets) {
  datagen::TokenSetConfig config;
  config.num_records = kInitialRecords + kInsertPool;
  config.avg_tokens = 12;
  config.universe_size = 400;
  config.duplicate_fraction = 0.4;
  config.seed = 3303;
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  RunChurn(spec, Dataset(datagen::GenerateTokenSets(config)), "sets");
}

TEST(ApiChurnTest, Strings) {
  datagen::StringConfig config;
  config.num_records = kInitialRecords + kInsertPool;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 3305;
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  RunChurn(spec, Dataset(datagen::GenerateStrings(config)), "strings");
}

TEST(ApiChurnTest, StringsFastPath) {
  datagen::StringConfig config;
  config.num_records = kInitialRecords + kInsertPool;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 3306;
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.edit_fast_path = EditFastPath::kOn;
  RunChurn(spec, Dataset(datagen::GenerateStrings(config)), "strings_fast");
}

TEST(ApiChurnTest, Graphs) {
  datagen::GraphConfig config;
  config.num_graphs = kInitialRecords + kInsertPool;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 3307;
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  RunChurn(spec, Dataset(datagen::GenerateGraphs(config)), "graphs");
}

}  // namespace
}  // namespace pigeonring::api
