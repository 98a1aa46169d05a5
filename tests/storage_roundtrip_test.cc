// Round-trip tests for the persistent index format: for every domain,
// build a Db from raw data, Save it, Open the saved index, and require
// the loaded snapshot to answer searches, batches, and self-joins with
// exactly the ids, pairs, and deterministic counters of the built one.
// Also pins the format's determinism guarantee (two Saves of one snapshot
// are byte-identical) and the degenerate collections (empty, one record).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "api/writer.h"
#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"

namespace pigeonring::api {
namespace {

std::vector<BitVector> MakeVectors(int n, int dim, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dim;
  config.num_objects = n;
  config.num_clusters = 10;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

std::vector<std::vector<int>> MakeSets(int n, uint64_t seed) {
  datagen::TokenSetConfig config;
  config.num_records = n;
  config.avg_tokens = 12;
  config.universe_size = 3 * n;
  config.duplicate_fraction = 0.4;
  config.seed = seed;
  return datagen::GenerateTokenSets(config);
}

std::vector<std::string> MakeStrings(int n, uint64_t seed) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = seed;
  return datagen::GenerateStrings(config);
}

std::vector<std::string> MakeFixedStrings(int n, int length, uint64_t seed) {
  datagen::StringConfig config;
  config.num_records = n;
  config.fixed_length = length;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = seed;
  return datagen::GenerateStrings(config);
}

std::vector<graphed::Graph> MakeGraphs(int n, uint64_t seed) {
  datagen::GraphConfig config;
  config.num_graphs = n;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = seed;
  return datagen::GenerateGraphs(config);
}

// Saves `built`, reopens the file under the same spec, and requires the
// loaded snapshot to reproduce the built one exactly on every query
// surface: per-record searches, a batch over `query_ids`, and the
// self-join.
void ExpectLoadedMatchesBuilt(Db built, const std::string& path,
                              const std::vector<int>& query_ids) {
  Status saved = built.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto reopened = Db::OpenIndex(built.spec(), path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Db loaded = std::move(reopened).value();
  EXPECT_EQ(loaded.num_records(), built.num_records());
  EXPECT_EQ(loaded.domain(), built.domain());

  Session built_session = built.NewSession();
  Session loaded_session = loaded.NewSession();

  std::vector<Query> queries;
  for (int id : query_ids) {
    auto built_query = built.RecordQuery(id);
    auto loaded_query = loaded.RecordQuery(id);
    ASSERT_TRUE(built_query.ok()) << built_query.status().ToString();
    ASSERT_TRUE(loaded_query.ok()) << loaded_query.status().ToString();

    auto built_one = built_session.Search(*built_query);
    auto loaded_one = loaded_session.Search(*loaded_query);
    EXPECT_TRUE(built_one.ok()) << built_one.status().ToString();
    EXPECT_TRUE(loaded_one.ok()) << loaded_one.status().ToString();
    if (built_one.ok() && loaded_one.ok()) {
      EXPECT_EQ(loaded_one->ids, built_one->ids) << "query id " << id;
      ExpectSameCounters(loaded_one->stats, built_one->stats);
    }
    queries.push_back(std::move(built_query).value());
  }

  if (!queries.empty()) {
    auto built_batch = built_session.SearchBatch(queries);
    auto loaded_batch = loaded_session.SearchBatch(queries);
    EXPECT_TRUE(built_batch.ok()) << built_batch.status().ToString();
    EXPECT_TRUE(loaded_batch.ok()) << loaded_batch.status().ToString();
    if (built_batch.ok() && loaded_batch.ok()) {
      EXPECT_EQ(loaded_batch->ids, built_batch->ids);
      ExpectSameCounters(loaded_batch->stats, built_batch->stats);
    }
  }

  auto built_join = built_session.SelfJoin();
  auto loaded_join = loaded_session.SelfJoin();
  EXPECT_TRUE(built_join.ok()) << built_join.status().ToString();
  EXPECT_TRUE(loaded_join.ok()) << loaded_join.status().ToString();
  if (built_join.ok() && loaded_join.ok()) {
    EXPECT_EQ(loaded_join->pairs, built_join->pairs);
    EXPECT_EQ(loaded_join->stats.pairs, built_join->stats.pairs);
    EXPECT_EQ(loaded_join->stats.candidates, built_join->stats.candidates);
  }
}

std::vector<int> SampleIds(int n) {
  std::vector<int> ids;
  for (int id = 0; id < n; id += 7) ids.push_back(id);
  return ids;
}

TEST(StorageRoundtripTest, Hamming) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.num_parts = 8;
  auto built = Db::Open(spec, Dataset(MakeVectors(200, 64, 71)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectLoadedMatchesBuilt(*std::move(built), ScratchPath("rt_hamming.pgri"),
                           SampleIds(200));
}

TEST(StorageRoundtripTest, Set) {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  spec.measure = setsim::SetMeasure::kJaccard;
  spec.num_boxes = 5;
  auto built = Db::Open(spec, Dataset(MakeSets(150, 72)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectLoadedMatchesBuilt(*std::move(built), ScratchPath("rt_set.pgri"),
                           SampleIds(150));
}

TEST(StorageRoundtripTest, SetOverlap) {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 4;
  spec.chain_length = 2;
  spec.measure = setsim::SetMeasure::kOverlap;
  spec.num_boxes = 4;
  auto built = Db::Open(spec, Dataset(MakeSets(120, 73)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectLoadedMatchesBuilt(*std::move(built),
                           ScratchPath("rt_set_overlap.pgri"), SampleIds(120));
}

TEST(StorageRoundtripTest, Edit) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.kappa = 2;
  auto built = Db::Open(spec, Dataset(MakeStrings(150, 74)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectLoadedMatchesBuilt(*std::move(built), ScratchPath("rt_edit.pgri"),
                           SampleIds(150));
}

TEST(StorageRoundtripTest, EditFastPath) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 3;
  spec.chain_length = 2;
  spec.kappa = 2;
  spec.edit_fast_path = EditFastPath::kOn;
  auto built = Db::Open(spec, Dataset(MakeFixedStrings(150, 12, 84)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->spec().edit_fast_path, EditFastPath::kOn);
  ExpectLoadedMatchesBuilt(*std::move(built), ScratchPath("rt_editfast.pgri"),
                           SampleIds(150));
}

// edit_fast_path is resolved at open time and persisted: a kAuto reopen
// adopts the file's flag, while a contradicting explicit mode is a typed
// FailedPrecondition (the index simply does not contain the sections the
// other mode would need).
TEST(StorageRoundtripTest, EditFastPathFlagResolutionOnOpenIndex) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.kappa = 2;
  const auto data = MakeFixedStrings(120, 10, 85);
  auto built = Db::Open(spec, Dataset(data));  // kAuto, eligible -> kOn
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->spec().edit_fast_path, EditFastPath::kOn);
  const std::string path = ScratchPath("rt_editfast_flag.pgri");
  ASSERT_TRUE(built->Save(path).ok());

  IndexSpec as_auto = spec;
  auto adopted = Db::OpenIndex(as_auto, path);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->spec().edit_fast_path, EditFastPath::kOn);

  IndexSpec as_on = spec;
  as_on.edit_fast_path = EditFastPath::kOn;
  EXPECT_TRUE(Db::OpenIndex(as_on, path).ok());

  IndexSpec as_off = spec;
  as_off.edit_fast_path = EditFastPath::kOff;
  auto mismatched = Db::OpenIndex(as_off, path);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);

  // The reverse contradiction: a pivotal-built file opened with kOn.
  IndexSpec off_build = spec;
  off_build.edit_fast_path = EditFastPath::kOff;
  auto pivotal_built = Db::Open(off_build, Dataset(data));
  ASSERT_TRUE(pivotal_built.ok()) << pivotal_built.status().ToString();
  const std::string pivotal_path = ScratchPath("rt_editoff_flag.pgri");
  ASSERT_TRUE(pivotal_built->Save(pivotal_path).ok());
  auto on_over_off = Db::OpenIndex(as_on, pivotal_path);
  ASSERT_FALSE(on_over_off.ok());
  EXPECT_EQ(on_over_off.status().code(), StatusCode::kFailedPrecondition);
  // And the kAuto reopen adopts kOff.
  auto adopted_off = Db::OpenIndex(as_auto, pivotal_path);
  ASSERT_TRUE(adopted_off.ok()) << adopted_off.status().ToString();
  EXPECT_EQ(adopted_off->spec().edit_fast_path, EditFastPath::kOff);
}

TEST(StorageRoundtripTest, EditFastSaveIsDeterministic) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.edit_fast_path = EditFastPath::kOn;
  auto built = Db::Open(spec, Dataset(MakeFixedStrings(100, 9, 86)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string first = ScratchPath("det_fast_a.pgri");
  const std::string second = ScratchPath("det_fast_b.pgri");
  const std::string resaved = ScratchPath("det_fast_c.pgri");
  ASSERT_TRUE(built->Save(first).ok());
  ASSERT_TRUE(built->Save(second).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));
  auto loaded = Db::OpenIndex(spec, first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(resaved));
}

TEST(StorageRoundtripTest, EditFastEmptyAndSingleRecord) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.edit_fast_path = EditFastPath::kOn;

  auto empty = Db::Open(spec, Dataset(std::vector<std::string>{}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  const std::string empty_path = ScratchPath("rt_editfast_empty.pgri");
  ASSERT_TRUE(empty->Save(empty_path).ok());
  auto empty_loaded = Db::OpenIndex(spec, empty_path);
  ASSERT_TRUE(empty_loaded.ok()) << empty_loaded.status().ToString();
  EXPECT_EQ(empty_loaded->num_records(), 0);
  Session empty_session = empty_loaded->NewSession();
  auto empty_join = empty_session.SelfJoin();
  ASSERT_TRUE(empty_join.ok());
  EXPECT_TRUE(empty_join->pairs.empty());

  auto single =
      Db::Open(spec, Dataset(std::vector<std::string>{"pigeonhole"}));
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  const std::string single_path = ScratchPath("rt_editfast_single.pgri");
  ASSERT_TRUE(single->Save(single_path).ok());
  auto single_loaded = Db::OpenIndex(spec, single_path);
  ASSERT_TRUE(single_loaded.ok()) << single_loaded.status().ToString();
  EXPECT_EQ(single_loaded->num_records(), 1);
  auto query = single_loaded->RecordQuery(0);
  ASSERT_TRUE(query.ok());
  Session single_session = single_loaded->NewSession();
  auto hit = single_session.Search(*query);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->ids, std::vector<int>{0});
}

TEST(StorageRoundtripTest, Graph) {
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  auto built = Db::Open(spec, Dataset(MakeGraphs(60, 75)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectLoadedMatchesBuilt(*std::move(built), ScratchPath("rt_graph.pgri"),
                           SampleIds(60));
}

// A raw query (not a RecordQuery) must hit the loaded index identically —
// covers the query-conversion path (e.g. the set domain's raw-token ->
// frequency-rank mapping runs through the deserialized dictionary).
TEST(StorageRoundtripTest, RawQueriesThroughLoadedIndex) {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.6;
  spec.chain_length = 2;
  const auto sets = MakeSets(150, 76);
  auto built = Db::Open(spec, Dataset(sets));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ScratchPath("rt_set_raw.pgri");
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded = Db::OpenIndex(spec, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Session built_session = built->NewSession();
  Session loaded_session = loaded->NewSession();
  for (int id = 0; id < 150; id += 11) {
    Query raw = SetQuery{sets[id], /*ranked=*/false};
    auto a = built_session.Search(raw);
    auto b = loaded_session.Search(raw);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->ids, a->ids);
    ExpectSameCounters(b->stats, a->stats);
  }
}

// Db::Open(spec, path) routes index files to the loader by magic sniff —
// the same file opens identically via the generic and the explicit entry.
TEST(StorageRoundtripTest, OpenSniffsIndexFiles) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 6;
  spec.chain_length = 2;
  spec.num_parts = 8;
  auto built = Db::Open(spec, Dataset(MakeVectors(120, 64, 77)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ScratchPath("rt_sniff.pgri");
  ASSERT_TRUE(built->Save(path).ok());

  auto via_open = Db::Open(spec, path);
  ASSERT_TRUE(via_open.ok()) << via_open.status().ToString();
  Session a = via_open->NewSession();
  Session b = built->NewSession();
  auto join_a = a.SelfJoin();
  auto join_b = b.SelfJoin();
  ASSERT_TRUE(join_a.ok() && join_b.ok());
  EXPECT_EQ(join_a->pairs, join_b->pairs);
}

// Two Saves of the same snapshot — and a Save of the loaded snapshot —
// produce byte-identical files: the format has no nondeterministic bytes
// (map iteration order, timestamps, uninitialized padding).
TEST(StorageRoundtripTest, SaveIsDeterministic) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.kappa = 2;
  auto built = Db::Open(spec, Dataset(MakeStrings(120, 78)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string first = ScratchPath("det_a.pgri");
  const std::string second = ScratchPath("det_b.pgri");
  const std::string resaved = ScratchPath("det_c.pgri");
  ASSERT_TRUE(built->Save(first).ok());
  ASSERT_TRUE(built->Save(second).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));

  auto loaded = Db::OpenIndex(spec, first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(resaved));
}

// Degenerate collections: empty and single-record datasets must survive
// the full save/load cycle in every domain.
TEST(StorageRoundtripTest, EmptyCollections) {
  struct Case {
    const char* name;
    IndexSpec spec;
    Dataset dataset;
  };
  IndexSpec hamming;
  hamming.domain = Domain::kHamming;
  hamming.tau = 4;
  IndexSpec sets;
  sets.domain = Domain::kSet;
  sets.tau = 0.7;
  IndexSpec edit;
  edit.domain = Domain::kEdit;
  edit.tau = 1;
  IndexSpec graph;
  graph.domain = Domain::kGraph;
  graph.tau = 1;
  std::vector<Case> cases;
  cases.push_back({"hamming", hamming, Dataset(std::vector<BitVector>{})});
  cases.push_back({"sets", sets, Dataset(std::vector<std::vector<int>>{})});
  cases.push_back({"edit", edit, Dataset(std::vector<std::string>{})});
  cases.push_back({"graph", graph, Dataset(std::vector<graphed::Graph>{})});

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto built = Db::Open(c.spec, std::move(c.dataset));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string path =
        ScratchPath(std::string("empty_") + c.name + ".pgri");
    ASSERT_TRUE(built->Save(path).ok());
    auto loaded = Db::OpenIndex(c.spec, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_records(), 0);
    Session session = loaded->NewSession();
    auto join = session.SelfJoin();
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_TRUE(join->pairs.empty());
  }
}

// A zero-record index is not a dead end: Save it, OpenIndex it, grow it
// through a Writer, and the re-saved file must be byte-identical to a
// cold build over the inserted records — in every domain.
TEST(StorageRoundtripTest, ZeroRecordStatesGrowThroughWriters) {
  struct Case {
    const char* name;
    IndexSpec spec;
    Dataset empty;
    Dataset records;
  };
  IndexSpec hamming;
  hamming.domain = Domain::kHamming;
  hamming.tau = 4;
  IndexSpec sets;
  sets.domain = Domain::kSet;
  sets.tau = 0.7;
  IndexSpec edit;
  edit.domain = Domain::kEdit;
  edit.tau = 1;
  IndexSpec graph;
  graph.domain = Domain::kGraph;
  graph.tau = 1;
  std::vector<Case> cases;
  cases.push_back({"hamming", hamming, Dataset(std::vector<BitVector>{}),
                   Dataset(MakeVectors(3, 64, 87))});
  cases.push_back({"sets", sets, Dataset(std::vector<std::vector<int>>{}),
                   Dataset(std::vector<std::vector<int>>{
                       {1, 2, 3}, {2, 3, 4}, {9, 11}})});
  cases.push_back({"edit", edit, Dataset(std::vector<std::string>{}),
                   Dataset(std::vector<std::string>{"alpha", "beta", "gap"})});
  cases.push_back({"graph", graph, Dataset(std::vector<graphed::Graph>{}),
                   Dataset(MakeGraphs(3, 88))});

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto built = Db::Open(c.spec, std::move(c.empty));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string empty_path =
        ScratchPath(std::string("grow_empty_") + c.name + ".pgri");
    ASSERT_TRUE(built->Save(empty_path).ok());

    auto loaded = Db::OpenIndex(c.spec, empty_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_records(), 0);
    auto writer = loaded->NewWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const int n = std::visit(
        [](const auto& records) { return static_cast<int>(records.size()); },
        c.records);
    for (int i = 0; i < n; ++i) {
      auto query = std::visit(
          [&](const auto& records) -> Query {
            using T = std::decay_t<decltype(records[i])>;
            if constexpr (std::is_same_v<T, std::vector<int>>) {
              return SetQuery{records[i], /*ranked=*/false};
            } else {
              return records[i];
            }
          },
          c.records);
      auto id = writer->Insert(query);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, i);
    }
    const std::string grown_path =
        ScratchPath(std::string("grow_full_") + c.name + ".pgri");
    ASSERT_TRUE(loaded->Save(grown_path).ok());

    // Reference: the same records built cold. Note the grown index's
    // resolved spec (e.g. the edit fast-path flag, fixed at empty-open
    // time) must agree with what a cold open over the records resolves —
    // otherwise the byte comparison itself would flag the divergence.
    auto cold = Db::Open(c.spec, std::move(c.records));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const std::string cold_path =
        ScratchPath(std::string("grow_cold_") + c.name + ".pgri");
    ASSERT_TRUE(cold->Save(cold_path).ok());
    EXPECT_EQ(ReadFileBytes(grown_path), ReadFileBytes(cold_path));

    auto reopened = Db::OpenIndex(c.spec, grown_path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->num_records(), n);
  }
}

// An empty edit index persists the fast-path flag it resolved at open
// time: kAuto resolves to the permissive pivotal path (so the database
// can grow strings of any length), the file records that choice, and a
// kOn reopen over it is the usual typed contradiction. An explicit
// kOn-on-empty save keeps the fixed-length contract across the reload.
TEST(StorageRoundtripTest, EmptyEditIndexPersistsItsResolvedFastPath) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 1;

  auto built = Db::Open(spec, Dataset(std::vector<std::string>{}));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->spec().edit_fast_path, EditFastPath::kOff);
  const std::string path = ScratchPath("rt_empty_edit_auto.pgri");
  ASSERT_TRUE(built->Save(path).ok());

  auto adopted = Db::OpenIndex(spec, path);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->spec().edit_fast_path, EditFastPath::kOff);
  // The loaded empty database accepts variable-length strings.
  auto writer = adopted->NewWriter();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Insert(Query(std::string("ab"))).ok());
  ASSERT_TRUE(
      writer->Insert(Query(std::string("a much longer string"))).ok());
  ASSERT_TRUE(writer->Compact().ok());

  IndexSpec as_on = spec;
  as_on.edit_fast_path = EditFastPath::kOn;
  auto mismatched = Db::OpenIndex(as_on, path);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);

  // Explicit kOn over an empty dataset keeps the fixed-length contract
  // through save/load: the first insert into the reload fixes the length.
  auto on_built = Db::Open(as_on, Dataset(std::vector<std::string>{}));
  ASSERT_TRUE(on_built.ok()) << on_built.status().ToString();
  const std::string on_path = ScratchPath("rt_empty_edit_on.pgri");
  ASSERT_TRUE(on_built->Save(on_path).ok());
  auto on_loaded = Db::OpenIndex(spec, on_path);  // kAuto adopts kOn
  ASSERT_TRUE(on_loaded.ok()) << on_loaded.status().ToString();
  EXPECT_EQ(on_loaded->spec().edit_fast_path, EditFastPath::kOn);
  auto on_writer = on_loaded->NewWriter();
  ASSERT_TRUE(on_writer.ok()) << on_writer.status().ToString();
  ASSERT_TRUE(on_writer->Insert(Query(std::string("tenletters"))).ok());
  auto mixed = on_writer->Insert(Query(std::string("four")));
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorageRoundtripTest, SingleRecordCollections) {
  struct Case {
    const char* name;
    IndexSpec spec;
    Dataset dataset;
  };
  IndexSpec hamming;
  hamming.domain = Domain::kHamming;
  hamming.tau = 4;
  IndexSpec sets;
  sets.domain = Domain::kSet;
  sets.tau = 0.7;
  IndexSpec edit;
  edit.domain = Domain::kEdit;
  edit.tau = 1;
  IndexSpec graph;
  graph.domain = Domain::kGraph;
  graph.tau = 1;
  std::vector<Case> cases;
  cases.push_back(
      {"hamming", hamming, Dataset(MakeVectors(1, 64, 79))});
  cases.push_back(
      {"sets", sets, Dataset(std::vector<std::vector<int>>{{3, 1, 4, 5}})});
  cases.push_back(
      {"edit", edit, Dataset(std::vector<std::string>{"pigeonhole"})});
  cases.push_back({"graph", graph, Dataset(MakeGraphs(1, 80))});

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto built = Db::Open(c.spec, std::move(c.dataset));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string path =
        ScratchPath(std::string("single_") + c.name + ".pgri");
    ASSERT_TRUE(built->Save(path).ok());
    auto loaded = Db::OpenIndex(c.spec, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_records(), 1);

    Session built_session = built->NewSession();
    Session loaded_session = loaded->NewSession();
    auto query = loaded->RecordQuery(0);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto a = built_session.Search(*query);
    auto b = loaded_session.Search(*query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->ids, a->ids);
    // The record always matches itself at any non-negative threshold.
    EXPECT_EQ(b->ids, std::vector<int>{0});
  }
}

// Loaded snapshots honor query-time overrides that differ from the build
// configuration: the fingerprint covers build-relevant fields only.
TEST(StorageRoundtripTest, QueryTimeKnobsMayDiffer) {
  IndexSpec build_spec;
  build_spec.domain = Domain::kHamming;
  build_spec.tau = 8;
  build_spec.chain_length = 3;
  build_spec.num_parts = 8;
  build_spec.num_threads = 1;
  auto built = Db::Open(build_spec, Dataset(MakeVectors(200, 64, 81)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ScratchPath("rt_knobs.pgri");
  ASSERT_TRUE(built->Save(path).ok());

  IndexSpec serve_spec = build_spec;
  serve_spec.chain_length = 2;   // different chain
  serve_spec.num_threads = 2;    // different threading
  serve_spec.chunk = 4;
  auto loaded = Db::OpenIndex(serve_spec, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Reference: the same serving spec built from raw data.
  auto reference = Db::Open(serve_spec, Dataset(MakeVectors(200, 64, 81)));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  Session a = loaded->NewSession();
  Session b = reference->NewSession();
  auto join_a = a.SelfJoin();
  auto join_b = b.SelfJoin();
  ASSERT_TRUE(join_a.ok() && join_b.ok());
  EXPECT_EQ(join_a->pairs, join_b->pairs);
  EXPECT_EQ(join_a->stats.candidates, join_b->stats.candidates);
}

}  // namespace
}  // namespace pigeonring::api
