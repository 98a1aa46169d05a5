// Tests for the public api::Db facade.
//
// The load-bearing suite is the golden diff: for every domain, searches
// and self-joins through the type-erased Db must produce exactly the ids,
// pairs, and deterministic counters of the pre-redesign path (a hand-wired
// engine adapter over the domain searcher, the way the CLI and benches
// used to be written). The rest covers the typed error surface: spec
// validation, dataset/domain and query/domain mismatches, and the
// facade's threading overrides.

#include "api/db.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "engine/engine.h"
#include "io/dataset_io.h"
#include "setsim/pkwise.h"

namespace pigeonring::api {
namespace {

std::vector<BitVector> MakeVectors(int n, int dim, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dim;
  config.num_objects = n;
  config.num_clusters = 20;
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

// Runs the same workload through a hand-wired adapter (the pre-redesign
// consumer path) and through the Db facade, and requires byte-identical
// ids, pairs, and counters.
template <engine::Searcher S>
void ExpectFacadeMatchesAdapter(S& adapter, StatusOr<Db> opened,
                                const std::vector<int>& query_ids) {
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db db = std::move(opened).value();
  ASSERT_EQ(db.num_records(), adapter.size());
  Session session = db.NewSession();

  // Search batch: ids in input order + summed counters.
  std::vector<typename S::Query> adapter_queries;
  std::vector<Query> db_queries;
  for (int id : query_ids) {
    adapter_queries.push_back(adapter.query(id));
    auto query = db.RecordQuery(id);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    db_queries.push_back(std::move(query).value());
  }
  engine::Executor executor;
  const engine::ExecutionContext sequential(executor, {});
  engine::QueryStats adapter_stats;
  const auto expected_ids =
      engine::SearchBatch(adapter, adapter_queries, sequential, &adapter_stats);
  auto batch = session.SearchBatch(db_queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->ids, expected_ids);
  ExpectSameCounters(batch->stats, adapter_stats);

  // Single search: same as its batch slot.
  auto single = session.Search(db_queries.front());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->ids, expected_ids.front());

  // Self-join: pairs + counters.
  engine::JoinStats adapter_join;
  const auto expected_pairs =
      engine::SelfJoin(adapter, sequential, &adapter_join);
  auto join = session.SelfJoin();
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join->pairs, expected_pairs);
  EXPECT_EQ(join->stats.pairs, adapter_join.pairs);
  EXPECT_EQ(join->stats.candidates, adapter_join.candidates);
}

TEST(DbGoldenDiffTest, Hamming) {
  const auto objects = MakeVectors(400, 64, 71);
  engine::HammingAdapter adapter(hamming::HammingSearcher(objects), 8, 3);
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(objects)),
                             {0, 7, 42, 113, 399});
}

TEST(DbGoldenDiffTest, Sets) {
  const auto raw = MakeSets(400, 73);
  setsim::SetCollection collection(raw);
  engine::SetAdapter adapter(setsim::PkwiseSearcher(&collection, 0.7, 5),
                             &collection, 2);
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(raw)),
                             {1, 17, 200, 399});
}

TEST(DbGoldenDiffTest, Strings) {
  const auto data = MakeStrings(300, 79);
  engine::EditAdapter adapter(editdist::EditDistanceSearcher(&data, 2, 2),
                              &data, editdist::EditFilter::kRing, 3);
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(data)),
                             {0, 50, 150, 299});
}

TEST(DbGoldenDiffTest, StringsBaselineFilter) {
  // chain_length 1 + kAuto must select the Pivotal baseline, exactly like
  // the pre-redesign search path did.
  const auto data = MakeStrings(250, 81);
  engine::EditAdapter adapter(editdist::EditDistanceSearcher(&data, 2, 2),
                              &data, editdist::EditFilter::kPivotal, 1);
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 1;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(data)),
                             {3, 99, 249});
}

TEST(DbGoldenDiffTest, Graphs) {
  const auto data = MakeGraphs(120, 83);
  engine::GraphAdapter adapter(graphed::GraphSearcher(&data, 2), &data,
                               graphed::GraphFilter::kRing, 2);
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(data)),
                             {0, 30, 119});
}

TEST(DbTest, ParallelRunsMatchSequentialThroughFacade) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  auto db = Db::Open(spec, Dataset(MakeVectors(400, 64, 91)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();

  auto seq = session.SelfJoin();
  ASSERT_TRUE(seq.ok());
  std::vector<Query> queries;
  for (int id = 0; id < 40; ++id) {
    queries.push_back(std::move(db->RecordQuery(id)).value());
  }
  auto seq_batch = session.SearchBatch(queries);
  ASSERT_TRUE(seq_batch.ok());

  for (int threads : {2, 4}) {
    RunOptions options;
    options.num_threads = threads;
    options.chunk = 3;
    auto par = session.SelfJoin(options);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(par->pairs, seq->pairs) << threads << " threads";
    EXPECT_EQ(par->stats.candidates, seq->stats.candidates);
    auto par_batch = session.SearchBatch(queries, options);
    ASSERT_TRUE(par_batch.ok());
    EXPECT_EQ(par_batch->ids, seq_batch->ids) << threads << " threads";
    ExpectSameCounters(par_batch->stats, seq_batch->stats);
  }
}

TEST(DbTest, RunOptionsAreValidatedLikeTheSpec) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  auto db = Db::Open(spec, Dataset(MakeVectors(30, 64, 11)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();
  RunOptions options;
  options.chunk = 0;  // explicit 0 is an error, not a silent fallback
  EXPECT_EQ(session.SelfJoin(options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.SearchBatch({}, options).status().code(),
            StatusCode::kInvalidArgument);
  options.chunk = -5;  // any negative defers to the spec
  EXPECT_TRUE(session.SelfJoin(options).ok());
}

// Every execution entry point — Session sync, Session async, and
// Writer::Compact — plans its RunOptions through
// internal::ResolveRunOptions, so the error surface must be identical on
// all of them, down to the exact message text.
TEST(DbTest, RunOptionsErrorsAreIdenticalOnEveryCallPath) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  auto db = Db::Open(spec, Dataset(MakeVectors(30, 64, 11)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();
  auto writer = db->NewWriter();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<Query> queries = {std::move(db->RecordQuery(0)).value()};

  RunOptions bad;
  bad.chunk = 0;
  const Status sync_batch = session.SearchBatch(queries, bad).status();
  const Status sync_join = session.SelfJoin(bad).status();
  const Status async_batch = session.SubmitBatch(queries, bad).Get().status();
  const Status async_join = session.SubmitSelfJoin(bad).Get().status();
  const Status compact = writer->Compact(bad);
  for (const Status& status :
       {sync_batch, sync_join, async_batch, async_join, compact}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), sync_batch.message());
  }
  // The resolution is the spec's: this is the exact text every path pins.
  EXPECT_EQ(sync_batch.message(), "chunk=0 is invalid: expected >= 1");

  // Negative fields defer to the spec's (valid) defaults; explicit
  // num_threads = 0 means hardware concurrency. Both succeed everywhere.
  for (RunOptions ok_options :
       {RunOptions{-1, -7}, RunOptions{0, -1}, RunOptions{2, 5}}) {
    EXPECT_TRUE(session.SearchBatch(queries, ok_options).ok());
    EXPECT_TRUE(session.SelfJoin(ok_options).ok());
    EXPECT_TRUE(session.SubmitBatch(queries, ok_options).Get().ok());
    EXPECT_TRUE(session.SubmitSelfJoin(ok_options).Get().ok());
  }
}

// Two sessions over the same Db are interchangeable — same helper, cursor
// machinery, and executor — and agree with the Db-level accessors.
TEST(SessionTest, SessionsOverOneDbAreInterchangeable) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  auto db = Db::Open(spec, Dataset(MakeStrings(200, 31)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();
  Session other = db->NewSession();
  EXPECT_EQ(session.num_records(), db->num_records());
  EXPECT_EQ(session.spec().chain_length, db->spec().chain_length);

  std::vector<Query> queries;
  for (int id = 0; id < 20; ++id) {
    queries.push_back(std::move(session.RecordQuery(id)).value());
  }
  auto other_batch = other.SearchBatch(queries);
  auto session_batch = session.SearchBatch(queries);
  ASSERT_TRUE(other_batch.ok() && session_batch.ok());
  EXPECT_EQ(session_batch->ids, other_batch->ids);
  ExpectSameCounters(session_batch->stats, other_batch->stats);

  auto other_single = other.Search(queries.front());
  auto session_single = session.Search(queries.front());
  ASSERT_TRUE(other_single.ok() && session_single.ok());
  EXPECT_EQ(session_single->ids, other_single->ids);

  auto other_join = other.SelfJoin();
  auto session_join = session.SelfJoin();
  ASSERT_TRUE(other_join.ok() && session_join.ok());
  EXPECT_EQ(session_join->pairs, other_join->pairs);
  EXPECT_EQ(session_join->stats.candidates, other_join->stats.candidates);
}

TEST(SessionTest, WallClockIsPopulated) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 6;
  spec.chain_length = 2;
  auto db = Db::Open(spec, Dataset(MakeVectors(200, 64, 37)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();
  std::vector<Query> queries;
  for (int id = 0; id < 50; ++id) {
    queries.push_back(std::move(session.RecordQuery(id)).value());
  }
  auto batch = session.SearchBatch(queries);
  ASSERT_TRUE(batch.ok());
  // Wall clock is a real measurement of the whole call, not the summed
  // per-query fields (those can legitimately exceed it under threading).
  EXPECT_GT(batch->wall_millis, 0.0);
  auto join = session.SelfJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join->wall_millis, 0.0);
  EXPECT_GE(join->wall_millis, join->stats.total_millis * 0.5);
}

TEST(SessionTest, SessionIsMovable) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 6;
  auto db = Db::Open(spec, Dataset(MakeVectors(100, 64, 41)));
  ASSERT_TRUE(db.ok());
  Session session = db->NewSession();
  auto query = session.RecordQuery(3);
  ASSERT_TRUE(query.ok());
  const auto before = std::move(session.Search(*query)).value().ids;
  Session moved = std::move(session);
  EXPECT_EQ(moved.num_records(), 100);
  EXPECT_EQ(std::move(moved.Search(*query)).value().ids, before);
}

TEST(DbTest, OpensFromDatasetFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pigeonring_api_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "vectors.ds").string();
  const auto objects = MakeVectors(150, 64, 17);
  ASSERT_TRUE(io::SaveBitVectors(path, objects).ok());

  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 6;
  spec.chain_length = 2;
  auto from_file = Db::Open(spec, path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto from_memory = Db::Open(spec, Dataset(objects));
  ASSERT_TRUE(from_memory.ok());

  auto query = from_memory->RecordQuery(3);
  ASSERT_TRUE(query.ok());
  Session file_session = from_file->NewSession();
  Session memory_session = from_memory->NewSession();
  auto a = file_session.Search(*query);
  auto b = memory_session.Search(*query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ids, b->ids);

  std::filesystem::remove_all(dir);
}

TEST(DbTest, MissingDatasetFileIsNotFound) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  auto db = Db::Open(spec, "/nonexistent/pigeonring.ds");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound);
}

TEST(DbTest, RawSetQueriesAreMappedThroughTheDictionary) {
  const auto raw = MakeSets(200, 23);
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.6;
  spec.chain_length = 2;
  auto db = Db::Open(spec, Dataset(raw));
  ASSERT_TRUE(db.ok());

  setsim::SetCollection collection(raw);
  // Record 5's *raw* tokens (with one token the dictionary has never
  // seen) must match brute force over the mapped query.
  std::vector<int> tokens = raw[5];
  tokens.push_back(999999999);  // absent from the data: inert but counted
  Session session = db->NewSession();
  auto result = session.Search(Query(SetQuery{tokens}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto expected = setsim::BruteForceJaccardSearch(
      collection, collection.MapQuery(tokens), 0.6);
  EXPECT_EQ(result->ids, expected);
}

TEST(DbTest, QueryDomainMismatchIsTyped) {
  // Every model kind, unsharded and sharded, rejects a query of every
  // other domain with the same typed message (and never PR_CHECK-aborts).
  struct Kind {
    std::string tag;
    IndexSpec spec;
    Dataset data;
  };
  auto spec_for = [](Domain domain, double tau) {
    IndexSpec spec;
    spec.domain = domain;
    spec.tau = tau;
    return spec;
  };
  IndexSpec pivotal = spec_for(Domain::kEdit, 1);
  pivotal.edit_fast_path = EditFastPath::kOff;
  IndexSpec fast = spec_for(Domain::kEdit, 1);
  fast.edit_fast_path = EditFastPath::kOn;
  datagen::StringConfig fixed;
  fixed.num_records = 40;
  fixed.fixed_length = 12;
  fixed.seed = 9;
  const std::vector<Kind> kinds = {
      {"hamming", spec_for(Domain::kHamming, 4),
       Dataset(MakeVectors(50, 64, 5))},
      {"sets", spec_for(Domain::kSet, 0.7), Dataset(MakeSets(50, 6))},
      {"strings", pivotal, Dataset(MakeStrings(50, 7))},
      {"strings_fast", fast, Dataset(datagen::GenerateStrings(fixed))},
      {"graphs", spec_for(Domain::kGraph, 1), Dataset(MakeGraphs(20, 8))},
  };
  const std::vector<Query> queries = {
      Query(BitVector(64)), Query(SetQuery{{1, 2, 3}, /*ranked=*/false}),
      Query(std::string("abc")), Query(MakeGraphs(1, 9).front())};

  for (const Kind& kind : kinds) {
    for (int shards : {1, 2}) {
      const std::string where =
          kind.tag + " shards=" + std::to_string(shards);
      IndexSpec spec = kind.spec;
      spec.shards = shards;
      auto db = Db::Open(spec, kind.data);
      ASSERT_TRUE(db.ok()) << where << ": " << db.status().ToString();
      Session session = db->NewSession();
      for (const Query& query : queries) {
        if (QueryDomain(query) == spec.domain) continue;
        const std::string expected =
            std::string("query is a ") + DomainName(QueryDomain(query)) +
            " query but the index domain is " + DomainName(spec.domain);
        auto bad = session.Search(query);
        ASSERT_FALSE(bad.ok()) << where;
        EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << where;
        EXPECT_EQ(bad.status().message(), expected) << where;

        // A mismatched query anywhere in a batch fails the whole batch
        // with its index in the message.
        std::vector<Query> batch_queries = {
            std::move(db->RecordQuery(0)).value(), query};
        auto batch = session.SearchBatch(batch_queries);
        ASSERT_FALSE(batch.ok()) << where;
        EXPECT_EQ(batch.status().message(), "query 1: " + expected) << where;
      }
      if (spec.domain == Domain::kHamming) {
        // Wrong dimensionality is rejected, not PR_CHECK-aborted.
        auto narrow = session.Search(Query(BitVector(32)));
        ASSERT_FALSE(narrow.ok()) << where;
        EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument)
            << where;
        EXPECT_EQ(narrow.status().message(),
                  "query has 32 dimensions but the index has 64")
            << where;
      }
    }
  }
}

TEST(DbTest, RecordQueryRangeChecked) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 1;
  auto db = Db::Open(spec, Dataset(MakeStrings(10, 3)));
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db->RecordQuery(-1).ok());
  EXPECT_FALSE(db->RecordQuery(10).ok());
  EXPECT_EQ(db->RecordQuery(10).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(db->RecordQuery(9).ok());
}

TEST(DbTest, DatasetDomainMismatchIsTyped) {
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  auto db = Db::Open(spec, Dataset(MakeStrings(10, 3)));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("strings"), std::string::npos);
}

TEST(DbTest, InconsistentDimensionsRejected) {
  std::vector<BitVector> mixed = {BitVector(64), BitVector(32)};
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  auto db = Db::Open(spec, Dataset(std::move(mixed)));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(DbTest, EmptyDatasetOpensAndJoinsToNothing) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.chain_length = 2;
  auto db = Db::Open(spec, Dataset(std::vector<BitVector>{}));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->num_records(), 0);
  Session session = db->NewSession();
  auto join = session.SelfJoin();
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(join->pairs.empty());
  EXPECT_FALSE(db->RecordQuery(0).ok());
}

TEST(DbTest, DbIsMovable) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 1;
  auto opened = Db::Open(spec, Dataset(MakeStrings(50, 29)));
  ASSERT_TRUE(opened.ok());
  Db db = std::move(opened).value();
  auto query = db.RecordQuery(7);
  ASSERT_TRUE(query.ok());
  const auto before =
      std::move(db.NewSession().Search(*query)).value().ids;
  Db moved = std::move(db);
  EXPECT_EQ(moved.num_records(), 50);
  EXPECT_EQ(std::move(moved.NewSession().Search(*query)).value().ids, before);
}

TEST(SpecValidationTest, BadThresholds) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = -1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.tau = 3.5;  // distances are integral
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.tau = 8;
  EXPECT_TRUE(spec.Validate().ok());

  spec.domain = Domain::kSet;
  spec.tau = 1.2;  // Jaccard lives in (0, 1]
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.tau = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.tau = 0.8;
  EXPECT_TRUE(spec.Validate().ok());
  spec.measure = setsim::SetMeasure::kOverlap;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.tau = 3;
  EXPECT_TRUE(spec.Validate().ok());

  spec = IndexSpec();
  spec.domain = Domain::kEdit;
  spec.tau = 100;  // tau + 1 boxes must fit the 64-bit chain mask
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SpecValidationTest, ChainLengthAgainstBoxes) {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.8;
  spec.num_boxes = 5;
  spec.chain_length = 6;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.chain_length = 5;
  EXPECT_TRUE(spec.Validate().ok());
  spec.chain_length = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = IndexSpec();
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 4;  // tau + 1 = 3 boxes
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = IndexSpec();
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.num_parts = 4;
  spec.chain_length = 5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SpecValidationTest, ChainLengthAgainstDerivedPartitions) {
  // num_parts = 0 defers the partition count to the dataset's
  // dimensionality; the check then happens in Open.
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 5;  // d = 64 -> m = 4 partitions
  EXPECT_TRUE(spec.Validate().ok());
  auto db = Db::Open(spec, Dataset(MakeVectors(20, 64, 7)));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("partitions"), std::string::npos);
}

TEST(SpecValidationTest, MeasureDomainAndFilterConsistency) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.measure = setsim::SetMeasure::kOverlap;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = IndexSpec();
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.filter = FilterMode::kBaseline;
  spec.chain_length = 3;  // the baseline tests single boxes
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.chain_length = 1;
  EXPECT_TRUE(spec.Validate().ok());

  spec.filter = FilterMode::kRing;  // Ring at l = 1 is legal
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(SpecValidationTest, ExecutionFields) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.num_threads = -1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.num_threads = 0;  // hardware concurrency
  EXPECT_TRUE(spec.Validate().ok());
  spec.chunk = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SpecValidationTest, EditFastPathFieldRules) {
  // The knob only exists for the strings domain.
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.edit_fast_path = EditFastPath::kOn;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.edit_fast_path = EditFastPath::kOff;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.edit_fast_path = EditFastPath::kAuto;
  EXPECT_TRUE(spec.Validate().ok());

  spec = IndexSpec();
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  for (EditFastPath mode : {EditFastPath::kAuto, EditFastPath::kOn,
                            EditFastPath::kOff}) {
    spec.edit_fast_path = mode;
    EXPECT_TRUE(spec.Validate().ok()) << EditFastPathName(mode);
  }
}

TEST(SpecValidationTest, EditFastPathNamesRoundTrip) {
  for (EditFastPath mode : {EditFastPath::kAuto, EditFastPath::kOn,
                            EditFastPath::kOff}) {
    auto parsed = ParseEditFastPath(EditFastPathName(mode));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value(), mode);
  }
  EXPECT_EQ(ParseEditFastPath("fast").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DbTest, FastPathOnRequiresFixedLengthData) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.edit_fast_path = EditFastPath::kOn;
  auto db = Db::Open(
      spec, Dataset(std::vector<std::string>{"short", "longerstring"}));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("fixed-length"), std::string::npos)
      << db.status().ToString();
}

TEST(DbTest, FastPathAutoResolvesFromTheData) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;

  datagen::StringConfig fixed;
  fixed.num_records = 60;
  fixed.fixed_length = 10;
  fixed.seed = 19;
  auto fast = Db::Open(spec, Dataset(datagen::GenerateStrings(fixed)));
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->spec().edit_fast_path, EditFastPath::kOn);

  auto pivotal = Db::Open(spec, Dataset(MakeStrings(60, 19)));
  ASSERT_TRUE(pivotal.ok()) << pivotal.status().ToString();
  EXPECT_EQ(pivotal->spec().edit_fast_path, EditFastPath::kOff);

  // tau >= L: eligible shape, but nothing to filter -> advisor declines.
  auto degenerate = Db::Open(
      spec, Dataset(std::vector<std::string>{"ab", "cd", "ef"}));
  ASSERT_TRUE(degenerate.ok()) << degenerate.status().ToString();
  EXPECT_EQ(degenerate->spec().edit_fast_path, EditFastPath::kOff);
}

// The load-bearing equivalence: over the same fixed-length collection the
// fast path and the pivotal path must return byte-identical ids and pairs
// through the facade, for every tau the fast path supports.
TEST(DbGoldenDiffTest, StringsFastPathMatchesPivotal) {
  datagen::StringConfig config;
  config.num_records = 200;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.5;
  config.max_perturb_edits = 3;
  config.seed = 87;
  const auto data = datagen::GenerateStrings(config);
  for (const int tau : {1, 2, 3, 4}) {
    IndexSpec on;
    on.domain = Domain::kEdit;
    on.tau = tau;
    on.chain_length = 2;
    on.edit_fast_path = EditFastPath::kOn;
    IndexSpec off = on;
    off.edit_fast_path = EditFastPath::kOff;
    auto fast = Db::Open(on, Dataset(data));
    auto pivotal = Db::Open(off, Dataset(data));
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(pivotal.ok()) << pivotal.status().ToString();

    Session fast_session = fast->NewSession();
    Session pivotal_session = pivotal->NewSession();
    for (int id = 0; id < fast->num_records(); id += 9) {
      auto query = fast->RecordQuery(id);
      ASSERT_TRUE(query.ok());
      auto a = fast_session.Search(*query);
      auto b = pivotal_session.Search(*query);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->ids, b->ids) << "tau=" << tau << " record " << id;
      // Only the fast path populates its dedicated counters.
      EXPECT_GT(a->stats.fast_path_candidates, 0);
      EXPECT_EQ(b->stats.fast_path_candidates, 0);
    }
    auto join_a = fast_session.SelfJoin();
    auto join_b = pivotal_session.SelfJoin();
    ASSERT_TRUE(join_a.ok() && join_b.ok());
    EXPECT_EQ(join_a->pairs, join_b->pairs) << "tau=" << tau;
  }
}

// And the facade must match a hand-wired fast-path adapter exactly (ids,
// pairs, and every deterministic counter).
TEST(DbGoldenDiffTest, StringsFastPathFacade) {
  datagen::StringConfig config;
  config.num_records = 200;
  config.fixed_length = 10;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 88;
  const auto data = datagen::GenerateStrings(config);
  engine::EditFastAdapter adapter(editdist::CaseDecSearcher(&data, 2), &data,
                                  3);
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.edit_fast_path = EditFastPath::kOn;
  ExpectFacadeMatchesAdapter(adapter, Db::Open(spec, Dataset(data)),
                             {0, 50, 150, 199});
}

TEST(SpecValidationTest, DomainNamesRoundTrip) {
  for (Domain domain : {Domain::kHamming, Domain::kSet, Domain::kEdit,
                        Domain::kGraph}) {
    auto parsed = ParseDomain(DomainName(domain));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), domain);
  }
  EXPECT_EQ(ParseDomain("vectors").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pigeonring::api
