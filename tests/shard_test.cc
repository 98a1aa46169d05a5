// Tests for sharded scatter-gather execution (src/shard/).
//
// The load-bearing suite is the byte-identity pin: for every domain
// (including the edit fast path), a Db opened with shards in {2, 4} must
// answer SearchBatch / Search / SelfJoin with exactly the ids, pairs, and
// deterministic counters of the unsharded (shards = 1) database, at
// several thread counts. The rest covers the range placement and the
// shard-map codec, the shards <-> records edge cases (empty collection,
// one record, more shards than records), the Save/OpenIndex shard-map
// round-trip, the per-shard monitoring surface, and a writer-churn test
// that runs under TSan in CI (sharded readers scattering while a writer
// mutates).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
#include "shard/partitioner.h"
#include "storage/bytes.h"

namespace pigeonring::api {
namespace {

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

std::vector<BitVector> MakeVectors(int n, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = n;
  config.num_clusters = 12;
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

std::vector<std::string> MakeStrings(int n, uint64_t seed, int fixed_length) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.fixed_length = fixed_length;
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

// One spec + dataset per domain; the edit domain appears twice (pivotal
// grams and the fixed-length fast path are distinct index structures, so
// both get the identity pin).
struct DomainCase {
  std::string name;
  IndexSpec spec;
  Dataset dataset;
};

std::vector<DomainCase> MakeDomainCases(int n) {
  std::vector<DomainCase> cases;
  {
    IndexSpec spec;
    spec.domain = Domain::kHamming;
    spec.tau = 8;
    spec.chain_length = 3;
    cases.push_back({"hamming", spec, MakeVectors(n, 71)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kSet;
    spec.tau = 0.5;
    spec.chain_length = 2;
    cases.push_back({"sets", spec, MakeSets(n, 72)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOff;
    cases.push_back({"strings", spec, MakeStrings(n, 73, 0)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOn;
    cases.push_back({"strings_fast", spec, MakeStrings(n, 74, 12)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kGraph;
    spec.tau = 2;
    spec.chain_length = 2;
    cases.push_back({"graphs", spec, MakeGraphs(n, 75)});
  }
  return cases;
}

// Every record viewed as a query — the paper's protocol, and it exercises
// every shard both as probe source and as candidate pool.
std::vector<Query> RecordQueries(const Db& db) {
  std::vector<Query> queries;
  for (int id = 0; id < db.num_records(); ++id) {
    auto query = db.RecordQuery(id);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(query).value());
  }
  return queries;
}

// The identity pin: `sharded` must reproduce `unsharded`'s ids, pairs,
// and deterministic counters exactly, at 1 and at several threads.
void ExpectShardedMatchesUnsharded(const Db& unsharded, const Db& sharded) {
  ASSERT_EQ(sharded.num_records(), unsharded.num_records());
  Session baseline = unsharded.NewSession();
  Session session = sharded.NewSession();
  const std::vector<Query> queries = RecordQueries(unsharded);

  for (int threads : {1, 4}) {
    RunOptions options;
    options.num_threads = threads;

    auto expected = baseline.SearchBatch(queries, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto batch = session.SearchBatch(queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->ids, expected->ids);
    ExpectSameCounters(batch->stats, expected->stats);

    auto expected_join = baseline.SelfJoin(options);
    ASSERT_TRUE(expected_join.ok()) << expected_join.status().ToString();
    auto join = session.SelfJoin(options);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join->pairs, expected_join->pairs);
    EXPECT_EQ(join->stats.pairs, expected_join->stats.pairs);
    EXPECT_EQ(join->stats.candidates, expected_join->stats.candidates);
  }

  if (!queries.empty()) {
    auto expected = baseline.Search(queries.front());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto single = session.Search(queries.front());
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(single->ids, expected->ids);
    ExpectSameCounters(single->stats, expected->stats);
  }
}

TEST(ShardIdentityTest, AllDomainsMatchUnshardedAtEveryShardCount) {
  for (DomainCase& domain_case : MakeDomainCases(240)) {
    SCOPED_TRACE(domain_case.name);
    Db unsharded = OpenOrDie(domain_case.spec, domain_case.dataset);
    for (int shards : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      IndexSpec spec = domain_case.spec;
      spec.shards = shards;
      Db sharded = OpenOrDie(spec, domain_case.dataset);
      EXPECT_EQ(sharded.spec().shards, shards);
      ExpectShardedMatchesUnsharded(unsharded, sharded);
    }
  }
}

TEST(ShardEdgeTest, EmptySingleRecordAndMoreShardsThanRecords) {
  for (int n : {0, 1, 3}) {
    SCOPED_TRACE("records=" + std::to_string(n));
    for (DomainCase& domain_case : MakeDomainCases(std::max(n, 1))) {
      if (n == 0 && domain_case.name == "strings_fast") {
        // An empty collection resolves edit_fast_path=kOn away only via
        // kAuto; forcing kOn on empty data is legal but builds no cases —
        // the pivotal case already covers empty strings here.
        continue;
      }
      SCOPED_TRACE(domain_case.name);
      Dataset dataset = std::visit(
          [n](const auto& records) {
            using T = std::decay_t<decltype(records)>;
            return Dataset(T(records.begin(), records.begin() + n));
          },
          domain_case.dataset);
      Db unsharded = OpenOrDie(domain_case.spec, dataset);
      // 8 shards over <= 3 records: most shards are empty.
      IndexSpec spec = domain_case.spec;
      spec.shards = 8;
      Db sharded = OpenOrDie(spec, dataset);
      ExpectShardedMatchesUnsharded(unsharded, sharded);
    }
  }
}

TEST(ShardSpecTest, ValidateRejectsOutOfRangeShards) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  for (int shards : {0, -3, shard::kMaxShards + 1}) {
    spec.shards = shards;
    auto opened = Db::Open(spec, Dataset(MakeVectors(4, 9)));
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << opened.status().ToString();
  }
}

TEST(ShardStatsTest, SizesAndPendingDeltaPartitionTheDatabase) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.shards = 4;
  const auto vectors = MakeVectors(10, 31);
  Db db = OpenOrDie(spec, Dataset(vectors));

  // 10 records over 4 ranges: [0, 3), [3, 6), [6, 8), [8, 10).
  EXPECT_EQ(db.ShardSizes(), (std::vector<int>{3, 3, 2, 2}));

  auto writer = db.NewWriter();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Inserts 10 and 11 extend the last range; base id 0 lies in shard 0.
  ASSERT_TRUE(writer->Insert(Query(vectors[0])).ok());
  ASSERT_TRUE(writer->Insert(Query(vectors[1])).ok());
  ASSERT_TRUE(writer->Remove(0).ok());
  const std::vector<DbShardStat> stats = db.ShardStats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].records, 3);
  EXPECT_EQ(stats[0].pending_delta, 1);
  EXPECT_EQ(stats[1].pending_delta, 0);
  EXPECT_EQ(stats[2].pending_delta, 0);
  EXPECT_EQ(stats[3].pending_delta, 2);

  // Unsharded databases report a single all-covering entry.
  IndexSpec flat = spec;
  flat.shards = 1;
  Db unsharded = OpenOrDie(flat, Dataset(vectors));
  EXPECT_EQ(unsharded.ShardSizes(), (std::vector<int>{10}));
  EXPECT_EQ(unsharded.ShardStats().size(), 1u);
}

TEST(ShardPersistTest, SaveRecordsShardMapAndOpenIndexAdoptsIt) {
  const std::string sharded_path = ScratchPath("sharded.idx");
  const std::string flat_path = ScratchPath("flat.idx");

  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  const auto vectors = MakeVectors(60, 77);

  IndexSpec sharded_spec = spec;
  sharded_spec.shards = 4;
  Db sharded = OpenOrDie(sharded_spec, Dataset(vectors));
  ASSERT_TRUE(sharded.Save(sharded_path).ok());
  Db flat = OpenOrDie(spec, Dataset(vectors));
  ASSERT_TRUE(flat.Save(flat_path).ok());

  // Default spec adopts the persisted shard count; explicit shards > 1
  // overrides it; an unsharded file opens unsharded.
  auto adopted = Db::OpenIndex(spec, sharded_path);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->spec().shards, 4);
  EXPECT_EQ(adopted->ShardSizes().size(), 4u);

  IndexSpec override_spec = spec;
  override_spec.shards = 2;
  auto overridden = Db::OpenIndex(override_spec, sharded_path);
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_EQ(overridden->spec().shards, 2);

  auto flat_reopened = Db::OpenIndex(spec, flat_path);
  ASSERT_TRUE(flat_reopened.ok()) << flat_reopened.status().ToString();
  EXPECT_EQ(flat_reopened->spec().shards, 1);

  // Either way the answers match the in-memory database.
  ExpectShardedMatchesUnsharded(flat, *adopted);
  ExpectShardedMatchesUnsharded(flat, *overridden);
}

// --- shard placement and the shard-map codec ---

TEST(PartitionerTest, RangesCoverEveryIdOnceAscendingWithRoundRobinSizes) {
  for (int n : {0, 3, 5, 137, 1000}) {
    for (int shards : {1, 2, 5, 8}) {
      SCOPED_TRACE(std::to_string(n) + " records, " + std::to_string(shards) +
                   " shards");
      const std::vector<IdRange> ranges = shard::ShardRanges(n, shards);
      ASSERT_EQ(ranges.size(), static_cast<size_t>(shards));
      // Each range starts where the previous one ended: every id lies in
      // exactly one range, and the ranges ascend.
      int next = 0;
      for (int s = 0; s < shards; ++s) {
        EXPECT_EQ(ranges[s].begin, next);
        EXPECT_LE(ranges[s].begin, ranges[s].end);
        next = ranges[s].end;
        // The size a round-robin deal gives shard s.
        int dealt = 0;
        for (int g = s; g < n; g += shards) ++dealt;
        EXPECT_EQ(ranges[s].end - ranges[s].begin, dealt);
      }
      EXPECT_EQ(next, n);
    }
  }
}

TEST(PartitionerTest, EncodeDecodeRoundTripsAndRejectsMalformedBytes) {
  storage::ByteWriter w;
  shard::EncodeShardMap(w, 7);
  const std::vector<uint8_t> bytes = std::move(w).Take();
  const auto decode = [](const std::vector<uint8_t>& image) {
    storage::ByteReader reader(image.data(), image.size());
    return shard::DecodeShardMap(reader);
  };
  const auto encode = [](uint32_t mode, uint32_t shards) {
    storage::ByteWriter raw;
    raw.U32(mode);
    raw.U32(shards);
    return std::move(raw).Take();
  };
  // A sharded Save writes placement mode 0 and the shard count.
  EXPECT_EQ(bytes, encode(0, 7));
  EXPECT_EQ(decode(bytes), 7);
  // Older files recorded round-robin (0) or hash (1) placement; both open
  // with their shard count.
  EXPECT_EQ(decode(encode(1, 7)), 7);
  EXPECT_EQ(decode(encode(0, shard::kMaxShards)), shard::kMaxShards);

  // Unknown mode, out-of-range shard counts, truncation, trailing bytes.
  EXPECT_FALSE(decode(encode(2, 4)));
  EXPECT_FALSE(decode(encode(0, 0)));
  EXPECT_FALSE(decode(encode(0, 1)));
  EXPECT_FALSE(decode(encode(0, shard::kMaxShards + 1)));
  EXPECT_FALSE(decode(std::vector<uint8_t>(bytes.begin(), bytes.end() - 1)));
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(decode(trailing));
}

// --- churn under sharding (runs under TSan in CI) ---
//
// Readers continuously mint sessions and scatter batches over a sharded
// database while a writer inserts and removes; after quiescing and
// compacting, the sharded database must answer identically to an
// unsharded cold open over the surviving records.

TEST(ShardChurnTest, ScatterReadersRaceWriterThenConvergeToColdRebuild) {
  constexpr int kBase = 24;
  constexpr int kInsertPool = 16;
  const auto vectors = MakeVectors(kBase + kInsertPool, 55);

  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.shards = 3;
  spec.delta_compact_threshold = 8;
  Db db = OpenOrDie(
      spec, Dataset(std::vector<BitVector>(vectors.begin(),
                                           vectors.begin() + kBase)));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Session session = db.NewSession();
        std::vector<Query> queries;
        for (int id = 0; id < std::min(db.num_records(), 8); ++id) {
          auto query = session.RecordQuery(id);
          if (query.ok()) queries.push_back(std::move(query).value());
        }
        if (queries.empty()) continue;
        RunOptions options;
        options.num_threads = 2;
        auto first = session.SearchBatch(queries, options);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        // A session's view is frozen: identical re-run, identical answer.
        auto second = session.SearchBatch(queries, options);
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        ASSERT_EQ(first->ids, second->ids);
      }
    });
  }

  {
    auto writer = db.NewWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int k = 0; k < kInsertPool; ++k) {
      ASSERT_TRUE(writer->Insert(Query(vectors[kBase + k])).ok());
      if (k % 3 == 0) {
        ASSERT_TRUE(writer->Remove(k).ok());
      }
    }
    ASSERT_TRUE(writer->Compact().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Quiesced: rebuild the surviving dataset through RecordQuery and pin
  // the sharded database against an unsharded cold open over it.
  std::vector<BitVector> survivors;
  for (int id = 0; id < db.num_records(); ++id) {
    auto query = db.RecordQuery(id);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    survivors.push_back(std::get<BitVector>(std::move(query).value()));
  }
  IndexSpec flat = spec;
  flat.shards = 1;
  flat.delta_compact_threshold = 0;
  Db cold = OpenOrDie(flat, Dataset(survivors));
  ExpectShardedMatchesUnsharded(cold, db);
}

}  // namespace
}  // namespace pigeonring::api
