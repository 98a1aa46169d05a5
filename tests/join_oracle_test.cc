// One brute-force oracle over every self-join and search surface.
//
// For each domain configuration — Hamming at chain length 1 and 4, sets
// under Jaccard and under overlap, strings through the pivotal baseline,
// through Ring and through the fixed-length fast path, and graphs — the
// pairs of every way a self-join can be driven must equal the pairs an
// exhaustive scan with the domain's exact predicate finds:
//
//  * Session::SelfJoin at 1 and 4 threads;
//  * sharded databases at S = 2 and S = 4;
//  * a pending delta holding inserts, base removes and delta removes,
//    unsharded and sharded;
//  * the same data after Compact (ids renumbered);
//  * the join op over TCP, on the base and on the pending delta.
//
// JoinStats.candidates must also agree at every thread count and at
// S = 1, 2 and 4: shards split the candidates of one probe between them.
//
// The search half runs a seeded random sequence of Insert, Remove and
// Compact steps on the same cases. After every step, each query's ids must
// equal a brute-force scan of the live records on every search surface:
//
//  * Session::Search, and SearchBatch at 1 and 4 threads;
//  * S = 1, 2 and 4, with a pending delta and after Compact;
//  * the search op over TCP at S = 1.
//
// The integral QueryStats counters must agree at S = 1, 2 and 4.
//
// Runs under the TSan CI job — keep the datasets small.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "api/db.h"
#include "api/writer.h"
#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "editdist/verify.h"
#include "graphed/ged.h"
#include "net/client.h"
#include "net/server.h"
#include "setsim/record.h"

namespace pigeonring::api {
namespace {

struct OracleCase {
  std::string name;
  IndexSpec spec;
  Dataset dataset;  // base records followed by the insert pool
  int base = 0;     // how many leading records the Db opens with
};

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

constexpr int kBase = 160;
constexpr int kPool = 24;
constexpr int kGraphBase = 48;
constexpr int kGraphPool = 8;

OracleCase Hamming(int chain_length) {
  OracleCase c;
  c.name = "hamming_l" + std::to_string(chain_length);
  c.spec.domain = Domain::kHamming;
  c.spec.tau = 8;
  c.spec.chain_length = chain_length;
  c.dataset = MakeVectors(kBase + kPool, 8101);
  c.base = kBase;
  return c;
}

OracleCase Sets(setsim::SetMeasure measure) {
  OracleCase c;
  const bool jaccard = measure == setsim::SetMeasure::kJaccard;
  c.name = jaccard ? "sets_jaccard" : "sets_overlap";
  c.spec.domain = Domain::kSet;
  c.spec.measure = measure;
  c.spec.tau = jaccard ? 0.6 : 6;
  c.spec.chain_length = 2;
  c.dataset = MakeSets(kBase + kPool, 8102);
  c.base = kBase;
  return c;
}

OracleCase Strings(const std::string& name, int chain_length,
                   EditFastPath fast_path, int fixed_length) {
  OracleCase c;
  c.name = name;
  c.spec.domain = Domain::kEdit;
  c.spec.tau = 2;
  c.spec.chain_length = chain_length;
  c.spec.edit_fast_path = fast_path;
  c.dataset = MakeStrings(kBase + kPool, 8103, fixed_length);
  c.base = kBase;
  return c;
}

OracleCase Graphs() {
  OracleCase c;
  c.name = "graphs";
  c.spec.domain = Domain::kGraph;
  c.spec.tau = 2;
  c.spec.chain_length = 2;
  c.dataset = MakeGraphs(kGraphBase + kGraphPool, 8104);
  c.base = kGraphBase;
  return c;
}

std::vector<OracleCase> AllCases() {
  return {Hamming(1),
          Hamming(4),
          Sets(setsim::SetMeasure::kJaccard),
          Sets(setsim::SetMeasure::kOverlap),
          Strings("strings_pivotal", 1, EditFastPath::kOff, 0),
          Strings("strings_ring", 3, EditFastPath::kOff, 0),
          Strings("strings_fast", 2, EditFastPath::kOn, 12),
          Graphs()};
}

std::vector<Query> ToQueries(const Dataset& dataset) {
  return std::visit(
      [](const auto& records) {
        std::vector<Query> queries;
        for (const auto& record : records) {
          using T = std::decay_t<decltype(record)>;
          if constexpr (std::is_same_v<T, std::vector<int>>) {
            queries.push_back(SetQuery{record, /*ranked=*/false});
          } else {
            queries.push_back(record);
          }
        }
        return queries;
      },
      dataset);
}

Dataset Slice(const Dataset& dataset, int begin, int end) {
  return std::visit(
      [&](const auto& records) {
        using T = std::decay_t<decltype(records)>;
        return Dataset(T(records.begin() + begin, records.begin() + end));
      },
      dataset);
}

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

// The exact predicate of each domain, applied to raw records: no filter,
// no index, no delta bookkeeping.
bool Within(const IndexSpec& spec, const Query& a, const Query& b) {
  if (const auto* x = std::get_if<BitVector>(&a)) {
    return x->HammingDistance(std::get<BitVector>(b)) <=
           static_cast<int>(spec.tau);
  }
  if (const auto* x = std::get_if<SetQuery>(&a)) {
    const std::vector<int>& y = std::get<SetQuery>(b).tokens;
    const int overlap = setsim::Overlap(x->tokens, y);
    if (spec.measure == setsim::SetMeasure::kOverlap) {
      return overlap >= static_cast<int>(spec.tau);
    }
    return overlap >= setsim::JaccardOverlapThreshold(
                          static_cast<int>(x->tokens.size()),
                          static_cast<int>(y.size()), spec.tau);
  }
  const int tau = static_cast<int>(spec.tau);
  if (const auto* x = std::get_if<std::string>(&a)) {
    return editdist::EditDistance(*x, std::get<std::string>(b)) <= tau;
  }
  return graphed::GraphEditDistanceWithin(std::get<graphed::Graph>(a),
                                          std::get<graphed::Graph>(b),
                                          tau) <= tau;
}

// A record under its public id.
struct Record {
  int id;
  Query query;
};

// Every live record of the session's view, ids ascending; `id_end` bounds
// the public ids in use (base size plus inserts).
std::vector<Record> LiveRecords(const Session& session, int id_end) {
  std::vector<Record> records;
  for (int id = 0; id < id_end; ++id) {
    if (!session.IsLive(id)) continue;
    auto query = session.RecordQuery(id);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    records.push_back({id, std::move(query).value()});
  }
  return records;
}

// All pairs (i, j), i < j, of matching records, sorted.
std::vector<IdPair> BrutePairs(const IndexSpec& spec,
                               const std::vector<Record>& records) {
  std::vector<IdPair> pairs;
  for (size_t a = 0; a < records.size(); ++a) {
    for (size_t b = a + 1; b < records.size(); ++b) {
      if (Within(spec, records[a].query, records[b].query)) {
        pairs.push_back({records[a].id, records[b].id});
      }
    }
  }
  return pairs;
}

RunOptions Threads(int threads) {
  RunOptions options;
  options.num_threads = threads;
  options.chunk = 3;  // small chunks interleave the threads' probes
  return options;
}

// Joins in process at 1 and 4 threads; checks the pairs and returns the
// candidate count, which must not depend on the thread count.
int64_t ExpectInProcessJoin(const Db& db, const std::vector<IdPair>& want) {
  Session session = db.NewSession();
  int64_t candidates = -1;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto join = session.SelfJoin(Threads(threads));
    EXPECT_TRUE(join.ok()) << join.status().ToString();
    if (!join.ok()) return -1;
    EXPECT_EQ(join->pairs, want);
    EXPECT_EQ(join->stats.pairs, static_cast<int64_t>(want.size()));
    if (candidates < 0) candidates = join->stats.candidates;
    EXPECT_EQ(join->stats.candidates, candidates);
  }
  return candidates;
}

// The join op over loopback TCP against the same Db.
void ExpectTcpJoin(const Db& db, const std::vector<IdPair>& want,
                   int64_t want_candidates) {
  SCOPED_TRACE("tcp");
  auto server = net::Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto join = client->SelfJoin();
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join->pairs, want);
  EXPECT_EQ(join->candidates, want_candidates);
  server->Stop();
}

// Base surfaces: unsharded and S in {2, 4}, each at 1 and 4 threads, plus
// TCP. Candidate counts must agree everywhere.
void ExpectBaseJoins(const OracleCase& c, const std::vector<IdPair>& want) {
  const Dataset base = Slice(c.dataset, 0, c.base);
  int64_t candidates = -1;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    IndexSpec spec = c.spec;
    spec.shards = shards;
    const Db db = OpenOrDie(spec, base);
    const int64_t got = ExpectInProcessJoin(db, want);
    if (candidates < 0) candidates = got;
    EXPECT_EQ(got, candidates) << "JoinStats.candidates moved with S";
    if (shards == 1) ExpectTcpJoin(db, want, got);
  }
}

// A pending delta (inserts, base removes, delta removes), then the same
// data compacted, at `shards` shards.
void ExpectDeltaJoins(const OracleCase& c,
                      const std::vector<IdPair>& base_pairs, int shards) {
  SCOPED_TRACE("delta shards=" + std::to_string(shards));
  IndexSpec spec = c.spec;
  spec.shards = shards;
  spec.delta_compact_threshold = 0;  // only the explicit Compact below
  spec.delta_compact_ratio = 0;
  Db db = OpenOrDie(spec, Slice(c.dataset, 0, c.base));
  auto writer_or = db.NewWriter();
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  Writer writer = std::move(writer_or).value();

  // Inserts: the pool, then copies of one base record and of the first
  // insert, so pairs cross the base/delta line and run inside the delta.
  const std::vector<Query> all = ToQueries(c.dataset);
  std::vector<Query> inserts(all.begin() + c.base, all.end());
  inserts.push_back(all[base_pairs.back().second]);
  inserts.push_back(all[c.base]);
  std::vector<int> insert_ids;
  for (const Query& record : inserts) {
    auto id = writer.Insert(record);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    insert_ids.push_back(*id);
  }
  // Base removes hit records that are in pairs; delta removes hit two
  // inserts other than the first and the two copies.
  const std::set<int> base_removes = {
      base_pairs.front().first, base_pairs[base_pairs.size() / 2].second, 5};
  for (int id : base_removes) ASSERT_TRUE(writer.Remove(id).ok()) << id;
  for (int k : {2, 5}) ASSERT_TRUE(writer.Remove(insert_ids[k]).ok()) << k;
  ASSERT_GT(writer.num_pending(), 0);

  const int id_end = insert_ids.back() + 1;
  const std::vector<Record> live = LiveRecords(db.NewSession(), id_end);
  ASSERT_EQ(live.size(), static_cast<size_t>(id_end) - base_removes.size() - 2);
  const std::vector<IdPair> want = BrutePairs(spec, live);
  const int64_t candidates = ExpectInProcessJoin(db, want);
  if (shards == 1) ExpectTcpJoin(db, want, candidates);

  const Status compacted = writer.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  ASSERT_EQ(writer.num_pending(), 0);
  SCOPED_TRACE("compacted");
  const Session session = db.NewSession();
  const std::vector<Record> renumbered =
      LiveRecords(session, session.num_records());
  ASSERT_EQ(renumbered.size(), live.size());
  ExpectInProcessJoin(db, BrutePairs(spec, renumbered));
}

TEST(JoinOracleTest, EverySurfaceMatchesBruteForce) {
  for (const OracleCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    const Db probe_db = OpenOrDie(c.spec, Slice(c.dataset, 0, c.base));
    if (c.spec.domain == Domain::kEdit &&
        c.spec.edit_fast_path == EditFastPath::kOn) {
      ASSERT_EQ(probe_db.spec().edit_fast_path, EditFastPath::kOn);
    }
    const std::vector<IdPair> want =
        BrutePairs(c.spec, LiveRecords(probe_db.NewSession(), c.base));
    ASSERT_GE(want.size(), 4u) << "the data must hold pairs to join";
    ExpectBaseJoins(c, want);
    for (int shards : {1, 2}) ExpectDeltaJoins(c, want, shards);
  }
}

// Ids of the live records within the threshold of `query`, ascending.
// Raw set queries keep the dataset's token order; Within needs them sorted
// and distinct, like the records RecordQuery returns.
std::vector<int> BruteIds(const IndexSpec& spec,
                          const std::vector<Record>& live, Query query) {
  if (auto* set = std::get_if<SetQuery>(&query)) {
    std::sort(set->tokens.begin(), set->tokens.end());
    set->tokens.erase(std::unique(set->tokens.begin(), set->tokens.end()),
                      set->tokens.end());
  }
  std::vector<int> ids;
  for (const Record& record : live) {
    if (Within(spec, query, record.query)) ids.push_back(record.id);
  }
  return ids;
}

// Checks Session::Search and SearchBatch at 1 and 4 threads against
// `want`. Returns the counters of each search, then those of the batch,
// for the comparison across shard counts.
std::vector<QueryStats> ExpectSearchSurfaces(
    const Db& db, const std::vector<Query>& queries,
    const std::vector<std::vector<int>>& want) {
  Session session = db.NewSession();
  std::vector<QueryStats> counters;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto result = session.Search(queries[q]);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    EXPECT_EQ(result->ids, want[q]) << "query " << q;
    counters.push_back(result->stats);
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("batch threads=" + std::to_string(threads));
    auto batch = session.SearchBatch(queries, Threads(threads));
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) return {};
    EXPECT_EQ(batch->ids, want);
    if (threads == 1) {
      counters.push_back(batch->stats);
    } else {
      ExpectSameCounters(batch->stats, counters.back());
    }
  }
  return counters;
}

constexpr int kSteps = 24;
constexpr int kQueries = 10;

TEST(JoinOracleTest, SearchSurfacesMatchBruteForceUnderChurn) {
  for (const OracleCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    IndexSpec spec = c.spec;
    spec.delta_compact_threshold = 0;  // only the explicit Compact steps
    spec.delta_compact_ratio = 0;
    const std::vector<Query> all = ToQueries(c.dataset);

    // The S = 1 database is mutated over TCP, S = 2 and 4 through their
    // own writers; every step goes to all three.
    std::vector<Db> dbs;
    for (int shards : {1, 2, 4}) {
      IndexSpec sharded = spec;
      sharded.shards = shards;
      dbs.push_back(OpenOrDie(sharded, Slice(c.dataset, 0, c.base)));
    }
    auto server = net::Server::Start(dbs[0]);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = net::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::vector<Writer> writers;
    for (size_t s = 1; s < dbs.size(); ++s) {
      auto writer = dbs[s].NewWriter();
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      writers.push_back(std::move(writer).value());
    }

    std::mt19937 rng(8105);
    std::vector<Query> queries;
    for (int q = 0; q < kQueries; ++q) {
      queries.push_back(all[rng() % all.size()]);
    }
    size_t next_insert = static_cast<size_t>(c.base);
    int compactions = 0;
    int pending_steps = 0;
    for (int step = 0; step <= kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int action = step == 0 ? -1 : static_cast<int>(rng() % 8);
      if (action >= 0 && action < 4) {
        // The pool first, then copies, which match their originals.
        const Query& record = next_insert < all.size()
                                  ? all[next_insert++]
                                  : all[rng() % all.size()];
        auto id = client->Insert(record);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        for (Writer& writer : writers) {
          auto same = writer.Insert(record);
          ASSERT_TRUE(same.ok()) << same.status().ToString();
          ASSERT_EQ(*same, *id);
        }
      } else if (action >= 4 && action < 7) {
        const Session session = dbs[0].NewSession();
        const std::vector<Record> live =
            LiveRecords(session, session.num_records());
        ASSERT_FALSE(live.empty());
        const int id = live[rng() % live.size()].id;
        ASSERT_TRUE(client->Remove(id).ok()) << id;
        for (Writer& writer : writers) {
          ASSERT_TRUE(writer.Remove(id).ok()) << id;
        }
      } else if (action == 7) {
        ASSERT_TRUE(client->Compact().ok());
        for (Writer& writer : writers) {
          const Status compacted = writer.Compact();
          ASSERT_TRUE(compacted.ok()) << compacted.ToString();
        }
        ++compactions;
      }
      if (writers[0].num_pending() > 0) ++pending_steps;

      const Session session = dbs[0].NewSession();
      const std::vector<Record> live =
          LiveRecords(session, session.num_records());
      std::vector<std::vector<int>> want;
      for (const Query& query : queries) {
        want.push_back(BruteIds(spec, live, query));
      }
      std::vector<QueryStats> counters;
      for (size_t s = 0; s < dbs.size(); ++s) {
        SCOPED_TRACE("shards=" + std::to_string(dbs[s].spec().shards));
        const std::vector<QueryStats> got =
            ExpectSearchSurfaces(dbs[s], queries, want);
        ASSERT_EQ(got.size(), queries.size() + 1);
        if (s == 0) {
          counters = got;
          continue;
        }
        for (size_t k = 0; k < got.size(); ++k) {
          SCOPED_TRACE("counters " + std::to_string(k));
          ExpectSameCounters(got[k], counters[k]);
        }
      }
      SCOPED_TRACE("tcp");
      for (size_t q = 0; q < queries.size(); ++q) {
        auto reply = client->Search(queries[q]);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        EXPECT_EQ(reply->ids, want[q]) << "query " << q;
        EXPECT_EQ(reply->candidates, counters[q].candidates);
        EXPECT_EQ(reply->results, counters[q].results);
      }
    }
    EXPECT_GT(compactions, 0);
    EXPECT_GT(pending_steps, 0);
    server->Stop();
  }
}

}  // namespace
}  // namespace pigeonring::api
