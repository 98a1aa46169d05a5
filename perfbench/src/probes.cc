// The per-layer metrics of a traced run: the layer probes, and the
// derivation of every per-layer metric from the run's spans and counters.
//
// A workload's traced window records spans and counters around the calls
// it makes into the library (workloads.cc). A layer that the window does
// not call is probed after the window on the workload's own database and
// query pool, so every traced run reports every metric; each probe whose
// spans the window already recorded is skipped. The searcher counters of
// the domain a workload does not search (editdist on the Hamming
// workloads, hamming on strings-join) come from a 4000-record fixture of
// that domain built from the run seed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storage/bytes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pigeonring;

constexpr int kProbeThreads = 4;
constexpr int kFixtureRecords = 4000;
constexpr int kFixturePool = 200;

// Every per-layer metric, its unit, and the end-to-end metric and
// workload a change to that layer should move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"storage.open_ms", "ms", "setup_s on hamming-net"},
    {"storage.file_mb", "MB", "setup_s on hamming-net"},
    {"api.build_ms", "ms",
     "setup_s on strings-join, hamming-churn, hamming-shard"},
    {"api.session_mint_us_p50", "us", "p99_ms on hamming-churn"},
    {"api.session_mint_us_p99", "us", "p99_ms on hamming-churn"},
    {"api.insert_us_p50", "us", "api.write_p50_ms on hamming-churn"},
    {"api.insert_us_p99", "us", "api.write_p99_ms on hamming-churn"},
    {"api.remove_us_p50", "us", "api.write_p50_ms on hamming-churn"},
    {"api.remove_us_p99", "us", "api.write_p99_ms on hamming-churn"},
    {"api.compactions", "count", "p99_ms on hamming-churn"},
    {"api.pending_max", "count", "p99_ms on hamming-churn"},
    {"api.write_p50_ms", "ms", "p50_ms on hamming-churn"},
    {"api.write_p99_ms", "ms", "p99_ms on hamming-churn"},
    {"api.writer_lag_ms", "ms", "api.write_p99_ms on hamming-churn"},
    {"api.delta_candidates_per_query", "count", "p50_ms on hamming-churn"},
    {"api.quiesced_candidates_per_query", "count", "p50_ms on hamming-churn"},
    {"api.search_us_p50", "us", "p50_ms on hamming-net"},
    {"engine.handoff_us", "us", "p50_ms and qps on hamming-net"},
    {"engine.join_1t_s", "s", "qps on strings-join"},
    {"engine.speedup_4t", "x", "qps on strings-join"},
    {"engine.efficiency", "ratio", "qps on strings-join"},
    {"editdist.candidates_per_probe", "count", "qps on strings-join"},
    {"editdist.stage2_per_probe", "count", "qps on strings-join"},
    {"editdist.precision", "ratio", "qps on strings-join"},
    {"editdist.filter_ms_per_probe", "ms", "qps on strings-join"},
    {"editdist.verify_ms_per_probe", "ms", "qps on strings-join"},
    {"hamming.candidates_per_query", "count",
     "qps on hamming-shard; no change to p50_ms on hamming-net"},
    {"hamming.index_hits_per_query", "count", "qps on hamming-shard"},
    {"hamming.chain_checks_per_query", "count", "qps on hamming-shard"},
    {"hamming.precision", "ratio", "qps on hamming-shard"},
    {"hamming.filter_ms_per_query", "ms", "qps on hamming-shard"},
    {"hamming.verify_ms_per_query", "ms", "qps on hamming-shard"},
    {"kernels.verify_ns_per_pair", "ns", "qps on hamming-shard"},
    {"kernels.isa_level", "count", "0 scalar, 1 avx2, 2 avx512"},
    {"net.rtt_p50_us", "us", "p50_ms and qps on hamming-net"},
    {"net.rtt_p99_us", "us", "p99_ms on hamming-net"},
    {"net.encode_us", "us", "p50_ms and qps on hamming-net"},
    {"net.decode_us", "us", "p50_ms and qps on hamming-net"},
    {"net.unattributed_us", "us", "p50_ms and qps on hamming-net"},
    {"net.accepted", "count", "failed on hamming-net"},
    {"net.shed", "count", "failed on hamming-net"},
    {"net.protocol_errors", "count", "failed on hamming-net"},
    {"shard.size_skew", "ratio", "qps on hamming-shard"},
    {"shard.batch_ms", "ms", "qps on hamming-shard"},
    {"shard.unsharded_batch_ms", "ms", "qps on hamming-shard"},
    {"shard.speedup", "x", "qps on hamming-shard"},
    {"trace.qps_untraced", "queries/s", "tracing overhead"},
    {"trace.qps_traced", "queries/s", "tracing overhead"},
    {"trace.overhead_pct", "%", "tracing overhead"},
};

const LayerMetric* FindLayerMetric(const std::string& name) {
  for (const LayerMetric& metric : kLayerMetrics) {
    if (name == metric.name) return &metric;
  }
  return nullptr;
}

// Saves the database and reopens the file three times.
void ProbeStorage(const LayerContext& ctx, Lane* lane) {
  const std::string path = ctx.config->out_dir + "/probe-" +
                           std::to_string(getpid()) + ".pgri";
  Require(ctx.db->Save(path), "Db::Save");
  lane->Count("storage.file_bytes",
              static_cast<double>(std::filesystem::file_size(path)));
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = NowNs();
    const api::Db reopened =
        Unwrap(api::Db::OpenIndex(ctx.db->spec(), path), "Db::OpenIndex");
    lane->Record("storage.Db.OpenIndex", t0, NowNs());
  }
  std::filesystem::remove(path);
}

void ProbeSessionMint(const LayerContext& ctx, Lane* lane) {
  for (int i = 0; i < 200; ++i) {
    const int64_t t0 = NowNs();
    const api::Session session = ctx.db->NewSession();
    lane->Record("api.Db.NewSession", t0, NowNs());
  }
}

// Each pool query as an in-process Session::Search, as a 1-query
// SubmitBatch + Future::Get (the server's read path), and as a
// synchronous 1-query SearchBatch. The first pass warms up.
void ProbeSearch(const LayerContext& ctx, Lane* lane) {
  api::Session session = ctx.db->NewSession();
  for (int pass = 0; pass < 2; ++pass) {
    for (const api::Query& query : *ctx.pool) {
      const int64_t t0 = NowNs();
      Unwrap(session.Search(query), "Session::Search");
      const int64_t t1 = NowNs();
      Unwrap(session.SubmitBatch({query}, Threads(1)).Get(), "SubmitBatch");
      const int64_t t2 = NowNs();
      Unwrap(session.SearchBatch({query}, Threads(1)), "SearchBatch");
      const int64_t t3 = NowNs();
      if (pass == 0) continue;
      lane->Record("api.Session.Search", t0, t1);
      lane->Record("engine.SubmitBatch.Get", t1, t2);
      lane->Record("engine.SearchBatch.1q", t2, t3);
    }
  }
}

// The self-join at 4 threads, 1 thread, and 4 threads again.
void ProbeJoin(const LayerContext& ctx, Lane* lane) {
  api::Session session = ctx.db->NewSession();
  for (int threads : {kProbeThreads, 1, kProbeThreads}) {
    const int64_t t0 = NowNs();
    Unwrap(session.SelfJoin(Threads(threads)), "SelfJoin");
    lane->Record(threads == 1 ? "engine.SelfJoin.1t" : "engine.SelfJoin.4t",
                 t0, NowNs());
  }
}

// Serves the database on loopback; one connection searches the pool
// twice, the first pass warming up.
void ProbeNet(const LayerContext& ctx, Lane* lane) {
  net::Server server =
      Unwrap(net::Server::Start(*ctx.db), "Server::Start");
  net::Client client =
      Unwrap(net::Client::Connect("127.0.0.1", server.port()),
             "Client::Connect");
  for (int pass = 0; pass < 2; ++pass) {
    for (const api::Query& query : *ctx.pool) {
      const int64_t t0 = NowNs();
      Unwrap(client.Search(query), "Client::Search");
      if (pass == 1) lane->Record("net.Client.Search", t0, NowNs());
    }
  }
  CountServerStats(server.Snapshot(), lane);
  client.Close();
  server.Stop();
}

// The wire codecs on the pool's queries and their replies. One request
// costs one query and one reply encode, and one of each decode.
void ProbeCodec(const LayerContext& ctx, Lane* lane, RunResult* result) {
  constexpr int kRounds = 20;
  const std::vector<api::Query>& pool = *ctx.pool;
  api::Session session = ctx.db->NewSession();
  std::vector<net::SearchReply> replies;
  std::vector<std::vector<uint8_t>> query_bytes;
  std::vector<std::vector<uint8_t>> reply_bytes;
  for (const api::Query& query : pool) {
    api::SearchResult found = Unwrap(session.Search(query), "Session::Search");
    replies.push_back({std::move(found.ids), found.stats.candidates,
                       found.stats.results});
    storage::ByteWriter q;
    storage::ByteWriter r;
    net::EncodeQuery(q, query);
    net::EncodeSearchReply(r, replies.back());
    query_bytes.push_back(std::move(q).Take());
    reply_bytes.push_back(std::move(r).Take());
  }
  size_t encoded = 0;
  const int64_t t0 = NowNs();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      storage::ByteWriter q;
      storage::ByteWriter r;
      net::EncodeQuery(q, pool[i]);
      net::EncodeSearchReply(r, replies[i]);
      encoded += q.data().size() + r.data().size();
    }
  }
  const int64_t t1 = NowNs();
  bool decoded = true;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      storage::ByteReader q(query_bytes[i].data(), query_bytes[i].size());
      storage::ByteReader r(reply_bytes[i].data(), reply_bytes[i].size());
      api::Query query;
      net::SearchReply reply;
      decoded &= net::DecodeQuery(q, &query) &&
                 net::DecodeSearchReply(r, &reply) &&
                 reply.ids == replies[i].ids;
    }
  }
  const int64_t t2 = NowNs();
  lane->Record("net.codec.encode", t0, t1);
  lane->Record("net.codec.decode", t1, t2);
  lane->Count("net.codec.requests", static_cast<double>(kRounds) * pool.size());
  if (!decoded || encoded == 0) {
    result->Fail("wire codecs did not round-trip the workload's requests");
  }
}

// The pool as one batch at 4 shards and at 1, one thread each,
// alternating, after a warm-up batch of each; and the 4-shard sizes.
void ProbeShard(const LayerContext& ctx, Lane* lane, RunResult* result) {
  std::optional<api::Db> opened;
  if (ctx.sharded == nullptr) {
    api::IndexSpec spec = ctx.db->spec();
    spec.shards = 4;
    opened.emplace(Unwrap(api::Db::Open(spec, *ctx.dataset), "Db::Open"));
  }
  const api::Db& sharded = ctx.sharded != nullptr ? *ctx.sharded : *opened;
  const std::vector<int> sizes = sharded.ShardSizes();
  lane->Count("shard.size_max",
              *std::max_element(sizes.begin(), sizes.end()));
  lane->Count("shard.size_mean",
              std::accumulate(sizes.begin(), sizes.end(), 0.0) / sizes.size());
  api::Session four = sharded.NewSession();
  api::Session one = ctx.db->NewSession();
  for (int r = 0; r < 6; ++r) {
    const int64_t t0 = NowNs();
    auto a = four.SearchBatch(*ctx.pool, Threads(1));
    const int64_t t1 = NowNs();
    auto b = one.SearchBatch(*ctx.pool, Threads(1));
    const int64_t t2 = NowNs();
    if (!a.ok() || !b.ok() || a->ids != b->ids) {
      result->Fail("4-shard probe batch differs from the 1-shard batch");
    }
    if (r == 0) continue;
    lane->Record("shard.SearchBatch.S4", t0, t1);
    lane->Record("shard.SearchBatch.S1", t1, t2);
  }
}

// One batch over `pool` at 1 thread, after a warm-up batch; records the
// domain searcher's counters.
void ProbeSearcher(const api::Db& db, const std::vector<api::Query>& pool,
                   Lane* lane) {
  api::Session session = db.NewSession();
  Unwrap(session.SearchBatch(pool, Threads(1)), "SearchBatch");
  const api::QueryStats s =
      Unwrap(session.SearchBatch(pool, Threads(1)), "SearchBatch").stats;
  const double n = static_cast<double>(pool.size());
  if (db.domain() == api::Domain::kHamming) {
    lane->Count("hamming.queries", n);
    lane->Count("hamming.candidates", static_cast<double>(s.candidates));
    lane->Count("hamming.index_hits", static_cast<double>(s.index_hits));
    lane->Count("hamming.chain_checks", static_cast<double>(s.chain_checks));
    lane->Count("hamming.results", static_cast<double>(s.results));
    lane->Count("hamming.filter_ms", s.filter_millis);
    lane->Count("hamming.verify_ms", s.verify_millis);
  } else {
    lane->Count("editdist.probes", n);
    lane->Count("editdist.candidates", static_cast<double>(s.candidates));
    lane->Count("editdist.stage2", static_cast<double>(s.candidates_stage2));
    lane->Count("editdist.results", static_cast<double>(s.results));
    lane->Count("editdist.filter_ms", s.filter_millis);
    lane->Count("editdist.verify_ms", s.verify_millis);
  }
}

// VerifyHammingLeqBatch of up to 64 pool queries against every code; the
// first pass warms up.
void ProbeKernels(const std::vector<BitVector>& codes,
                  const std::vector<api::Query>& pool, int tau, Lane* lane) {
  const kernels::FlatBitTable table = kernels::FlatBitTable::FromVectors(codes);
  std::vector<int> ids(codes.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<uint8_t> verdicts(codes.size());
  const size_t queries = std::min<size_t>(pool.size(), 64);
  int64_t passing = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t t0 = NowNs();
    for (size_t q = 0; q < queries; ++q) {
      passing += kernels::VerifyHammingLeqBatch(
          table, std::get<BitVector>(pool[q]).words().data(), tau, ids.data(),
          static_cast<int>(ids.size()), verdicts.data());
    }
    if (pass == 0) continue;
    lane->Record("kernels.VerifyHammingLeqBatch", t0, NowNs());
    lane->Count("kernels.pairs", static_cast<double>(queries) * ids.size());
  }
  lane->Count("kernels.isa_level", static_cast<double>(kernels::ActiveIsa()));
  lane->Count("kernels.passing", static_cast<double>(passing));
}

// A small database of the domain a workload does not search.
struct Fixture {
  api::Dataset dataset;
  api::Db db;
  std::vector<api::Query> pool;
};

Fixture MakeFixture(api::Dataset dataset, const api::IndexSpec& spec) {
  api::Db db = Unwrap(api::Db::Open(spec, dataset), "Db::Open");
  std::vector<api::Query> pool;
  for (int i = 0; i < kFixturePool; ++i) {
    pool.push_back(Unwrap(db.RecordQuery(i * (kFixtureRecords / kFixturePool)),
                          "Db::RecordQuery"));
  }
  return {std::move(dataset), std::move(db), std::move(pool)};
}

Fixture HammingFixture(uint64_t seed) {
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 4;
  return MakeFixture(api::Dataset(Codes(kFixtureRecords, 20, 0.5, seed)),
                     spec);
}

Fixture StringFixture(uint64_t seed) {
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  return MakeFixture(api::Dataset(Strings(kFixtureRecords, seed)), spec);
}

}  // namespace

void CountServerStats(const net::ServerStats& stats, Lane* lane) {
  lane->Count("net.accepted", static_cast<double>(stats.accepted));
  lane->Count("net.shed", static_cast<double>(stats.shed));
  lane->Count("net.protocol_errors",
              static_cast<double>(stats.protocol_errors));
}

void RunLayerProbes(const LayerContext& ctx, RunResult* result) {
  Tracer& tracer = *ctx.config->tracer;
  Lane* lane = tracer.NewLane();
  if (!tracer.HasSpan("storage.Db.OpenIndex")) ProbeStorage(ctx, lane);
  if (!tracer.HasSpan("api.Db.NewSession")) ProbeSessionMint(ctx, lane);
  ProbeSearch(ctx, lane);
  ProbeJoin(ctx, lane);
  if (!tracer.HasSpan("net.Client.Search")) ProbeNet(ctx, lane);
  ProbeCodec(ctx, lane, result);
  ProbeShard(ctx, lane, result);
  const bool hamming = ctx.db->domain() == api::Domain::kHamming;
  const uint64_t fixture_seed = Stream(ctx.config->seed, 99);
  const Fixture other =
      hamming ? StringFixture(fixture_seed) : HammingFixture(fixture_seed);
  ProbeSearcher(*ctx.db, *ctx.pool, lane);
  ProbeSearcher(other.db, other.pool, lane);
  // The kernels verify the workload's own codes, or the fixture's.
  const api::Db& coded = hamming ? *ctx.db : other.db;
  ProbeKernels(std::get<std::vector<BitVector>>(hamming ? *ctx.dataset
                                                        : other.dataset),
               hamming ? *ctx.pool : other.pool,
               static_cast<int>(coded.spec().tau), lane);
}

void DeriveLayerMetrics(const Tracer& t, RunResult* result) {
  auto& m = result->layer;
  auto set = [&](const char* name, double value) {
    m[name] = {value, FindLayerMetric(name)->unit};
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto spans = [&](const char* name) { return Summarize(t.DurationsUs(name)); };
  auto total_us = [&](const char* name) {
    const std::vector<double> us = t.DurationsUs(name);
    return std::accumulate(us.begin(), us.end(), 0.0);
  };

  set("storage.open_ms", spans("storage.Db.OpenIndex").p50 / 1e3);
  set("storage.file_mb", t.Max("storage.file_bytes") / (1024.0 * 1024.0));
  set("api.build_ms", spans("api.Db.Open").p50 / 1e3);
  const Percentiles mint = spans("api.Db.NewSession");
  set("api.session_mint_us_p50", mint.p50);
  set("api.session_mint_us_p99", mint.p99);
  const Percentiles insert = spans("api.Writer.Insert");
  set("api.insert_us_p50", insert.p50);
  set("api.insert_us_p99", insert.p99);
  const Percentiles remove = spans("api.Writer.Remove");
  set("api.remove_us_p50", remove.p50);
  set("api.remove_us_p99", remove.p99);
  // Only a load that compacts (hamming-churn) gives these a meaning;
  // elsewhere compactions are 0 and pending_max is the writer probe's op
  // count, so they are left out.
  if (t.Sum("api.compactions") > 0) {
    set("api.compactions", t.Sum("api.compactions"));
    set("api.pending_max", t.Max("api.Writer.pending_max"));
  }
  set("api.write_p50_ms", t.Mean("api.write_p50_ms"));
  set("api.write_p99_ms", t.Mean("api.write_p99_ms"));
  set("api.writer_lag_ms", t.Max("api.Writer.lag_max_ms"));
  set("api.delta_candidates_per_query",
      t.Mean("api.delta_candidates_per_query"));
  set("api.quiesced_candidates_per_query",
      t.Mean("api.quiesced_candidates_per_query"));
  const double search_us = spans("api.Session.Search").p50;
  set("api.search_us_p50", search_us);
  const double handoff_us =
      spans("engine.SubmitBatch.Get").p50 - spans("engine.SearchBatch.1q").p50;
  set("engine.handoff_us", handoff_us);

  const double join_1t = spans("engine.SelfJoin.1t").p50 / 1e6;
  const double join_4t = spans("engine.SelfJoin.4t").p50 / 1e6;
  set("engine.join_1t_s", join_1t);
  set("engine.speedup_4t", ratio(join_1t, join_4t));
  set("engine.efficiency", ratio(join_1t, join_4t) / kProbeThreads);

  const double probes = t.Sum("editdist.probes");
  const double edit_candidates = t.Sum("editdist.candidates");
  set("editdist.candidates_per_probe", ratio(edit_candidates, probes));
  set("editdist.stage2_per_probe", ratio(t.Sum("editdist.stage2"), probes));
  set("editdist.precision", ratio(t.Sum("editdist.results"), edit_candidates));
  set("editdist.filter_ms_per_probe",
      ratio(t.Sum("editdist.filter_ms"), probes));
  set("editdist.verify_ms_per_probe",
      ratio(t.Sum("editdist.verify_ms"), probes));

  const double queries = t.Sum("hamming.queries");
  const double candidates = t.Sum("hamming.candidates");
  set("hamming.candidates_per_query", ratio(candidates, queries));
  set("hamming.index_hits_per_query",
      ratio(t.Sum("hamming.index_hits"), queries));
  set("hamming.chain_checks_per_query",
      ratio(t.Sum("hamming.chain_checks"), queries));
  set("hamming.precision", ratio(t.Sum("hamming.results"), candidates));
  set("hamming.filter_ms_per_query",
      ratio(t.Sum("hamming.filter_ms"), queries));
  set("hamming.verify_ms_per_query",
      ratio(t.Sum("hamming.verify_ms"), queries));

  set("kernels.verify_ns_per_pair",
      ratio(total_us("kernels.VerifyHammingLeqBatch") * 1e3,
            t.Sum("kernels.pairs")));
  set("kernels.isa_level", t.Max("kernels.isa_level"));

  const Percentiles rtt = spans("net.Client.Search");
  set("net.rtt_p50_us", rtt.p50);
  set("net.rtt_p99_us", rtt.p99);
  const double requests = t.Sum("net.codec.requests");
  const double encode_us = ratio(total_us("net.codec.encode"), requests);
  const double decode_us = ratio(total_us("net.codec.decode"), requests);
  set("net.encode_us", encode_us);
  set("net.decode_us", decode_us);
  set("net.unattributed_us",
      rtt.p50 - (search_us + handoff_us + encode_us + decode_us));
  set("net.accepted", t.Sum("net.accepted"));
  set("net.shed", t.Sum("net.shed"));
  set("net.protocol_errors", t.Sum("net.protocol_errors"));

  set("shard.size_skew",
      ratio(t.Max("shard.size_max"), t.Max("shard.size_mean")));
  const double batch_s4 = spans("shard.SearchBatch.S4").p50 / 1e3;
  const double batch_s1 = spans("shard.SearchBatch.S1").p50 / 1e3;
  set("shard.batch_ms", batch_s4);
  set("shard.unsharded_batch_ms", batch_s1);
  set("shard.speedup", ratio(batch_s1, batch_s4));

  const double untraced = t.Sum("trace.qps_untraced");
  const double traced = t.Sum("trace.qps_traced");
  set("trace.qps_untraced", untraced);
  set("trace.qps_traced", traced);
  set("trace.overhead_pct", (ratio(untraced, traced) - 1) * 100);
}

void PrintLayerMetrics(const RunResult& result) {
  std::fprintf(stderr, "per-layer metrics (and what each should move):\n");
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto found = result.layer.find(metric.name);
    const double value = found == result.layer.end() ? 0 : found->second.value;
    std::fprintf(stderr, "  %-36s %14.6g %-9s %s\n", metric.name, value,
                 metric.unit, metric.moves);
  }
}

}  // namespace perfbench
