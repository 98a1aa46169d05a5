// The four perfbench workloads. Each generates its inputs from the run
// seed, times its set-up several times, warms up (sessions minted,
// executor and connection threads spawned, one pass over every query
// pool, then kWarmupSeconds of the load itself), measures a timed window,
// and checks its answers against an oracle.
//
//   hamming-net    20k clustered 128-bit codes (tau 8, l 4), saved,
//                  reopened with Db::OpenIndex and served by an in-process
//                  net::Server; 4 closed-loop net::Client connections
//                  issue single-query searches round-robin over a pool.
//   strings-join   5k variable-length strings (tau 2, l 3, pivotal
//                  filter); repeated Session::SelfJoin at 4 threads.
//   hamming-churn  20k-code base (tau 8, l 4); one open-loop writer at
//                  1000 ops/s (every fifth op a Remove) beside 2
//                  closed-loop readers, each read a fresh Session and a
//                  50-query SearchBatch.
//   hamming-shard  dense clustered codes (tau 12, l 4, uniform
//                  allocation) at 4 shards, 1 thread each; 2 closed-loop
//                  clients issue 64-query SearchBatch requests.
//
// Every workload reports the same end-to-end metrics: setup_s, qps,
// p50_ms, p99_ms and peak_rss_mb. On strings-join a read query is one
// probe of the self-join, so qps is its join throughput in records/s.
// Writer latency from the due time is a per-layer metric of the traced
// run: hamming-churn's writer, or a two-second writer probe elsewhere.

#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/writer.h"
#include "common/random.h"
#include "datagen/binary_vectors.h"
#include "editdist/verify.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {
namespace {

using namespace pigeonring;

// A set-up of ~10 ms swings by a fifth between single timings, and by
// more between cores: on a shared host a core runs slower while its
// hardware sibling is busy, and which cores those are changes within
// seconds. So setup_s is the median of as many timings as fit in this
// budget, taken on every core in turn.
constexpr double kSetupBudgetSeconds = 4;
constexpr int kMinSetupRepeats = 11;
constexpr int kMaxSetupRepeats = 1000;
constexpr int kJoinThreads = 4;
// Every open-loop writer issues this many ops per second.
constexpr double kWriteRate = 1000;
// Length of the writer probe of workloads whose load has no writer.
constexpr double kWriteProbeSeconds = 2;
// hamming-churn fails a window with fewer compactions: it would not have
// measured reads beside compaction.
constexpr int64_t kMinCompactions = 3;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return (to_ns - from_ns) / 1e9;
}

std::string ScratchPath(const RunConfig& config, const std::string& name) {
  return config.out_dir + "/" + name + "-" + std::to_string(getpid()) +
         ".pgri";
}

api::IndexSpec HammingSpec(int tau) {
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = tau;
  spec.chain_length = 4;
  spec.num_threads = 1;
  // Only hamming-churn compacts; the writer phase of the other workloads
  // prices log appends.
  spec.delta_compact_threshold = 0;
  return spec;
}

// `count` distinct ids in [0, n), in draw order.
std::vector<int> SampleIds(int n, int count, uint64_t seed) {
  Rng rng(seed);
  std::set<int> seen;
  std::vector<int> ids;
  while (static_cast<int>(ids.size()) < std::min(count, n)) {
    const int id = static_cast<int>(rng.NextBounded(n));
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

std::vector<api::Query> Queries(const api::Db& db,
                                const std::vector<int>& ids) {
  std::vector<api::Query> queries;
  for (int id : ids) {
    queries.push_back(Unwrap(db.RecordQuery(id), "Db::RecordQuery"));
  }
  return queries;
}

api::Db OpenDb(const api::IndexSpec& spec, const api::Dataset& dataset,
               Lane* lane) {
  const int64_t t0 = NowNs();
  api::Db db = Unwrap(api::Db::Open(spec, dataset), "Db::Open");
  if (lane != nullptr) lane->Record("api.Db.Open", t0, NowNs());
  return db;
}

// Runs `open` once untimed (the first open of a process also pays for
// page faults and a cold CPU), then again and again until
// kSetupBudgetSeconds have passed (at least kMinSetupRepeats and at most
// kMaxSetupRepeats times), the calling thread moved to the next core the
// process may use before each, and reports the median as setup_s. Each
// value is torn down before the next timing starts. The value returned is
// opened once more, untimed, on every allowed core, so that threads it
// starts are not tied to one core.
template <typename Open>
auto TimeSetup(Open open, RunResult* result) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cores;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int core = 0; core < CPU_SETSIZE; ++core) {
      if (CPU_ISSET(core, &allowed)) cores.push_back(core);
    }
  }
  std::vector<double> seconds;
  std::optional<decltype(open())> last(open());
  const int64_t budget_end =
      NowNs() + static_cast<int64_t>(kSetupBudgetSeconds * 1e9);
  while (static_cast<int>(seconds.size()) < kMinSetupRepeats ||
         (NowNs() < budget_end &&
          static_cast<int>(seconds.size()) < kMaxSetupRepeats)) {
    if (!cores.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cores[seconds.size() % cores.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    last.reset();
    const int64_t t0 = NowNs();
    last.emplace(open());
    seconds.push_back(Seconds(t0, NowNs()));
  }
  last.reset();
  if (!cores.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  last.emplace(open());
  const Percentiles p = Summarize(seconds);
  std::fprintf(stderr, "setup: %lld timed opens, median %.6f s, p99 %.6f s\n",
               static_cast<long long>(p.count), p.p50, p.p99);
  result->end_to_end["setup_s"] = {p.p50, "s"};
  return std::move(*last);
}

void ReportReads(const LoopResult& loop, RunResult* result) {
  result->attempted += loop.attempted;
  result->failed += loop.failed + loop.shed + loop.wrong;
  if (loop.wrong > 0) {
    result->Fail(std::to_string(loop.wrong) +
                 " reads answered differently from the reference");
  }
  // p50_ms and p99_ms are nearest-rank over every read of the window;
  // their sample count is `attempted` minus `failed` of the result.
  const Percentiles p = Summarize(loop.latency_ms);
  result->end_to_end["qps"] = {Median(loop.slice_qps), "queries/s"};
  result->end_to_end["p50_ms"] = {p.p50, "ms"};
  result->end_to_end["p99_ms"] = {p.p99, "ms"};
  std::fprintf(stderr,
               "reads: %lld attempted, %lld failed, %lld shed, %lld wrong; "
               "%lld queries in %.3f s (%.1f/s); latency n=%lld "
               "p50=%.4f ms p99=%.4f ms (%lld samples beyond p99)\n",
               static_cast<long long>(loop.attempted),
               static_cast<long long>(loop.failed),
               static_cast<long long>(loop.shed),
               static_cast<long long>(loop.wrong),
               static_cast<long long>(loop.units), loop.wall_s,
               loop.units / std::max(loop.wall_s, 1e-9),
               static_cast<long long>(p.count), p.p50, p.p99,
               static_cast<long long>(p.beyond_p99));
}

// One self-join at kJoinThreads, for the oracles.
std::vector<api::IdPair> Join(const api::Db& db) {
  return Unwrap(db.NewSession().SelfJoin(Threads(kJoinThreads)), "SelfJoin")
      .pairs;
}

struct WriterStats {
  std::vector<double> latency_ms;  // completion minus due time, in op order
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t remove_retries = 0;  // picks naming an id already removed
  int64_t pending_max = 0;
  double lag_max_ms = 0;  // how late the schedule ran: start minus due

  void Merge(WriterStats other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    remove_retries += other.remove_retries;
    pending_max = std::max(pending_max, other.pending_max);
    lag_max_ms = std::max(lag_max_ms, other.lag_max_ms);
  }
};

// Sleeps until `due_ns`, spinning through the last stretch so that op
// start times show scheduling delay rather than timer slack.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

// The open-loop writer: op k is due k / kWriteRate seconds after the
// start whether or not earlier ops have finished. Every fifth op removes
// a live record and the others insert records[k % size]. Latency runs
// from the due time, so a stall also delays the ops queued behind it.
WriterStats DriveWriter(api::Writer& writer,
                        const std::vector<api::Query>& records,
                        double seconds, uint64_t seed, Lane* lane) {
  WriterStats stats;
  Rng rng(seed);
  const int64_t total = std::llround(kWriteRate * seconds);
  stats.latency_ms.reserve(total);
  const int64_t start = NowNs();
  for (int64_t k = 0; k < total; ++k) {
    const int64_t due = start + static_cast<int64_t>(k * 1e9 / kWriteRate);
    WaitUntil(due);
    stats.lag_max_ms = std::max(stats.lag_max_ms, (NowNs() - due) / 1e6);
    const uint64_t request = static_cast<uint64_t>(k) + 1;
    bool ok = false;
    if (k % 5 == 4) {
      // A compaction renumbers ids when it publishes, so a pick can name
      // an id already removed in this epoch; the writer answers with its
      // typed kNotFound no-op and the pick is retried.
      for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
        const int id = static_cast<int>(rng.NextBounded(writer.num_records()));
        const int64_t t0 = NowNs();
        const Status removed = writer.Remove(id);
        if (lane != nullptr) {
          lane->Record("api.Writer.Remove", t0, NowNs(), 0, request);
        }
        ok = removed.ok();
        if (!ok && removed.code() != StatusCode::kNotFound) break;
        if (!ok) ++stats.remove_retries;
      }
    } else {
      const int64_t t0 = NowNs();
      ok = writer.Insert(records[k % records.size()]).ok();
      if (lane != nullptr) {
        lane->Record("api.Writer.Insert", t0, NowNs(), 0, request);
      }
    }
    ++stats.attempted;
    if (ok) {
      stats.latency_ms.push_back((NowNs() - due) / 1e6);
    } else {
      ++stats.failed;
    }
    stats.pending_max = std::max(stats.pending_max, writer.num_pending());
  }
  return stats;
}

void ReportWrites(const WriterStats& stats, Lane* lane, RunResult* result) {
  result->attempted += stats.attempted;
  result->failed += stats.failed;
  const Percentiles p = Summarize(stats.latency_ms);
  if (lane != nullptr) {
    lane->Count("api.write_p50_ms", p.p50);
    lane->Count("api.write_p99_ms", p.p99);
    lane->Count("api.Writer.pending_max",
                static_cast<double>(stats.pending_max));
    lane->Count("api.Writer.lag_max_ms", stats.lag_max_ms);
  }
  std::fprintf(stderr,
               "writes: %lld attempted, %lld failed; latency from due time "
               "n=%lld write_p50_ms=%.4f write_p99_ms=%.4f (%lld samples "
               "beyond p99); schedule ran at most %.3f ms late; %lld remove "
               "picks retried; at most %lld mutations pending\n",
               static_cast<long long>(stats.attempted),
               static_cast<long long>(stats.failed),
               static_cast<long long>(p.count), p.p50, p.p99,
               static_cast<long long>(p.beyond_p99), stats.lag_max_ms,
               static_cast<long long>(stats.remove_retries),
               static_cast<long long>(stats.pending_max));
}

// Records the pool's candidates per query on a fresh session as `name`.
void CountCandidates(const api::Db& db, const std::vector<api::Query>& pool,
                     const char* name, Lane* lane) {
  api::Session session = db.NewSession();
  const api::BatchResult batch =
      Unwrap(session.SearchBatch(pool, Threads(1)), "SearchBatch");
  lane->Count(name, static_cast<double>(batch.stats.candidates) / pool.size());
}

// The writer probe of a traced workload whose load has no writer: the
// open-loop writer inserting pool records on a database that does not
// compact; then the pool's candidates with the writes pending and again
// after an explicit compaction.
void WriteProbe(const RunConfig& config, const api::Db& db,
                const std::vector<api::Query>& pool, RunResult* result) {
  Lane* lane = config.tracer->NewLane();
  api::Writer writer = Unwrap(db.NewWriter(), "Db::NewWriter");
  ReportWrites(DriveWriter(writer, pool, kWriteProbeSeconds,
                           Stream(config.seed, 3), lane),
               lane, result);
  CountCandidates(db, pool, "api.delta_candidates_per_query", lane);
  Require(writer.Compact(), "Writer::Compact");
  CountCandidates(db, pool, "api.quiesced_candidates_per_query", lane);
}

// hamming-net: the wire and the executor handoff around a ~15 us search.
void RunHammingNet(const RunConfig& config, RunResult* result) {
  constexpr int kRecords = 20000;
  constexpr int kPool = 256;
  constexpr int kConnections = 4;
  result->threads = 1;
  result->connections = kConnections;
  Lane* lane = LaneOf(config.tracer);
  const api::Dataset dataset(
      Codes(kRecords, 20, 0.5, Stream(config.seed, 1)));
  const api::IndexSpec spec = HammingSpec(8);
  const std::string index_path = ScratchPath(config, "hamming-net");
  Require(OpenDb(spec, dataset, lane).Save(index_path), "Db::Save");
  if (lane != nullptr) {
    lane->Count("storage.file_bytes",
                static_cast<double>(std::filesystem::file_size(index_path)));
  }

  // Set-up: open the saved index and start serving it.
  struct Served {
    api::Db db;
    net::Server server;
  };
  Served served = TimeSetup(
      [&] {
        const int64_t t0 = NowNs();
        api::Db db = Unwrap(api::Db::OpenIndex(spec, index_path),
                            "Db::OpenIndex");
        const int64_t t1 = NowNs();
        net::Server server =
            Unwrap(net::Server::Start(db), "Server::Start");
        if (lane != nullptr) {
          lane->Record("storage.Db.OpenIndex", t0, t1);
          lane->Record("net.Server.Start", t1, NowNs());
        }
        return Served{std::move(db), std::move(server)};
      },
      result);
  std::filesystem::remove(index_path);
  const api::Db& db = served.db;

  const std::vector<api::Query> pool =
      Queries(db, SampleIds(kRecords, kPool, Stream(config.seed, 2)));
  std::vector<std::vector<int>> expected;
  {
    api::Session session = db.NewSession();
    for (const api::Query& query : pool) {
      expected.push_back(Unwrap(session.Search(query), "Session::Search").ids);
    }
  }
  // Warm-up: every connection is open and has made one pass over the pool.
  std::vector<net::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(Unwrap(
        net::Client::Connect("127.0.0.1", served.server.port()),
        "Client::Connect"));
    for (size_t q = 0; q < pool.size(); ++q) {
      auto reply = clients.back().Search(pool[q]);
      if (!reply.ok() || reply->ids != expected[q]) {
        result->Fail("warm-up reply differs from the in-process answer");
      }
    }
  }

  const uint64_t epoch = db.epoch();
  auto search = [&](int c, int64_t i, Lane*, uint64_t) {
    const size_t q = static_cast<size_t>(i * kConnections + c) % pool.size();
    auto reply = clients[c].Search(pool[q]);
    if (!reply.ok()) {
      return OpResult{reply.status().code() == StatusCode::kResourceExhausted
                          ? Outcome::kShed
                          : Outcome::kFailed};
    }
    return OpResult{reply->ids == expected[q] ? Outcome::kOk : Outcome::kWrong};
  };
  const LoopResult loop =
      MeasureWindow(config, result, [&](double seconds, Tracer* tracer,
                                        bool timed) {
        return RunClosedLoop(kConnections, seconds, tracer,
                             "net.Client.Search", search, timed);
      });
  ReportReads(loop, result);

  const net::ServerStats stats = served.server.Snapshot();
  if (stats.protocol_errors > 0) {
    result->Fail(std::to_string(stats.protocol_errors) +
                 " protocol errors on the server");
  }
  if (lane != nullptr) {
    CountServerStats(stats, lane);
    lane->Count("api.compactions", static_cast<double>(db.epoch() - epoch));
  }
  for (const net::OpStats& op : stats.ops) {
    if (op.count == 0) continue;
    std::fprintf(stderr,
                 "diagnostic only (server log-bucket histogram, not an exact "
                 "percentile): op %s count=%lld p50~%.1f us p99~%.1f us\n",
                 net::OpName(static_cast<net::Op>(op.op)),
                 static_cast<long long>(op.count), op.p50_micros,
                 op.p99_micros);
  }
  for (net::Client& client : clients) client.Close();
  served.server.Stop();

  if (config.tracer != nullptr) {
    RunLayerProbes({&db, nullptr, &dataset, &pool, &config}, result);
    WriteProbe(config, db, pool, result);
  }
}

// True iff, for every probe id, the join's partners equal a brute-force
// edit-distance verify against every record.
bool JoinMatchesBruteForce(const std::vector<std::string>& strings,
                           const std::vector<api::IdPair>& pairs,
                           const std::vector<int>& probes, int tau) {
  std::vector<int> slot(strings.size(), -1);
  for (size_t i = 0; i < probes.size(); ++i) {
    slot[probes[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> joined(probes.size());
  for (const api::IdPair& pair : pairs) {
    if (slot[pair.first] >= 0) joined[slot[pair.first]].push_back(pair.second);
    if (slot[pair.second] >= 0) joined[slot[pair.second]].push_back(pair.first);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string& probe = strings[probes[i]];
    std::vector<int> brute;
    for (size_t j = 0; j < strings.size(); ++j) {
      if (static_cast<int>(j) != probes[i] &&
          editdist::BandedEditDistance(probe, strings[j], tau) <= tau) {
        brute.push_back(static_cast<int>(j));
      }
    }
    std::sort(joined[i].begin(), joined[i].end());
    if (joined[i] != brute) return false;
  }
  return true;
}

// strings-join: the editdist filter and verify under the engine's
// parallel join, with no wire, writer or shard.
void RunStringsJoin(const RunConfig& config, RunResult* result) {
  constexpr int kRecords = 5000;
  constexpr int kProbes = 200;
  constexpr int kOracleProbes = 100;
  result->threads = kJoinThreads;
  result->connections = 1;
  Lane* lane = LaneOf(config.tracer);
  const std::vector<std::string> strings =
      Strings(kRecords, Stream(config.seed, 1));
  const api::Dataset dataset(strings);
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.num_threads = kJoinThreads;
  spec.delta_compact_threshold = 0;
  const api::Db db =
      TimeSetup([&] { return OpenDb(spec, dataset, lane); }, result);
  if (db.spec().edit_fast_path != api::EditFastPath::kOff) {
    result->Fail("the edit fast path resolved on; strings-join measures the "
                 "pivotal filter");
  }
  const std::vector<int> probe_ids =
      SampleIds(kRecords, kProbes, Stream(config.seed, 2));
  const std::vector<api::Query> probes = Queries(db, probe_ids);

  // Warm-up: the first join spawns the executor's loop threads.
  api::Session session = db.NewSession();
  const std::vector<api::IdPair> reference =
      Unwrap(session.SelfJoin(Threads(kJoinThreads)), "SelfJoin").pairs;
  const uint64_t epoch = db.epoch();
  auto join = [&](int, int64_t, Lane*, uint64_t) {
    auto joined = session.SelfJoin(Threads(kJoinThreads));
    if (!joined.ok()) return OpResult{Outcome::kFailed};
    return OpResult{joined->pairs == reference ? Outcome::kOk : Outcome::kWrong,
                    kRecords};
  };
  const LoopResult loop =
      MeasureWindow(config, result, [&](double seconds, Tracer* tracer,
                                        bool timed) {
        return RunClosedLoop(1, seconds, tracer, "api.Session.SelfJoin", join,
                             timed);
      });
  ReportReads(loop, result);
  std::fprintf(stderr, "join_probes_per_s=%.1f (records / median join)\n",
               kRecords / std::max(Median(loop.latency_ms) / 1e3, 1e-9));
  if (lane != nullptr) {
    lane->Count("api.compactions", static_cast<double>(db.epoch() - epoch));
  }

  const std::vector<int> oracle_probes(probe_ids.begin(),
                                       probe_ids.begin() + kOracleProbes);
  if (!JoinMatchesBruteForce(strings, reference, oracle_probes,
                             static_cast<int>(spec.tau))) {
    result->Fail("self-join pairs differ from a brute-force edit-distance "
                 "verify");
  }
  if (config.tracer != nullptr) {
    RunLayerProbes({&db, nullptr, &dataset, &probes, &config}, result);
    WriteProbe(config, db, probes, result);
  }
}

std::string SavedBytes(const RunConfig& config, const api::Db& db) {
  const std::string path = ScratchPath(config, "saved");
  Require(db.Save(path), "Db::Save");
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

// hamming-churn: reads beside an open-loop writer and the background
// compactions it triggers on the readers' executor.
void RunHammingChurn(const RunConfig& config, RunResult* result) {
  constexpr int kBase = 20000;
  constexpr int kInsertPool = 4000;
  constexpr int kReaders = 2;
  constexpr int kBatch = 50;
  constexpr int kCompactEvery = 500;
  result->threads = 1;
  result->connections = kReaders;
  Lane* lane = LaneOf(config.tracer);
  std::vector<BitVector> codes =
      Codes(kBase + kInsertPool, 20, 0.5, Stream(config.seed, 1));
  const std::vector<api::Query> inserts(codes.begin() + kBase, codes.end());
  codes.resize(kBase);
  const api::Dataset dataset(std::move(codes));
  api::IndexSpec spec = HammingSpec(8);
  spec.delta_compact_threshold = kCompactEvery;
  const api::Db db =
      TimeSetup([&] { return OpenDb(spec, dataset, lane); }, result);
  const std::vector<api::Query> pool =
      Queries(db, SampleIds(kBase, kBatch, Stream(config.seed, 2)));
  // Warm-up: one session and one pass over the pool per reader.
  for (int r = 0; r < kReaders; ++r) {
    Unwrap(db.NewSession().SearchBatch(pool), "SearchBatch");
  }

  auto read = [&](int c, int64_t i, Lane* read_lane, uint64_t parent) {
    const int64_t t0 = NowNs();
    api::Session session = db.NewSession();
    const int64_t t1 = NowNs();
    auto batch = session.SearchBatch(pool);
    if (read_lane != nullptr) {
      const uint64_t request = RequestId(c, i);
      read_lane->Record("api.Db.NewSession", t0, t1, parent, request);
      read_lane->Record("api.Session.SearchBatch", t1, NowNs(), parent,
                        request);
      if (batch.ok()) {
        read_lane->Count("api.delta_candidates_per_query",
                         static_cast<double>(batch->stats.candidates) / kBatch,
                         request);
      }
    }
    return OpResult{batch.ok() ? Outcome::kOk : Outcome::kFailed, kBatch};
  };
  WriterStats writes;
  const LoopResult loop =
      MeasureWindow(config, result, [&](double seconds, Tracer* tracer,
                                        bool timed) {
        const uint64_t epoch = db.epoch();
        Lane* writer_lane = LaneOf(tracer);
        std::optional<api::Writer> writer(
            Unwrap(db.NewWriter(), "Db::NewWriter"));
        WriterStats window_writes;
        std::thread writer_thread([&] {
          window_writes = DriveWriter(*writer, inserts, seconds,
                                      Stream(config.seed, 3), writer_lane);
          // Waits out an in-flight compaction and publishes it.
          writer.reset();
        });
        LoopResult reads =
            RunClosedLoop(kReaders, seconds, tracer, "perfbench.read", read,
                          timed);
        writer_thread.join();
        const int64_t compactions = static_cast<int64_t>(db.epoch() - epoch);
        std::fprintf(stderr, "churn window: %.1f s, %lld compactions\n",
                     seconds, static_cast<long long>(compactions));
        if (!timed) return reads;
        if (compactions < kMinCompactions) {
          result->Fail("only " + std::to_string(compactions) +
                       " compactions in the window; at least " +
                       std::to_string(kMinCompactions) +
                       " are needed to measure reads beside compaction");
        }
        if (tracer != nullptr) {
          lane->Count("api.compactions", static_cast<double>(compactions));
        }
        writes.Merge(std::move(window_writes));
        return reads;
      });
  ReportReads(loop, result);
  ReportWrites(writes, lane, result);

  // Quiesce, then the oracle: the database equals a cold Db::Open over its
  // own records, byte for byte on Save and pair for pair on a self-join.
  Require(Unwrap(db.NewWriter(), "Db::NewWriter").Compact(),
          "Writer::Compact");
  if (lane != nullptr) {
    CountCandidates(db, pool, "api.quiesced_candidates_per_query", lane);
  }
  std::vector<BitVector> survivors;
  for (int id = 0; id < db.num_records(); ++id) {
    survivors.push_back(
        std::get<BitVector>(Unwrap(db.RecordQuery(id), "Db::RecordQuery")));
  }
  const api::Dataset survivor_set(std::move(survivors));
  const api::Db cold = Unwrap(api::Db::Open(spec, survivor_set), "Db::Open");
  if (SavedBytes(config, db) != SavedBytes(config, cold)) {
    result->Fail("quiesced database saves differently from a cold rebuild");
  }
  if (Join(db) != Join(cold)) {
    result->Fail("quiesced database joins differently from a cold rebuild");
  }
  if (config.tracer != nullptr) {
    RunLayerProbes({&db, nullptr, &survivor_set, &pool, &config}, result);
  }
}

// hamming-shard: scatter-gather over 4 shards, where per-query work
// (postings, chain checks, verification) grows with shard size.
void RunHammingShard(const RunConfig& config, RunResult* result) {
  constexpr int kRecords = 30000;
  constexpr int kShards = 4;
  constexpr int kClients = 2;
  constexpr int kBatch = 64;
  constexpr int kRequests = 8;
  result->threads = 1;
  result->connections = kClients;
  Lane* lane = LaneOf(config.tracer);
  // Dense clusters of ~120 codes: a tau = 12 query has tens to hundreds
  // of candidates.
  const api::Dataset dataset(
      Codes(kRecords, 120, 0.8, Stream(config.seed, 1)));
  api::IndexSpec spec = HammingSpec(12);
  spec.allocation = hamming::AllocationMode::kUniform;
  api::IndexSpec sharded_spec = spec;
  sharded_spec.shards = kShards;
  const api::Db sharded =
      TimeSetup([&] { return OpenDb(sharded_spec, dataset, lane); }, result);
  const api::Db unsharded = Unwrap(api::Db::Open(spec, dataset), "Db::Open");

  // The requests and their S = 1 answers. A sharded answer must match in
  // ids and in every integral counter, which partition exactly over shards.
  std::vector<std::vector<api::Query>> requests;
  std::vector<api::BatchResult> reference;
  {
    api::Session session = unsharded.NewSession();
    for (int r = 0; r < kRequests; ++r) {
      requests.push_back(Queries(
          unsharded, SampleIds(kRecords, kBatch, Stream(config.seed, 10 + r))));
      reference.push_back(
          Unwrap(session.SearchBatch(requests.back()), "SearchBatch"));
    }
  }
  auto matches = [&](const api::BatchResult& got, int r) {
    const api::QueryStats& a = got.stats;
    const api::QueryStats& b = reference[r].stats;
    return got.ids == reference[r].ids && a.candidates == b.candidates &&
           a.results == b.results && a.index_hits == b.index_hits &&
           a.chain_checks == b.chain_checks;
  };
  // Warm-up: each client's session runs every request once.
  std::vector<api::Session> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(sharded.NewSession());
    for (int r = 0; r < kRequests; ++r) {
      auto batch = sessions.back().SearchBatch(requests[r]);
      if (!batch.ok() || !matches(*batch, r)) {
        result->Fail("warm-up sharded batch differs from the S = 1 batch");
      }
    }
  }

  const uint64_t epoch = sharded.epoch();
  auto search = [&](int c, int64_t i, Lane*, uint64_t) {
    const int r = static_cast<int>((i * kClients + c) % kRequests);
    auto batch = sessions[c].SearchBatch(requests[r]);
    if (!batch.ok()) return OpResult{Outcome::kFailed, kBatch};
    return OpResult{matches(*batch, r) ? Outcome::kOk : Outcome::kWrong,
                    kBatch};
  };
  const LoopResult loop =
      MeasureWindow(config, result, [&](double seconds, Tracer* tracer,
                                        bool timed) {
        return RunClosedLoop(kClients, seconds, tracer,
                             "api.Session.SearchBatch", search, timed);
      });
  ReportReads(loop, result);
  if (lane != nullptr) {
    lane->Count("api.compactions",
                static_cast<double>(sharded.epoch() - epoch));
  }

  if (Join(sharded) != Join(unsharded)) {
    result->Fail("sharded self-join differs from the S = 1 self-join");
  }
  if (config.tracer != nullptr) {
    RunLayerProbes({&unsharded, &sharded, &dataset, &requests[0], &config},
                   result);
    WriteProbe(config, sharded, requests[0], result);
  }
}

}  // namespace

std::vector<BitVector> Codes(int n, int members, double clustered,
                             uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = n;
  config.num_clusters = std::max(1, static_cast<int>(n * clustered / members));
  config.cluster_fraction = clustered;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

std::vector<std::string> Strings(int n, uint64_t seed) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 16;
  config.duplicate_fraction = 0.35;
  config.max_perturb_edits = 2;
  config.seed = seed;
  return datagen::GenerateStrings(config);
}

bool RunWorkload(const RunConfig& config, RunResult* result) {
  if (config.workload == "hamming-net") {
    RunHammingNet(config, result);
  } else if (config.workload == "strings-join") {
    RunStringsJoin(config, result);
  } else if (config.workload == "hamming-churn") {
    RunHammingChurn(config, result);
  } else if (config.workload == "hamming-shard") {
    RunHammingShard(config, result);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
