// pigeonring_loadgen — load-generating client for `pigeonring_cli serve`.
//
// Usage:
//   pigeonring_loadgen --port P [--host H] [--connections N]
//       [--requests N] [--queries Q] [--seed S] [--stats kv]
//
// Connects `--connections` TCP clients (default 1) to a running
// pigeonring server, samples `--queries` query objects from the served
// dataset over the wire (the record op — the paper's
// queries-from-the-dataset protocol), then has every connection issue
// `--requests` single-query searches round-robin over that query pool,
// recording per-request latency into a common/histogram.h digest.
//
// Shed requests (the server's typed ResourceExhausted frames under
// admission control) are counted separately and do not fail the run —
// shedding is the server behaving as documented under overload. Any other
// error is fatal (exit 1). After the timed run, every connection re-issues
// the first query and all answers must be identical — connections are
// sessions over one snapshot, so a divergence is a server bug (exit 1).
//
// Output: a human-readable summary, or machine-readable key=value lines
// under --stats kv (qps counts completed requests only; shed replies are
// excluded from both the latency digest and the throughput numerator).
//
// Exit codes: 0 success; 1 typed Status error (connection refused, server
// error frame, cross-connection divergence); 2 usage error.

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/client.h"

#include "flag_parser.h"

namespace {

using namespace pigeonring;
using tools::Check;
using tools::Flags;
using tools::Unwrap;

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pigeonring_loadgen --port P [--host H] [--connections N]\n"
      "                     [--requests N] [--queries Q] [--seed S]\n"
      "                     [--stats kv]\n");
  std::exit(2);
}

/// One connection's timed workload: `requests` searches round-robin over
/// the shared query pool, latencies into `latency`, sheds counted but not
/// recorded. The first fatal error is stored and ends the loop.
struct WorkerResult {
  // Microseconds per completed request: the histogram's bucket 0 spans
  // [0, 1), so milliseconds would lump every sub-millisecond request
  // together. Printed in milliseconds.
  Histogram latency;
  long long completed = 0;
  long long shed = 0;
  std::optional<Status> fatal;
};

WorkerResult RunWorker(const std::string& host, int port,
                       const std::vector<api::Query>& queries,
                       long long requests) {
  WorkerResult out;
  auto client = net::Client::Connect(host, port);
  if (!client.ok()) {
    out.fatal = client.status();
    return out;
  }
  for (long long i = 0; i < requests; ++i) {
    const api::Query& query = queries[i % queries.size()];
    StopWatch watch;
    auto reply = client->Search(query);
    if (reply.ok()) {
      out.latency.Record(watch.ElapsedMillis() * 1000);
      ++out.completed;
    } else if (reply.status().code() == StatusCode::kResourceExhausted) {
      ++out.shed;
    } else {
      out.fatal = reply.status();
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const Flags flags(argc, argv, 1,
                    {"port", "host", "connections", "requests", "queries",
                     "seed", "stats"});
  const int port = static_cast<int>(flags.RequireInt("port"));
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "--port expects a port in [1, 65535], got %d\n",
                 port);
    return 2;
  }
  const std::string host = flags.Get("host", "127.0.0.1");
  const long long connections = flags.GetInt("connections", 1);
  const long long requests = flags.GetInt("requests", 100);
  const long long num_queries = flags.GetInt("queries", 16);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (connections < 1 || requests < 1 || num_queries < 1) {
    std::fprintf(stderr,
                 "--connections, --requests, and --queries all expect "
                 "counts >= 1\n");
    return 2;
  }
  const std::string stats_mode = flags.Get("stats", "");
  if (!stats_mode.empty() && stats_mode != "kv") {
    std::fprintf(stderr, "unknown --stats mode '%s' (supported: kv)\n",
                 stats_mode.c_str());
    return 2;
  }
  const bool stats_kv = stats_mode == "kv";

  // Control connection: sample the query pool from the served dataset.
  net::Client control = Unwrap(net::Client::Connect(host, port));
  const net::ServerStats before = Unwrap(control.Stats());
  if (before.num_records == 0) {
    std::fprintf(stderr, "error: server database is empty\n");
    return 1;
  }
  Rng rng(seed);
  std::vector<api::Query> queries;
  for (long long i = 0; i < num_queries; ++i) {
    const int id = static_cast<int>(rng.NextBounded(before.num_records));
    queries.push_back(Unwrap(control.RecordQuery(id)));
  }

  // Timed run: every connection works through its own socket + thread.
  StopWatch wall;
  std::vector<WorkerResult> results(connections);
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (long long c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        results[c] = RunWorker(host, port, queries, requests);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_millis = wall.ElapsedMillis();

  Histogram latency;
  long long completed = 0;
  long long shed = 0;
  for (const WorkerResult& result : results) {
    if (result.fatal.has_value()) Check(*result.fatal);
    latency.Merge(result.latency);
    completed += result.completed;
    shed += result.shed;
  }

  // Self-check: connections are sessions over one snapshot — the same
  // query must answer identically on every connection.
  std::vector<int> expected_ids;
  for (long long c = 0; c < connections; ++c) {
    net::Client probe = Unwrap(net::Client::Connect(host, port));
    auto reply = probe.Search(queries[0]);
    if (!reply.ok() &&
        reply.status().code() == StatusCode::kResourceExhausted) {
      continue;  // fully saturated server; nothing to compare
    }
    Check(reply.status());
    if (c == 0) {
      expected_ids = reply->ids;
    } else if (reply->ids != expected_ids) {
      std::fprintf(stderr,
                   "error: connection %lld answered differently from "
                   "connection 0 for the same query\n",
                   c);
      return 1;
    }
  }

  const double qps =
      wall_millis > 0 ? completed / (wall_millis / 1000.0) : 0.0;
  if (stats_kv) {
    std::printf("stat.connections=%lld\n", connections);
    std::printf("stat.requests_per_connection=%lld\n", requests);
    std::printf("stat.completed=%lld\n", completed);
    std::printf("stat.shed=%lld\n", shed);
    std::printf("stat.wall_millis=%.4f\n", wall_millis);
    std::printf("stat.qps=%.2f\n", qps);
    std::printf("stat.p50_millis=%.4f\n", latency.P50() / 1000);
    std::printf("stat.p99_millis=%.4f\n", latency.P99() / 1000);
  } else {
    std::printf(
        "%lld connections x %lld requests: %lld completed, %lld shed, "
        "%.1f ms wall\n",
        connections, requests, completed, shed, wall_millis);
    std::printf("qps=%.1f p50=%.3fms p99=%.3fms\n", qps,
                latency.P50() / 1000, latency.P99() / 1000);
  }
  return 0;
}
