// The perfbench workloads (workloads.cc) and the per-layer metrics of a
// traced run (probes.cc).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "api/db.h"
#include "common.h"
#include "datagen/strings.h"
#include "net/protocol.h"

namespace perfbench {

// Independent input streams of one run seed.
inline uint64_t Stream(uint64_t seed, uint64_t stream) {
  return seed * 1000003 + stream;
}

inline pigeonring::api::RunOptions Threads(int n) {
  pigeonring::api::RunOptions options;
  options.num_threads = n;
  return options;
}

// Clustered 128-bit codes: about `members` codes per planted cluster,
// `clustered` of all codes drawn from clusters, the rest uniform.
std::vector<pigeonring::BitVector> Codes(int n, int members,
                                         double clustered, uint64_t seed);

// Variable-length strings of average length 16, 35% of them near
// duplicates (up to 2 edits) of another.
std::vector<std::string> Strings(int n, uint64_t seed);

// Records the server's accepted, shed and protocol-error counts.
void CountServerStats(const pigeonring::net::ServerStats& stats, Lane* lane);

// Runs the workload config.workload and fills `result`; false when no
// workload has that name.
bool RunWorkload(const RunConfig& config, RunResult* result);

// What a workload hands the layer probes after its timed window.
struct LayerContext {
  const pigeonring::api::Db* db = nullptr;       // unsharded
  const pigeonring::api::Db* sharded = nullptr;  // 4 shards, or null
  const pigeonring::api::Dataset* dataset = nullptr;  // db's records
  const std::vector<pigeonring::api::Query>* pool = nullptr;
  const RunConfig* config = nullptr;
};

// Calls, on the workload's own database and pool, every layer that the
// traced window left without spans.
void RunLayerProbes(const LayerContext& context, RunResult* result);

// Derives every per-layer metric from the trace into result->layer.
void DeriveLayerMetrics(const Tracer& tracer, RunResult* result);

// Prints the per-layer metrics with the end-to-end metric each moves.
void PrintLayerMetrics(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
