// The sharded scatter-gather coordinator.
//
// A Fleet is the serving-time shape of one sharded collection: the
// nonempty id ranges of shard/partitioner.h, in ascending order, and one
// engine::Executor per range, so shards run their data-parallel loops on
// disjoint thread pools (a shared pool would serialize the per-shard
// loops, see common/thread_pool.h). There is no per-shard index: every
// shard searches the one prototype adapter (each caller holds one clone of
// it per range) with its range, and results come back in global ids.
//
// The scatter drivers mirror engine::SearchBatch's merge contract exactly,
// so the gathered answer is byte-identical to the unsharded one at any
// shard count and any thread count:
//
//  * ScatterSearchOne / ScatterSearchBatch: every shard searches the same
//    query within its range. Each domain returns ascending ids and the
//    ranges ascend, so concatenating the shard results in shard order
//    gives the unsharded result. Stats are summed in ascending shard order
//    with QueryStats::operator+=. Every (query, record) decision is made
//    once, on the range that holds the record, so the integral counters
//    partition exactly and the sums reproduce the unsharded counters.
//
// A self-join is not scattered: api::Db's sharded cursor runs
// engine::SelfJoin over the whole index on the caller's context. Each
// half-probe p already searches only [0, p), so a per-shard split of the
// probes only splits each probe's posting lists between shards, and each
// shard would repeat the probe's set-up (threshold allocation, key
// enumeration) on a fraction of the caller's threads.
//
// Concurrency: the batch driver Submits one job per shard and blocks on
// a latch. Each job drives ParallelFor on its own shard's pool,
// so jobs never contend for loop workers, and the coordinator thread —
// which may itself be a dispatcher of the full snapshot's executor — never
// waits on its own pool (no cycle, no deadlock). Jobs capture only
// stack-local state of the blocked caller.

#ifndef PIGEONRING_SHARD_SCATTER_H_
#define PIGEONRING_SHARD_SCATTER_H_

#include <cstddef>
#include <latch>
#include <memory>
#include <vector>

#include "common/id_limit.h"
#include "engine/engine.h"
#include "shard/partitioner.h"

namespace pigeonring::shard {

/// One sharded collection, ready to serve. Immutable after assembly and
/// shared between cursors behind shared_ptr<const Fleet>; the executors
/// are internally synchronized (the same const-DbState pattern the api
/// layer uses).
struct Fleet {
  struct Shard {
    IdRange range;
    std::unique_ptr<engine::Executor> executor;
  };

  std::vector<Shard> shards;  // nonempty ranges, ascending
};

/// The fleet of a collection of `num_records` records served at `shards`
/// shards. Empty ranges (num_records < shards) get no shard.
inline std::shared_ptr<const Fleet> MakeFleet(int num_records, int shards) {
  auto fleet = std::make_shared<Fleet>();
  for (const IdRange& range : ShardRanges(num_records, shards)) {
    if (range.begin == range.end) continue;
    fleet->shards.push_back({range, std::make_unique<engine::Executor>(1)});
  }
  return fleet;
}

/// Runs `job(s, context)` for every shard s, each as one job on its own
/// shard's executor, and blocks until all of them finished.
template <typename Job>
void ForEachShard(const Fleet& fleet, const engine::ExecutionOptions& options,
                  Job&& job) {
  std::latch done(static_cast<ptrdiff_t>(fleet.shards.size()));
  for (size_t s = 0; s < fleet.shards.size(); ++s) {
    fleet.shards[s].executor->Submit([&fleet, &options, &job, &done, s] {
      job(s, engine::ExecutionContext(*fleet.shards[s].executor, options));
      done.count_down();
    });
  }
  done.wait();
}

/// Sequential scatter for one query (single-query latency does not warrant
/// a fan-out; the per-shard loops already are the parallelism). `scratch`
/// holds one adapter per shard.
template <engine::Searcher S>
std::vector<int> ScatterSearchOne(const Fleet& fleet, std::vector<S>& scratch,
                                  const typename S::Query& query,
                                  engine::QueryStats* stats = nullptr) {
  engine::QueryStats merged;
  std::vector<int> ids;
  for (size_t s = 0; s < fleet.shards.size(); ++s) {
    engine::QueryStats shard_stats;
    const std::vector<int> found =
        scratch[s].Search(query, &shard_stats, fleet.shards[s].range);
    ids.insert(ids.end(), found.begin(), found.end());
    merged += shard_stats;
  }
  if (stats != nullptr) *stats = merged;
  return ids;
}

/// Scatters the whole batch to every shard (one job per shard executor),
/// gathers per query. Blocks until every shard has answered.
template <engine::Searcher S>
std::vector<std::vector<int>> ScatterSearchBatch(
    const Fleet& fleet, std::vector<S>& scratch,
    const std::vector<typename S::Query>& queries,
    const engine::ExecutionOptions& options,
    engine::QueryStats* stats = nullptr) {
  const size_t num_shards = fleet.shards.size();
  std::vector<std::vector<std::vector<int>>> shard_results(num_shards);
  std::vector<engine::QueryStats> shard_stats(num_shards);
  ForEachShard(fleet, options,
               [&](size_t s, const engine::ExecutionContext& context) {
                 shard_results[s] = engine::SearchBatch(
                     scratch[s], queries, context, &shard_stats[s],
                     fleet.shards[s].range);
               });

  std::vector<std::vector<int>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<int>& found = shard_results[s][q];
      results[q].insert(results[q].end(), found.begin(), found.end());
    }
  }
  if (stats != nullptr) {
    engine::QueryStats merged;
    for (const engine::QueryStats& p : shard_stats) merged += p;
    *stats = merged;
  }
  return results;
}

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_SCATTER_H_
