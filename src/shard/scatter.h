// The sharded scatter-gather coordinator (ROADMAP item 4).
//
// A Fleet is the serving-time shape of one sharded collection: the
// partitioner, one projected searcher per nonempty shard (see
// shard/split.h), and one engine::Executor per shard so shards run their
// data-parallel loops on disjoint thread pools (shard-per-core locality;
// a shared pool would serialize the per-shard loops, see
// common/thread_pool.h).
//
// The scatter drivers mirror engine/engine.h's merge contracts exactly, so
// the gathered answer is byte-identical to the unsharded one at any shard
// count and any thread count:
//
//  * ScatterSearchOne / ScatterSearchBatch: every shard searches the same
//    query; local hits are remapped through the shard's global-id list,
//    concatenated, and sorted (each domain returns sorted ids, so the
//    sorted union equals the unsharded sorted result). Stats are summed in
//    ascending shard order with the existing QueryStats::operator+= —
//    integral counters partition exactly across shards (split.h explains
//    why), so the sums reproduce the unsharded counters.
//  * ScatterSelfJoin: shard s answers the join tile "every probe g vs my
//    records with global id < g", the sharded form of engine::SelfJoin's
//    half-probe (Searcher::JoinProbe). Probes come from the *full*
//    collection (`full.query(g)`); each shard searches with the local id
//    limit lower_bound(global_ids, g), which is exact because a shard's
//    global ids ascend. So every pair (i, j), i < j, is examined exactly
//    once fleet-wide — probe j on i's owner shard — the bounded candidates
//    partition like any search's, and the concatenated pair buffers sort
//    into the same canonical order.
//
// Concurrency: the batch and join drivers Submit one job per shard and
// block on a latch. Each job drives ParallelFor on its own shard's pool,
// so jobs never contend for loop workers, and the coordinator thread —
// which may itself be a dispatcher of the full snapshot's executor — never
// waits on its own pool (no cycle, no deadlock). Jobs capture only
// stack-local state of the blocked caller.
//
// This header is deliberately narrow: the coordinator needs only
// (global_ids, Search, executor) per shard, so a follow-up can put a
// net::Client-backed remote shard behind the same shape for multi-node.

#ifndef PIGEONRING_SHARD_SCATTER_H_
#define PIGEONRING_SHARD_SCATTER_H_

#include <algorithm>
#include <latch>
#include <memory>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "engine/engine.h"
#include "shard/partitioner.h"
#include "shard/split.h"

namespace pigeonring::shard {

/// One sharded collection, ready to serve. Immutable after assembly and
/// shared between cursors behind shared_ptr<const Fleet>; the executors
/// are internally synchronized (the same const-DbState pattern the api
/// layer uses).
template <engine::Searcher S>
struct Fleet {
  struct Shard {
    std::vector<int> global_ids;  // local id -> global id, ascending
    S adapter;                    // prototype; cursors copy it for scratch
    std::shared_ptr<const void> backing;
    std::unique_ptr<engine::Executor> executor;
  };

  Partitioner partitioner;
  int num_records = 0;
  std::vector<Shard> shards;  // nonempty shards, ascending shard id
};

template <engine::Searcher S>
std::shared_ptr<const Fleet<S>> MakeFleet(const Partitioner& partitioner,
                                          int num_records,
                                          std::vector<ShardPart<S>> parts) {
  auto fleet = std::make_shared<Fleet<S>>();
  fleet->partitioner = partitioner;
  fleet->num_records = num_records;
  fleet->shards.reserve(parts.size());
  for (ShardPart<S>& part : parts) {
    fleet->shards.push_back({std::move(part.global_ids),
                             std::move(part.adapter), std::move(part.backing),
                             std::make_unique<engine::Executor>(1)});
  }
  return fleet;
}

/// Per-cursor copies of every shard adapter (Search mutates epoch-stamped
/// scratch, so cursors must not share the fleet's prototypes).
template <engine::Searcher S>
std::vector<S> CloneShardAdapters(const Fleet<S>& fleet) {
  std::vector<S> scratch;
  scratch.reserve(fleet.shards.size());
  for (const auto& shard : fleet.shards) scratch.push_back(shard.adapter);
  return scratch;
}

/// Sequential scatter for one query (single-query latency does not warrant
/// a fan-out; the per-shard loops already are the parallelism).
template <engine::Searcher S>
std::vector<int> ScatterSearchOne(const Fleet<S>& fleet,
                                  std::vector<S>& scratch,
                                  const typename S::Query& query,
                                  engine::QueryStats* stats = nullptr) {
  engine::QueryStats merged;
  std::vector<int> ids;
  for (size_t s = 0; s < fleet.shards.size(); ++s) {
    engine::QueryStats shard_stats;
    const std::vector<int> local = scratch[s].Search(query, &shard_stats);
    for (int l : local) {
      ids.push_back(fleet.shards[s].global_ids[static_cast<size_t>(l)]);
    }
    merged += shard_stats;
  }
  std::sort(ids.begin(), ids.end());
  if (stats != nullptr) *stats = merged;
  return ids;
}

/// Scatters the whole batch to every shard (one job per shard executor),
/// gathers per query. Blocks until every shard has answered.
template <engine::Searcher S>
std::vector<std::vector<int>> ScatterSearchBatch(
    const Fleet<S>& fleet, std::vector<S>& scratch,
    const std::vector<typename S::Query>& queries,
    const engine::ExecutionOptions& options,
    engine::QueryStats* stats = nullptr) {
  const size_t num_shards = fleet.shards.size();
  std::vector<std::vector<std::vector<int>>> shard_results(num_shards);
  std::vector<engine::QueryStats> shard_stats(num_shards);
  std::latch done(static_cast<ptrdiff_t>(num_shards));
  for (size_t s = 0; s < num_shards; ++s) {
    fleet.shards[s].executor->Submit([&, s] {
      shard_results[s] = engine::SearchBatch(
          scratch[s], queries,
          engine::ExecutionContext(*fleet.shards[s].executor, options),
          &shard_stats[s]);
      done.count_down();
    });
  }
  done.wait();

  std::vector<std::vector<int>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<int>& merged = results[q];
    for (size_t s = 0; s < num_shards; ++s) {
      for (int l : shard_results[s][q]) {
        merged.push_back(fleet.shards[s].global_ids[static_cast<size_t>(l)]);
      }
    }
    std::sort(merged.begin(), merged.end());
  }
  if (stats != nullptr) {
    engine::QueryStats merged;
    for (const engine::QueryStats& p : shard_stats) merged += p;
    *stats = merged;
  }
  return results;
}

/// Scatters the self-join as one "every probe vs my records below it" tile
/// per shard, gathers into the canonical sorted pair list. `full` supplies
/// the probe queries (the full collection's record g viewed as a query);
/// read-only and shared across shard jobs.
template <engine::Searcher S>
std::vector<engine::IdPair> ScatterSelfJoin(
    const Fleet<S>& fleet, const S& full, std::vector<S>& scratch,
    const engine::ExecutionOptions& options,
    engine::JoinStats* stats = nullptr) {
  StopWatch watch;
  const size_t num_shards = fleet.shards.size();
  const int64_t num_probes = fleet.num_records;
  std::vector<std::vector<engine::IdPair>> shard_pairs(num_shards);
  std::vector<engine::QueryStats> shard_stats(num_shards);
  std::latch done(static_cast<ptrdiff_t>(num_shards));
  for (size_t s = 0; s < num_shards; ++s) {
    fleet.shards[s].executor->Submit([&, s] {
      const engine::ExecutionContext context(*fleet.shards[s].executor,
                                             options);
      const std::vector<int>& global_ids = fleet.shards[s].global_ids;
      std::vector<S> clones;
      const auto searchers = engine::internal::CloneForThreads(
          scratch[s], clones, context.num_threads());
      std::vector<std::vector<engine::IdPair>> found(searchers.size());
      std::vector<engine::QueryStats> partial(searchers.size());
      context.pool().ParallelFor(
          num_probes, context.chunk(), context.num_threads(),
          [&](int thread, int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
              const int probe = static_cast<int>(i);
              // This shard's records below the probe are its local ids
              // below the first global id >= probe.
              const auto below = std::ranges::lower_bound(global_ids, probe);
              const int limit = static_cast<int>(below - global_ids.begin());
              engine::QueryStats query_stats;
              const auto local_ids = searchers[thread]->Search(
                  full.query(probe), &query_stats, limit);
              for (int l : local_ids) {
                const int id = global_ids[static_cast<size_t>(l)];
                found[thread].push_back({id, probe});
              }
              partial[thread] += query_stats;
            }
          });
      size_t total = 0;
      for (const auto& f : found) total += f.size();
      shard_pairs[s].reserve(total);
      for (const auto& f : found) {
        shard_pairs[s].insert(shard_pairs[s].end(), f.begin(), f.end());
      }
      engine::QueryStats merged;
      for (const engine::QueryStats& p : partial) merged += p;
      shard_stats[s] = merged;
      done.count_down();
    });
  }
  done.wait();

  size_t total = 0;
  for (const auto& p : shard_pairs) total += p.size();
  std::vector<engine::IdPair> pairs;
  pairs.reserve(total);
  for (const auto& p : shard_pairs) pairs.insert(pairs.end(), p.begin(), p.end());
  std::sort(pairs.begin(), pairs.end());

  if (stats != nullptr) {
    engine::QueryStats merged;
    for (const engine::QueryStats& p : shard_stats) merged += p;
    stats->candidates = merged.candidates;
    stats->pairs = static_cast<int64_t>(pairs.size());
    stats->total_millis = watch.ElapsedMillis();
  }
  return pairs;
}

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_SCATTER_H_
