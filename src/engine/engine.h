// The unified query engine: batch and self-join drivers over any Searcher.
//
// Both drivers shard work over the ExecutionContext's pool: thread 0 runs
// on the caller's adapter in place, every extra thread gets its own clone
// (see searcher.h for why clones are race-free), so the sequential path
// copies nothing. Per-thread outputs merge deterministically:
//
//  * SearchBatch writes each query's result into its input slot, so the
//    output order is the input order regardless of scheduling.
//  * SelfJoin canonicalizes (sort + dedupe) the concatenated per-thread
//    pair buffers, so the result is byte-identical to the sequential
//    path's; merged counter sums are order-independent by construction.
//
// A loop width of 1 is the sequential reference path: no worker threads
// run and the loop executes inline on the caller.
//
// Both drivers borrow a persistent engine::Executor through the
// ExecutionContext and construct no ThreadPool: api::Db keeps one
// executor per opened snapshot, and a direct caller builds one Executor
// and reuses it across calls.

#ifndef PIGEONRING_ENGINE_ENGINE_H_
#define PIGEONRING_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "engine/executor.h"
#include "engine/query_stats.h"
#include "engine/searcher.h"

namespace pigeonring::engine {

namespace internal {

/// Thread 0's searcher is `prototype` itself; threads 1..n-1 get clones.
template <Searcher S>
std::vector<S*> CloneForThreads(S& prototype, std::vector<S>& clones,
                                int num_threads) {
  clones.reserve(static_cast<size_t>(num_threads) - 1);
  std::vector<S*> searchers = {&prototype};
  for (int thread = 1; thread < num_threads; ++thread) {
    clones.push_back(prototype);
    searchers.push_back(&clones.back());
  }
  return searchers;
}

}  // namespace internal

/// Runs every query through `prototype` (thread 0) or a clone of it and
/// returns the result ids per query, in input order. `stats`, if given,
/// receives the sum of the per-query counters (its *_millis fields are
/// summed per-query times, not wall-clock time).
template <Searcher S>
std::vector<std::vector<int>> SearchBatch(
    S& prototype, const std::vector<typename S::Query>& queries,
    const ExecutionContext& context, QueryStats* stats = nullptr) {
  std::vector<S> clones;
  const auto searchers =
      internal::CloneForThreads(prototype, clones, context.num_threads());
  std::vector<QueryStats> partial(searchers.size());
  std::vector<std::vector<int>> results(queries.size());
  context.pool().ParallelFor(
      static_cast<int64_t>(queries.size()), context.chunk(),
      context.num_threads(),
      [&](int thread, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          QueryStats query_stats;
          results[i] = searchers[thread]->Search(queries[i], &query_stats);
          partial[thread] += query_stats;
        }
      });
  if (stats != nullptr) {
    QueryStats merged;
    for (const QueryStats& p : partial) merged += p;
    *stats = merged;
  }
  return results;
}

/// Probes every record of `prototype`'s collection against the collection
/// itself and returns each unordered matching pair (i, j) with i < j
/// exactly once, sorted — the same canonical order at any loop width.
template <Searcher S>
std::vector<IdPair> SelfJoin(S& prototype, const ExecutionContext& context,
                             JoinStats* stats = nullptr) {
  StopWatch watch;
  std::vector<S> clones;
  const auto searchers =
      internal::CloneForThreads(prototype, clones, context.num_threads());
  std::vector<std::vector<IdPair>> found(searchers.size());
  std::vector<QueryStats> partial(searchers.size());
  context.pool().ParallelFor(
      static_cast<int64_t>(prototype.size()), context.chunk(),
      context.num_threads(),
      [&](int thread, int64_t begin, int64_t end) {
        S& searcher = *searchers[thread];
        for (int64_t i = begin; i < end; ++i) {
          const int probe = static_cast<int>(i);
          QueryStats query_stats;
          const auto ids = searcher.Search(searcher.query(probe), &query_stats);
          for (int id : ids) {
            if (id == probe) {
              // The probe always passes its own filter (distance 0); drop
              // that trivial self-candidate from the join's counters.
              --query_stats.candidates;
              continue;
            }
            found[thread].push_back(
                {std::min(probe, id), std::max(probe, id)});
          }
          partial[thread] += query_stats;
        }
      });

  size_t total = 0;
  for (const auto& f : found) total += f.size();
  std::vector<IdPair> pairs;
  pairs.reserve(total);
  for (const auto& f : found) pairs.insert(pairs.end(), f.begin(), f.end());
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  if (stats != nullptr) {
    QueryStats merged;
    for (const QueryStats& p : partial) merged += p;
    stats->candidates = merged.candidates;
    stats->pairs = static_cast<int64_t>(pairs.size());
    stats->total_millis = watch.ElapsedMillis();
  }
  return pairs;
}

}  // namespace pigeonring::engine

#endif  // PIGEONRING_ENGINE_ENGINE_H_
