// Uniform counters and result types for the query engine.
//
// engine::QueryStats is the one per-query stats type: every domain searcher
// (hamming, setsim, editdist pivotal and fast path, graphed) fills it
// directly, and the engine drivers, api results, CLI and benches read the
// same struct, so batch drivers merge counters from any domain with one
// operator+=. Counters a domain does not track stay 0. This header depends
// on nothing but <cstdint>, so the domain modules can include it.

#ifndef PIGEONRING_ENGINE_QUERY_STATS_H_
#define PIGEONRING_ENGINE_QUERY_STATS_H_

#include <cstdint>

namespace pigeonring::engine {

/// Counters for one query (or, merged, for a batch of queries).
struct QueryStats {
  // Unique objects passing the filter. editdist pivotal: Cand-1, the
  // pivotal prefix filter survivors; editdist ring: the chain-check
  // survivors.
  int64_t candidates = 0;
  // editdist only. Pivotal: Cand-2, the alignment filter survivors; ring
  // and the fast path: equal to `candidates`.
  int64_t candidates_stage2 = 0;
  int64_t results = 0;           // objects within the threshold
  int64_t index_hits = 0;        // postings touched during filtering
  int64_t chain_checks = 0;      // hamming, edit fast path: chain checks
  int64_t subiso_tests = 0;      // graphed: subgraph-isomorphism calls
  // editdist fast path: unique records surviving the case-decomposition
  // Hamming filter (the banded-DP verification workload; equal to
  // `candidates`).
  int64_t fast_path_candidates = 0;
  // editdist fast path: signature rows passing the filter, counted before
  // deduplication by record.
  int64_t fast_path_hits = 0;
  // Filter phase. hamming: threshold allocation, probing and chain checks.
  double filter_millis = 0;
  // Verification phase. hamming: the final Hamming distance check.
  double verify_millis = 0;
  double total_millis = 0;

  QueryStats& operator+=(const QueryStats& other) {
    candidates += other.candidates;
    candidates_stage2 += other.candidates_stage2;
    results += other.results;
    index_hits += other.index_hits;
    chain_checks += other.chain_checks;
    subiso_tests += other.subiso_tests;
    fast_path_candidates += other.fast_path_candidates;
    fast_path_hits += other.fast_path_hits;
    filter_millis += other.filter_millis;
    verify_millis += other.verify_millis;
    total_millis += other.total_millis;
    return *this;
  }

  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

/// An unordered result pair (i < j).
struct IdPair {
  int first = 0;
  int second = 0;

  friend bool operator==(const IdPair&, const IdPair&) = default;
  friend auto operator<=>(const IdPair&, const IdPair&) = default;
};

/// Aggregate counters across a whole self-join.
struct JoinStats {
  /// Filter survivors summed over all probes, each probe's trivial
  /// self-match excluded — the same unit as QueryStats::candidates, so a
  /// join's candidate count is comparable with the sum of its constituent
  /// searches. (Before the engine existed this counter also included every
  /// probe's hit on itself, inflating it by exactly the collection size.)
  int64_t candidates = 0;
  int64_t pairs = 0;       // unique unordered result pairs
  double total_millis = 0; // wall-clock time of the whole join

  JoinStats& operator+=(const JoinStats& other) {
    candidates += other.candidates;
    pairs += other.pairs;
    total_millis += other.total_millis;
    return *this;
  }

  friend bool operator==(const JoinStats&, const JoinStats&) = default;
};

}  // namespace pigeonring::engine

#endif  // PIGEONRING_ENGINE_QUERY_STATS_H_
