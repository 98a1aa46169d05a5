// Index splitting: project one fully built searcher onto S shards.
//
// Sharded execution (shard/scatter.h) must answer byte-identically to the
// unsharded searcher — ids, pairs, AND the integral QueryStats counters.
// Independent per-shard index builds would break that: the set / edit
// dictionaries, the Hamming cost-model thresholds, and the prefix schemes
// are all functions of the *whole* collection, so rebuilding them over a
// shard's records changes which postings exist and which candidates are
// generated. Splitting instead *projects* the already-built full index:
//
//  * every global artifact (token/gram dictionary, universe size, partition
//    bounds, thresholds, tau-derived parameters) is copied or shared from
//    the full build, unchanged;
//  * every per-record artifact (records, prefixes, profiles, postings,
//    partitions, histograms) is subsetted to the shard's records and
//    remapped to local ids 0..n_s-1 in ascending global order, which keeps
//    every posting list id-ascending (the order id-limited searches cut by
//    binary search, common/id_limit.h);
//  * the two allocation paths that read *index statistics* rather than
//    per-record state — hamming::AllocateThresholds under kCostModel /
//    kRadiusZero, including the per-case searchers inside the edit-distance
//    fast path — receive the full collection's PartitionIndex as their
//    alloc index (see HammingSearcher::FromBuilt), so every shard allocates
//    the exact probe schedule the unsharded searcher would.
//
// With that, each (query, record) decision is reproduced verbatim on the
// record's owner shard and nowhere else, so per-record counters partition
// exactly: summing shard stats with QueryStats::operator+= reproduces the
// unsharded counters. (The *_millis fields are wall-clock and excluded from
// identity, as everywhere else in the test suite.)
//
// Empty shards are dropped entirely (a search over zero records returns
// zero counters in every domain, so skipping them is also byte-identical);
// each returned ShardPart carries its shard's ascending global-id list.

#ifndef PIGEONRING_SHARD_SPLIT_H_
#define PIGEONRING_SHARD_SPLIT_H_

#include <memory>
#include <vector>

#include "engine/searcher.h"
#include "shard/partitioner.h"

namespace pigeonring::shard {

/// One shard's searcher plus the state that must outlive it. `backing`
/// keeps the shard's collection alive for adapters that view it through a
/// raw pointer (set / edit / graph); null for the self-contained Hamming
/// adapter.
template <typename Adapter>
struct ShardPart {
  std::vector<int> global_ids;  // local id l -> global id, ascending
  Adapter adapter;
  std::shared_ptr<const void> backing;
};

/// Splits `full` into the partitioner's nonempty shards, in ascending shard
/// order. Each shard adapter is `full.Rebind(...)` over the shard's
/// projected searcher, so it inherits full's threshold, chain length,
/// filter and allocation mode.
std::vector<ShardPart<engine::HammingAdapter>> Split(
    const engine::HammingAdapter& full, const Partitioner& partitioner);

std::vector<ShardPart<engine::SetAdapter>> Split(
    const engine::SetAdapter& full, const Partitioner& partitioner);

std::vector<ShardPart<engine::EditAdapter>> Split(
    const engine::EditAdapter& full, const Partitioner& partitioner);

std::vector<ShardPart<engine::EditFastAdapter>> Split(
    const engine::EditFastAdapter& full, const Partitioner& partitioner);

std::vector<ShardPart<engine::GraphAdapter>> Split(
    const engine::GraphAdapter& full, const Partitioner& partitioner);

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_SPLIT_H_
