// Shard placement: a sharded collection is S id ranges of the one index.
//
// The paper's filters decide every (query, record) pair on its own, and
// threshold allocation reads the statistics of the whole index, so a
// shard needs no index of its own. Shard s of N records owns the ids
// [lo_s, lo_{s+1}) with lo_s = s * floor(N / S) + min(s, N mod S): the
// ranges ascend, cover every id once, and have the sizes a round-robin
// deal would give them (they differ by at most one). Every search and
// join on shard s passes its range to the one adapter (common/id_limit.h),
// which cuts each posting list at the range's two ends.
//
// The ranges are a pure function of (N, S), so the persisted shard map
// (storage section kShardMap) holds only S.

#ifndef PIGEONRING_SHARD_PARTITIONER_H_
#define PIGEONRING_SHARD_PARTITIONER_H_

#include <optional>
#include <vector>

#include "common/id_limit.h"
#include "storage/bytes.h"

namespace pigeonring::shard {

/// The serving-time shard-count ceiling (api::IndexSpec::Validate enforces
/// it). Generous for one process; a follow-up putting net::Client behind
/// the coordinator's shard interface would revisit it.
inline constexpr int kMaxShards = 64;

/// The `shards` id ranges of a collection of `num_records` records, in
/// shard order. A range is empty when num_records < shards.
std::vector<IdRange> ShardRanges(int num_records, int shards);

/// Writes the kShardMap section of a database served at `shards` shards:
/// the placement mode (0) and the shard count, as two u32.
void EncodeShardMap(storage::ByteWriter& w, int shards);

/// The shard count of a kShardMap section; nullopt on malformed bytes
/// (truncated, a placement mode other than 0 or 1, a count outside
/// [2, kMaxShards], trailing bytes). Modes 0 and 1 are the round-robin and
/// hash placements of older files; both open as ranges.
std::optional<int> DecodeShardMap(storage::ByteReader& r);

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_PARTITIONER_H_
