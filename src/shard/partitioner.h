// shard::Partitioner — the id ↔ (shard, local id) mapping of a sharded
// collection.
//
// The sharded executor (see shard/scatter.h and docs/ARCHITECTURE.md
// "Sharded execution") partitions a collection of N records into S
// disjoint shards. Every shard builds its searcher over its own records
// renumbered 0..n_s-1 (local ids), and the coordinator remaps each
// shard's hits back to the canonical global ids before merging — so the
// sharded answer is byte-identical to the unsharded one.
//
// Two placement modes:
//   * kRoundRobin — global id g lives on shard g % S as local id g / S.
//     Deterministic, perfectly balanced (shard sizes differ by at most
//     one), and order-preserving within a shard: local ids ascend with
//     global ids, which keeps per-shard posting lists id-ascending when
//     they are filtered out of the full index (the invariant every
//     domain's FromSorted/FromBuilt path relies on).
//   * kHash — global id g lives on shard SplitMix64(g) % S. Same
//     properties except balance is only statistical; kept for data sets
//     where round-robin would correlate with record order. The api layer
//     fixes kRoundRobin; kHash is exercised by shard_test.
//
// Both modes are pure functions of (mode, shards), so the persisted
// shard map is just those two integers (storage section kShardMap).
// Within one shard, local ids ascend with global ids in both modes,
// because Partition() assigns local ids in global-id order.

#ifndef PIGEONRING_SHARD_PARTITIONER_H_
#define PIGEONRING_SHARD_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "storage/bytes.h"

namespace pigeonring::shard {

enum class PlacementMode : uint32_t {
  kRoundRobin = 0,
  kHash = 1,
};

/// The serving-time shard-count ceiling (api::IndexSpec::Validate enforces
/// it). Generous for one process; a follow-up putting net::Client behind
/// the coordinator's shard interface would revisit it.
inline constexpr int kMaxShards = 64;

class Partitioner {
 public:
  Partitioner() = default;
  Partitioner(PlacementMode mode, int shards) : mode_(mode), shards_(shards) {}

  PlacementMode mode() const { return mode_; }
  int shards() const { return shards_; }

  /// The shard owning global id `g`.
  int ShardOf(int g) const {
    if (mode_ == PlacementMode::kRoundRobin) return g % shards_;
    return static_cast<int>(Mix(static_cast<uint64_t>(g)) %
                            static_cast<uint64_t>(shards_));
  }

  /// Per-shard global-id lists for a collection of `num_records` records,
  /// in ascending global-id order (so local id l on shard s is
  /// `result[s][l]`). This is the one canonical enumeration: every split
  /// and every remap derives from it.
  std::vector<std::vector<int>> Partition(int num_records) const;

  /// Serialized form for the storage layer's kShardMap section.
  void Encode(storage::ByteWriter& w) const;
  /// False on malformed bytes (undecodable, unknown mode, shards out of
  /// [2, kMaxShards]).
  bool Decode(storage::ByteReader& r);

  friend bool operator==(const Partitioner&, const Partitioner&) = default;

 private:
  static uint64_t Mix(uint64_t x) {
    // SplitMix64 finalizer: a fixed, platform-independent scramble so
    // kHash placement is stable across builds.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  PlacementMode mode_ = PlacementMode::kRoundRobin;
  int shards_ = 1;
};

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_PARTITIONER_H_
