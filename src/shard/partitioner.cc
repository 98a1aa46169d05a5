#include "shard/partitioner.h"

#include <algorithm>
#include <cstdint>

namespace pigeonring::shard {

std::vector<IdRange> ShardRanges(int num_records, int shards) {
  const int size = num_records / shards;
  const int larger = num_records % shards;  // shards holding size + 1
  std::vector<IdRange> ranges;
  ranges.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const int begin = s * size + std::min(s, larger);
    ranges.push_back({begin, begin + size + (s < larger ? 1 : 0)});
  }
  return ranges;
}

void EncodeShardMap(storage::ByteWriter& w, int shards) {
  w.U32(0);
  w.U32(static_cast<uint32_t>(shards));
}

std::optional<int> DecodeShardMap(storage::ByteReader& r) {
  const uint32_t mode = r.U32();
  const uint32_t shards = r.U32();
  if (!r.AtEnd() || mode > 1) return std::nullopt;
  if (shards < 2 || shards > static_cast<uint32_t>(kMaxShards)) {
    return std::nullopt;
  }
  return static_cast<int>(shards);
}

}  // namespace pigeonring::shard
