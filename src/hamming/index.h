// Per-part inverted index for Hamming distance search (the GPH index,
// §6.1/§7).
//
// Each part of the partition keeps its postings in one flat CSR
// (compressed sparse row) layout: a single array of object ids grouped by
// the part's bit pattern (the bucket key), keys ascending and ids ascending
// within a bucket, plus an offset array that locates each bucket.
//
//   * A part of width w <= kMaxDenseWidth (16) is addressed directly: its
//     offset array has 2^w + 1 uint32 entries, so bucket `key` is
//     ids[offsets[key], offsets[key + 1]) and its size is one subtraction.
//     That costs 4 * (2^w + 1) bytes per part whatever the collection size
//     (256 KB at w = 16, 2 MB for 128-bit codes in 8 parts).
//   * A wider part (the edit fast path's 18- to 64-bit parts) keeps its
//     non-empty keys sorted beside the offsets and finds a bucket by binary
//     search.
//
// The form follows from the part width alone. A query probes part i by
// enumerating all patterns within t_i bit flips of the query's pattern
// (ordered by exact flip count, so the exact per-part distance of each hit
// is known for free): a radius-0 probe or count is one bucket lookup, a
// radius-1 probe or count w lookups. This is the same index the pigeonhole
// baseline (GPH) uses; the pigeonring upgrade only adds the chain check on
// top (§7).

#ifndef PIGEONRING_HAMMING_INDEX_H_
#define PIGEONRING_HAMMING_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/id_limit.h"
#include "common/logging.h"
#include "hamming/partition.h"

namespace pigeonring::hamming {

namespace internal {

// Visits `current` with every combination of `remaining` flip positions
// chosen from [next_bit, width) applied, positions in lexicographic order.
template <typename Fn>
void EnumerateFlips(uint64_t current, int width, int next_bit, int remaining,
                    Fn& fn) {
  if (remaining == 0) {
    fn(current);
    return;
  }
  // Prune: not enough bits left to place the remaining flips.
  for (int b = next_bit; b <= width - remaining; ++b) {
    EnumerateFlips(current ^ (uint64_t{1} << b), width, b + 1, remaining - 1,
                   fn);
  }
}

}  // namespace internal

/// Enumerates every `width`-bit pattern at Hamming distance exactly `radius`
/// from `base`, invoking `fn(pattern)` for each. Patterns are visited in a
/// deterministic order: the flip positions run through their combinations
/// in lexicographic order. Requires 0 <= radius <= width <= 64.
template <typename Fn>
void ForEachKeyAtRadius(uint64_t base, int width, int radius, Fn&& fn) {
  PR_CHECK(0 <= radius && radius <= width && width <= 64);
  internal::EnumerateFlips(base, width, 0, radius, fn);
}

/// The per-part inverted index.
class PartitionIndex {
 public:
  /// Widest part addressed through a dense offset array.
  static constexpr int kMaxDenseWidth = 16;

  /// One part's postings in CSR form. `ids` holds every posting, grouped
  /// by bucket in ascending key order, ids ascending within a bucket.
  ///   * Sorted-key form (what index files store, and what parts wider
  ///     than kMaxDenseWidth keep): bucket b has key keys[b] (strictly
  ///     ascending) and ids [offsets[b], offsets[b + 1]).
  ///   * Dense form (parts of width w <= kMaxDenseWidth): `keys` is empty
  ///     and bucket `key` is ids [offsets[key], offsets[key + 1]) for every
  ///     key in [0, 2^w).
  struct Postings {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> offsets;
    std::vector<int> ids;
  };

  /// Indexes `objects` (which must all have `partition.dimensions()`
  /// dimensions) under `partition`: a counting sort per dense part, a
  /// radix sort on 16-bit key digits per wider part.
  PartitionIndex(const std::vector<BitVector>& objects,
                 Partition partition);

  /// Reassembles an index from postings in sorted-key form (the storage
  /// layer's bulk-load path), one per part, each holding every one of the
  /// `num_objects` ids exactly once under keys that fit the part's width.
  /// Parts no wider than kMaxDenseWidth are converted to the dense form;
  /// the id arrays are adopted as they are.
  static PartitionIndex FromSorted(Partition partition, int num_objects,
                                   std::vector<Postings> parts);

  const Partition& partition() const { return partition_; }
  int num_objects() const { return num_objects_; }

  /// Invokes `fn(key, ids)` for every non-empty bucket of part `part` in
  /// ascending key order, `ids` a std::span<const int> in ascending order —
  /// the deterministic dump the storage layer serializes.
  template <typename Fn>
  void ForEachBucketSorted(int part, Fn&& fn) const {
    PR_CHECK(part >= 0 && part < partition_.num_parts());
    const Postings& postings = parts_[part];
    const bool dense = partition_.width(part) <= kMaxDenseWidth;
    for (size_t b = 0; b + 1 < postings.offsets.size(); ++b) {
      const std::span<const int> ids = Slice(postings, b);
      if (ids.empty()) continue;
      fn(dense ? static_cast<uint64_t>(b) : postings.keys[b], ids);
    }
  }

  /// Invokes `fn(id, distance)` for every object with id in `range`
  /// whose part-`part` pattern is at Hamming distance exactly `radius` from
  /// the query's pattern, keys in ForEachKeyAtRadius order and ids
  /// ascending within a key. Each bucket is cut once (CutToIdRange).
  template <typename Fn>
  void ProbeAtRadius(const BitVector& query, int part, int radius, Fn&& fn,
                     IdRange range = {}) const {
    PR_CHECK(part >= 0 && part < partition_.num_parts());
    const int width = partition_.width(part);
    if (radius > width) return;
    const uint64_t base =
        query.ExtractBits(partition_.begin(part), partition_.end(part));
    ForEachKeyAtRadius(base, width, radius, [&](uint64_t key) {
      for (int id : CutToIdRange(Bucket(part, width, key), range)) {
        fn(id, radius);
      }
    });
  }

  /// Returns the total number of postings whose part-`part` pattern is at
  /// distance exactly `radius` from the query's (the marginal cost of
  /// raising this part's threshold from radius-1 to radius). Used by the
  /// threshold allocators.
  int64_t CountAtRadius(const BitVector& query, int part, int radius) const;

 private:
  PartitionIndex(Partition partition, int num_objects,
                 std::vector<Postings> parts)
      : partition_(std::move(partition)),
        num_objects_(num_objects),
        parts_(std::move(parts)) {}

  // The ids of bucket slot `b` (a key in the dense form, a position in
  // `keys` in the sorted form).
  static std::span<const int> Slice(const Postings& postings, size_t b) {
    const uint32_t begin = postings.offsets[b];
    return {postings.ids.data() + begin, postings.offsets[b + 1] - begin};
  }

  // The ids under `key` in part `part` of width `width`; empty if none.
  std::span<const int> Bucket(int part, int width, uint64_t key) const {
    const Postings& postings = parts_[part];
    if (width <= kMaxDenseWidth) return Slice(postings, key);
    const std::vector<uint64_t>& keys = postings.keys;
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return {};
    return Slice(postings, static_cast<size_t>(it - keys.begin()));
  }

  Partition partition_;
  int num_objects_;
  std::vector<Postings> parts_;  // one CSR layout per part
};

}  // namespace pigeonring::hamming

#endif  // PIGEONRING_HAMMING_INDEX_H_
