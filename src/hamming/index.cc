#include "hamming/index.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace pigeonring::hamming {

namespace {

// Counting sort of ids 0..N-1 by their `width`-bit keys into the dense
// form. Ids are placed in ascending order, so each bucket is id-ascending.
PartitionIndex::Postings BuildDense(const std::vector<uint64_t>& keys,
                                    int width) {
  PartitionIndex::Postings postings;
  const size_t num_keys = size_t{1} << width;
  postings.offsets.assign(num_keys + 1, 0);
  for (uint64_t key : keys) ++postings.offsets[key + 1];
  std::partial_sum(postings.offsets.begin(), postings.offsets.end(),
                   postings.offsets.begin());
  // offsets[key] serves as the bucket's fill cursor, which leaves it at the
  // bucket's end (the next bucket's start); shift back afterwards.
  postings.ids.resize(keys.size());
  for (size_t id = 0; id < keys.size(); ++id) {
    postings.ids[postings.offsets[keys[id]]++] = static_cast<int>(id);
  }
  for (size_t key = num_keys; key > 0; --key) {
    postings.offsets[key] = postings.offsets[key - 1];
  }
  postings.offsets[0] = 0;
  return postings;
}

// The sorted-key form: an LSD radix sort of the (key, id) pairs on
// 16-bit key digits, then a split into buckets. Each pass is stable and
// the ids start ascending, so ids stay ascending within a key.
PartitionIndex::Postings BuildSorted(std::vector<uint64_t> keys, int width) {
  constexpr int kDigitBits = 16;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<int> ids(keys.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<uint64_t> next_keys(keys.size());
  std::vector<int> next_ids(keys.size());
  std::vector<uint32_t> starts(kDigitMask + 1);
  for (int shift = 0; shift < width; shift += kDigitBits) {
    std::fill(starts.begin(), starts.end(), 0);
    for (uint64_t key : keys) ++starts[(key >> shift) & kDigitMask];
    std::exclusive_scan(starts.begin(), starts.end(), starts.begin(),
                        uint32_t{0});
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint32_t at = starts[(keys[i] >> shift) & kDigitMask]++;
      next_keys[at] = keys[i];
      next_ids[at] = ids[i];
    }
    keys.swap(next_keys);
    ids.swap(next_ids);
  }
  PartitionIndex::Postings postings;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) {
      postings.keys.push_back(keys[i]);
      postings.offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  postings.offsets.push_back(static_cast<uint32_t>(keys.size()));
  postings.ids = std::move(ids);
  return postings;
}

// Converts sorted-key postings of a part of width `width` <= kMaxDenseWidth
// to the dense form in place; the id array is kept as it is.
void Densify(int width, PartitionIndex::Postings& postings) {
  std::vector<uint32_t> offsets((size_t{1} << width) + 1, 0);
  for (size_t b = 0; b < postings.keys.size(); ++b) {
    const uint64_t key = postings.keys[b];
    PR_CHECK(key < (uint64_t{1} << width) &&
             (b == 0 || postings.keys[b - 1] < key));
    offsets[key + 1] = postings.offsets[b + 1] - postings.offsets[b];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  postings.keys = {};
  postings.offsets = std::move(offsets);
}

}  // namespace

PartitionIndex::PartitionIndex(const std::vector<BitVector>& objects,
                               Partition partition)
    : partition_(std::move(partition)),
      num_objects_(static_cast<int>(objects.size())),
      parts_(partition_.num_parts()) {
  for (const BitVector& object : objects) {
    PR_CHECK(object.dimensions() == partition_.dimensions());
  }
  std::vector<uint64_t> keys(objects.size());
  for (int p = 0; p < partition_.num_parts(); ++p) {
    const int begin = partition_.begin(p);
    const int end = partition_.end(p);
    for (size_t id = 0; id < objects.size(); ++id) {
      keys[id] = objects[id].ExtractBits(begin, end);
    }
    const int width = partition_.width(p);
    if (width <= kMaxDenseWidth) {
      parts_[p] = BuildDense(keys, width);
    } else {
      parts_[p] = BuildSorted(keys, width);
    }
  }
}

PartitionIndex PartitionIndex::FromSorted(Partition partition, int num_objects,
                                          std::vector<Postings> parts) {
  PR_CHECK(static_cast<int>(parts.size()) == partition.num_parts());
  for (int p = 0; p < partition.num_parts(); ++p) {
    Postings& postings = parts[p];
    PR_CHECK(postings.offsets.size() == postings.keys.size() + 1 &&
             postings.offsets.front() == 0 &&
             postings.offsets.back() == postings.ids.size() &&
             postings.ids.size() == static_cast<size_t>(num_objects));
    const int width = partition.width(p);
    if (width <= kMaxDenseWidth) Densify(width, postings);
  }
  return PartitionIndex(std::move(partition), num_objects, std::move(parts));
}

int64_t PartitionIndex::CountAtRadius(const BitVector& query, int part,
                                      int radius) const {
  PR_CHECK(part >= 0 && part < partition_.num_parts());
  const int width = partition_.width(part);
  if (radius > width) return 0;
  const uint64_t base =
      query.ExtractBits(partition_.begin(part), partition_.end(part));
  int64_t total = 0;
  ForEachKeyAtRadius(base, width, radius, [&](uint64_t key) {
    total += static_cast<int64_t>(Bucket(part, width, key).size());
  });
  return total;
}

}  // namespace pigeonring::hamming
