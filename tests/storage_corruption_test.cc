// Corruption-injection tests for the persistent index format. Every
// hostile mutation of a valid index file must surface as the documented
// typed Status — kDataLoss for checksum/truncation/structural damage,
// kFailedPrecondition for version or spec mismatches, kInvalidArgument
// for non-index bytes — and must never crash or return partially loaded
// data (the suite runs under ASan/UBSan in CI).
//
// Mutations exercised, per domain:
//   * truncation at every section boundary (and a few interior offsets);
//   * a flipped byte inside every section payload;
//   * a zeroed TOC;
//   * a stale format version (header CRC repaired, so only the version
//     check can reject it);
//   * a mismatched spec fingerprint (header CRC repaired);
//   * out-of-range edit gram ranks and posting positions (all checksums
//     repaired, strings domain only);
//   * Hamming and fast-path postings the flat partition index cannot
//     accept: keys wider than their part, unordered keys or ids, and
//     parts holding more or fewer postings than rows (checksums repaired);
//   * a Save cut short by the file-size limit, which must leave the
//     previous index at the path;
//   * shard maps of an unknown placement mode, an out-of-range shard
//     count or with trailing bytes (Hamming only; modes 0 and 1 open);
//   * corrupted magic;
//   * a missing path, and a directory in place of the index file.

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "api_test_util.h"
#include "common/status.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "storage/crc32c.h"
#include "storage/index_file.h"

namespace pigeonring::api {
namespace {

// One valid saved index per domain, built once for the whole suite.
struct DomainIndex {
  const char* name;
  IndexSpec spec;
  std::vector<uint8_t> image;
};

std::vector<DomainIndex> BuildAllDomains() {
  std::vector<DomainIndex> indexes;

  {
    IndexSpec spec;
    spec.domain = Domain::kHamming;
    spec.tau = 6;
    spec.chain_length = 2;
    spec.num_parts = 8;
    datagen::BinaryVectorConfig config;
    config.dimensions = 64;
    config.num_objects = 80;
    config.num_clusters = 8;
    config.seed = 91;
    auto db =
        Db::Open(spec, Dataset(datagen::GenerateBinaryVectors(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    indexes.push_back({"hamming", spec, SavedBytes(*db, "base.pgri")});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kSet;
    spec.tau = 0.7;
    spec.chain_length = 2;
    datagen::TokenSetConfig config;
    config.num_records = 80;
    config.avg_tokens = 10;
    config.universe_size = 240;
    config.seed = 92;
    auto db = Db::Open(spec, Dataset(datagen::GenerateTokenSets(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    indexes.push_back({"sets", spec, SavedBytes(*db, "base.pgri")});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.kappa = 2;
    datagen::StringConfig config;
    config.num_records = 80;
    config.avg_length = 12;
    config.seed = 93;
    auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    indexes.push_back({"strings", spec, SavedBytes(*db, "base.pgri")});
  }
  {
    // The fixed-length fast path: its kEditFast* sections get the same
    // hostile-mutation coverage as every other domain's sections.
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 3;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOn;
    datagen::StringConfig config;
    config.num_records = 80;
    config.fixed_length = 10;
    config.seed = 95;
    auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    indexes.push_back({"strings_fast", spec, SavedBytes(*db, "base.pgri")});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kGraph;
    spec.tau = 1;
    spec.chain_length = 2;
    datagen::GraphConfig config;
    config.num_graphs = 40;
    config.avg_vertices = 7;
    config.avg_edges = 8;
    config.vertex_labels = 6;
    config.seed = 94;
    auto db = Db::Open(spec, Dataset(datagen::GenerateGraphs(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    indexes.push_back({"graphs", spec, SavedBytes(*db, "base.pgri")});
  }
  return indexes;
}

const std::vector<DomainIndex>& AllDomains() {
  static const std::vector<DomainIndex>* indexes =
      new std::vector<DomainIndex>(BuildAllDomains());
  return *indexes;
}

// Writes `image` to a scratch file and opens it via Db::OpenIndex,
// expecting the given error code. The message must be non-empty — every
// rejection explains itself — and contain `reason` when one is given.
void ExpectOpenFails(const DomainIndex& base, std::vector<uint8_t> image,
                     StatusCode code, const std::string& label,
                     const std::string& reason = "") {
  SCOPED_TRACE(std::string(base.name) + ": " + label);
  const std::string path = ScratchPath("scratch.pgri");
  WriteFileBytes(path, image);
  auto db = Db::OpenIndex(base.spec, path);
  ASSERT_FALSE(db.ok()) << "corrupted image opened successfully";
  EXPECT_EQ(db.status().code(), code) << db.status().ToString();
  EXPECT_FALSE(db.status().message().empty());
  EXPECT_NE(db.status().message().find(reason), std::string::npos)
      << db.status().ToString();
}

void PatchU32(std::vector<uint8_t>& image, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    image[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void PatchU64(std::vector<uint8_t>& image, size_t offset, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    image[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// Section boundaries of a valid image, via the reader's own TOC view.
std::vector<std::pair<storage::SectionId, std::pair<uint64_t, uint64_t>>>
SectionRangesOf(const std::vector<uint8_t>& image) {
  auto reader = storage::IndexFileReader::OpenFromBuffer(image);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader->SectionRanges();
}

uint64_t ReadU64(const std::vector<uint8_t>& image, size_t offset) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(image[offset + i]) << (8 * i);
  }
  return value;
}

// Re-checksums section `s` of an image whose payloads were edited in place
// (its TOC entry CRC), then the TOC CRC, then the header CRC — the file is
// "valid" down to the section decoders.
void RepairChecksums(
    std::vector<uint8_t>& image, size_t s,
    const std::vector<std::pair<storage::SectionId,
                                std::pair<uint64_t, uint64_t>>>& ranges) {
  const uint64_t toc = ReadU64(image, storage::kTocOffsetOffset);
  const auto& range = ranges[s].second;
  const uint32_t crc =
      storage::Crc32c(image.data() + range.first,
                      static_cast<size_t>(range.second - range.first));
  PatchU32(image, toc + s * storage::kTocEntrySize + 24, crc);
  const uint32_t toc_crc = storage::Crc32c(
      image.data() + toc, ranges.size() * storage::kTocEntrySize);
  PatchU32(image, storage::kTocCrcOffset, toc_crc);
  storage::RepairHeaderCrc(image);
}

TEST(StorageCorruptionTest, TruncationAtEverySectionBoundary) {
  for (const DomainIndex& base : AllDomains()) {
    const auto ranges = SectionRangesOf(base.image);
    ASSERT_FALSE(ranges.empty());
    // Every section start and end, plus the header boundary and a cut
    // mid-way into the first section's payload.
    std::vector<uint64_t> cuts = {storage::kHeaderSize,
                                  storage::kHeaderSize / 2};
    for (const auto& [id, range] : ranges) {
      cuts.push_back(range.first);
      cuts.push_back(range.second);
      cuts.push_back(range.first + (range.second - range.first) / 2);
    }
    for (uint64_t cut : cuts) {
      if (cut >= base.image.size()) continue;
      std::vector<uint8_t> truncated(base.image.begin(),
                                     base.image.begin() + cut);
      ExpectOpenFails(base, std::move(truncated), StatusCode::kDataLoss,
                      "truncated at " + std::to_string(cut));
    }
    // Trailing garbage (file longer than the header claims) is damage too.
    std::vector<uint8_t> padded = base.image;
    padded.resize(padded.size() + 17, 0xAB);
    ExpectOpenFails(base, std::move(padded), StatusCode::kDataLoss,
                    "trailing garbage");
  }
}

TEST(StorageCorruptionTest, FlippedByteInEverySection) {
  for (const DomainIndex& base : AllDomains()) {
    for (const auto& [id, range] : SectionRangesOf(base.image)) {
      if (range.second == range.first) continue;  // empty payload
      const uint64_t victim = range.first + (range.second - range.first) / 2;
      std::vector<uint8_t> flipped = base.image;
      flipped[victim] ^= 0x40;
      ExpectOpenFails(
          base, std::move(flipped), StatusCode::kDataLoss,
          "byte flip in section " +
              std::to_string(static_cast<uint32_t>(id)));
    }
  }
}

// A flipped payload byte whose section CRC has been "helpfully" repaired
// must still never crash: it reaches the section decoder, which either
// rejects the value (kDataLoss / kFailedPrecondition) or decodes a
// different-but-well-formed index. This drives the decoder validation
// paths the container checksums would otherwise shadow.
TEST(StorageCorruptionTest, RepairedCrcReachesDecoderValidation) {
  for (const DomainIndex& base : AllDomains()) {
    const auto ranges = SectionRangesOf(base.image);
    for (size_t s = 0; s < ranges.size(); ++s) {
      const auto& [id, range] = ranges[s];
      if (range.second == range.first) continue;
      for (uint64_t delta :
           {uint64_t{0}, (range.second - range.first) / 2}) {
        std::vector<uint8_t> image = base.image;
        image[range.first + delta] ^= 0xFF;
        RepairChecksums(image, s, ranges);

        SCOPED_TRACE(std::string(base.name) + ": decoder-level flip in " +
                     std::to_string(static_cast<uint32_t>(id)) + "+" +
                     std::to_string(delta));
        const std::string path = ScratchPath("scratch.pgri");
        WriteFileBytes(path, image);
        auto db = Db::OpenIndex(base.spec, path);
        if (!db.ok()) {
          EXPECT_TRUE(db.status().code() == StatusCode::kDataLoss ||
                      db.status().code() == StatusCode::kFailedPrecondition ||
                      db.status().code() == StatusCode::kInvalidArgument)
              << db.status().ToString();
          EXPECT_FALSE(db.status().message().empty());
        }
        // db.ok() is acceptable: some byte flips decode to a different but
        // structurally valid index. The invariant is "no crash, no abort".
      }
    }
  }
}

// The edit sections' ranks and positions index the searcher's flat
// arrays, so the decoder range-checks every one. Each crafted image edits a
// single i32 of a 40-record strings index (checksums repaired) and must be
// refused as kDataLoss.
TEST(StorageCorruptionTest, EditRanksAndPositionsAreValidated) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 2;
  spec.kappa = 2;
  datagen::StringConfig config;
  config.num_records = 40;
  config.avg_length = 10;
  config.seed = 101;
  auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const DomainIndex base{"strings40", spec, SavedBytes(*db, "base.pgri")};
  const auto ranges = SectionRangesOf(base.image);
  auto section_of = [&](storage::SectionId id) {
    for (size_t s = 0; s < ranges.size(); ++s) {
      if (ranges[s].first == id) return s;
    }
    ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
    return size_t{0};
  };
  auto read_i32 = [&](storage::SectionId id, size_t at) {
    const size_t start = ranges[section_of(id)].second.first + at;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(base.image[start + i]) << (8 * i);
    }
    return static_cast<int32_t>(value);
  };
  // Payload offsets. A posting section opens with a u64 list count, then
  // the first list's i32 rank and u64 length, then its first posting
  // (pivotal: i32 id, pivotal index, position; prefix: i32 id, position).
  // The dictionary opens with i32 kappa and a u64 entry count; each entry
  // is a u64 gram length, the kappa gram bytes and an i32 rank.
  constexpr size_t kFirstRank = 8;
  constexpr size_t kFirstPosting = 8 + 4 + 8;
  const size_t kappa = static_cast<size_t>(spec.kappa);
  const size_t first_dict_rank = 4 + 8 + 8 + kappa;
  const size_t dict_entry = 8 + kappa + 4;
  const int32_t dict_count = read_i32(storage::SectionId::kEditDictionary, 4);
  ASSERT_GT(dict_count, 1);
  struct Edit {
    const char* label;
    storage::SectionId section;
    size_t offset;
    int32_t value;
  };
  const std::vector<Edit> edits = {
      {"pivotal posting rank 0x7FFFFFF0",
       storage::SectionId::kEditPivotalIndex, kFirstRank, 0x7FFFFFF0},
      {"pivotal posting position INT_MIN + 1",
       storage::SectionId::kEditPivotalIndex, kFirstPosting + 8,
       INT32_MIN + 1},
      {"prefix posting rank -16", storage::SectionId::kEditPrefixIndex,
       kFirstRank, -16},
      {"prefix posting position 0x7FFFFF00",
       storage::SectionId::kEditPrefixIndex, kFirstPosting + 4, 0x7FFFFF00},
      {"negative dictionary rank", storage::SectionId::kEditDictionary,
       first_dict_rank, -1},
      {"dictionary rank = entry count", storage::SectionId::kEditDictionary,
       first_dict_rank, dict_count},
      {"repeated dictionary rank", storage::SectionId::kEditDictionary,
       first_dict_rank + dict_entry,
       read_i32(storage::SectionId::kEditDictionary, first_dict_rank)},
  };
  for (const Edit& edit : edits) {
    const size_t s = section_of(edit.section);
    std::vector<uint8_t> image = base.image;
    PatchU32(image, ranges[s].second.first + edit.offset,
             static_cast<uint32_t>(edit.value));
    RepairChecksums(image, s, ranges);
    ExpectOpenFails(base, std::move(image), StatusCode::kDataLoss,
                    edit.label);
  }
}

// The postings decoder feeds the flat partition index: a dense part reads
// its offset array at the bucket key, and every posting list must stay
// id-ascending. Each crafted image patches one field of the Hamming
// postings (8-bit parts) or of the fast path's first case (parts of over
// 40 bits), checksums repaired, and must be refused as kDataLoss naming
// the broken rule.
TEST(StorageCorruptionTest, HammingPostingsAreValidated) {
  struct Target {
    const char* domain;
    storage::SectionId postings;
    storage::SectionId bounds;
    size_t first_bound;  // payload offset of the partition's bounds[1]
    uint64_t rows;       // rows each part of the first dump indexes
  };
  // kHammingPartition: i32 dims, then the bounds as u64 count + i32s.
  // kEditFastMeta: u32 case count, then case 0's i32 indels, hamming tau
  // and dims before its bounds. Case 0 deletes nothing: one row a string.
  const Target targets[] = {
      {"hamming", storage::SectionId::kHammingPostings,
       storage::SectionId::kHammingPartition, 4 + 8 + 4, 80},
      {"strings_fast", storage::SectionId::kEditFastPostings,
       storage::SectionId::kEditFastMeta, 4 + 12 + 8 + 4, 80},
  };
  for (const Target& target : targets) {
    const DomainIndex* found = nullptr;
    for (const DomainIndex& d : AllDomains()) {
      if (std::string(d.name) == target.domain) found = &d;
    }
    ASSERT_NE(found, nullptr);
    const DomainIndex& base = *found;
    const auto ranges = SectionRangesOf(base.image);
    auto section_of = [&](storage::SectionId id) {
      for (size_t s = 0; s < ranges.size(); ++s) {
        if (ranges[s].first == id) return s;
      }
      ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
      return size_t{0};
    };
    const size_t section = section_of(target.postings);
    const size_t begin = ranges[section].second.first;
    auto read_u32 = [&](size_t at) {
      uint32_t value = 0;
      for (int i = 0; i < 4; ++i) {
        value |= static_cast<uint32_t>(base.image[at + i]) << (8 * i);
      }
      return value;
    };
    const size_t bounds = ranges[section_of(target.bounds)].second.first;
    const int width = static_cast<int>(read_u32(bounds + target.first_bound));
    ASSERT_GT(width, 0);
    ASSERT_LT(width, 64);

    // Walk the first dump: u32 part count, then per part a u64 bucket
    // count and per bucket a u64 key, a u64 id count and the i32 ids.
    struct Bucket {
      int part;
      size_t key_at;
      uint64_t count;
    };
    std::vector<Bucket> buckets;
    const uint32_t parts = read_u32(begin);
    size_t at = begin + 4;
    for (uint32_t p = 0; p < parts; ++p) {
      const uint64_t num_buckets = ReadU64(base.image, at);
      at += 8;
      for (uint64_t b = 0; b < num_buckets; ++b) {
        const uint64_t count = ReadU64(base.image, at + 8);
        buckets.push_back({static_cast<int>(p), at, count});
        at += 16 + 4 * count;
      }
    }
    ASSERT_GE(buckets.size(), 2u);
    ASSERT_EQ(buckets[1].part, 0);
    size_t last_of_part0 = 0;
    while (buckets[last_of_part0 + 1].part == 0) ++last_of_part0;
    size_t multi = 0;
    while (multi < buckets.size() && buckets[multi].count < 2) ++multi;
    ASSERT_LT(multi, buckets.size()) << "no bucket holds two ids";
    const size_t ids_at = buckets[multi].key_at + 16;

    auto expect_refused = [&](std::vector<uint8_t> image, const char* label,
                              const char* reason) {
      RepairChecksums(image, section, ranges);
      ExpectOpenFails(base, std::move(image), StatusCode::kDataLoss, label,
                      reason);
    };
    std::vector<uint8_t> image = base.image;
    PatchU64(image, buckets[last_of_part0].key_at, uint64_t{1} << width);
    expect_refused(image, "last key of part 0 at the part width",
                   "wider than its part");

    image = base.image;
    PatchU64(image, buckets[0].key_at, ReadU64(base.image, buckets[1].key_at));
    PatchU64(image, buckets[1].key_at, ReadU64(base.image, buckets[0].key_at));
    expect_refused(image, "first two keys of part 0 swapped",
                   "keys not strictly ascending");

    image = base.image;
    PatchU32(image, ids_at, read_u32(ids_at + 4));
    PatchU32(image, ids_at + 4, read_u32(ids_at));
    expect_refused(image, "first two ids of a bucket swapped",
                   "not ascending in a bucket");

    image = base.image;
    PatchU64(image, buckets[0].key_at + 8, target.rows + 1);
    expect_refused(image, "first bucket claims one id more than the rows",
                   "more postings than rows");

    image = base.image;
    PatchU64(image, buckets.back().key_at + 8, buckets.back().count - 1);
    expect_refused(image, "last bucket of the dump one id short",
                   "fewer postings than rows");
  }
}

// One id list of a section image: where its entries start and how many
// it holds.
struct ListAt {
  size_t at;
  uint64_t count;
};

// Walks the edit sections' keyed-list form from `at`: a u64 list count,
// then per list an i32 key, a u64 entry count and the entries. Leaves `at`
// just past the lists.
std::vector<ListAt> WalkKeyedLists(const std::vector<uint8_t>& image,
                                   size_t& at, size_t entry_bytes) {
  std::vector<ListAt> lists;
  const uint64_t num_lists = ReadU64(image, at);
  at += 8;
  for (uint64_t k = 0; k < num_lists; ++k) {
    const uint64_t count = ReadU64(image, at + 4);
    lists.push_back({at + 12, count});
    at += 12 + entry_bytes * count;
  }
  return lists;
}

// Swaps the `bytes`-byte entries at `a` and `b` of `image`.
void SwapEntries(std::vector<uint8_t>& image, size_t a, size_t b,
                 size_t bytes) {
  std::swap_ranges(image.begin() + a, image.begin() + a + bytes,
                   image.begin() + b);
}

uint32_t ReadU32(const std::vector<uint8_t>& image, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(image[offset + i]) << (8 * i);
  }
  return value;
}

// Searches cut every id list to an id range by binary search (a self-join
// probe reads only the ids below it), so the loader refuses a list whose
// ids are out of order: two entries swapped in a set inverted list, in an
// edit pivotal, prefix or length list, or in the edit short ids.
TEST(StorageCorruptionTest, PostingIdsAreOrdered) {
  // The strings index gets four strings too short for the gram scheme
  // (kappa * tau + 1 = 5 grams need length 4), so its short ids and its
  // length-1 list each hold two ids or more.
  DomainIndex strings;
  strings.name = "strings_with_short";
  strings.spec.domain = Domain::kEdit;
  strings.spec.tau = 2;
  strings.spec.chain_length = 2;
  strings.spec.kappa = 2;
  strings.spec.edit_fast_path = EditFastPath::kOff;
  {
    datagen::StringConfig config;
    config.num_records = 80;
    config.avg_length = 12;
    config.seed = 93;
    std::vector<std::string> data = datagen::GenerateStrings(config);
    for (const char* s : {"a", "bc", "ab", "c"}) data.push_back(s);
    auto db = Db::Open(strings.spec, Dataset(std::move(data)));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    strings.image = SavedBytes(*db, "short.pgri");
  }
  const DomainIndex* sets = nullptr;
  for (const DomainIndex& d : AllDomains()) {
    if (std::string(d.name) == "sets") sets = &d;
  }
  ASSERT_NE(sets, nullptr);

  auto expect_refused = [](const DomainIndex& base, storage::SectionId id,
                           const char* label, const char* reason,
                           auto&& mutate) {
    const auto ranges = SectionRangesOf(base.image);
    size_t section = ranges.size();
    for (size_t s = 0; s < ranges.size(); ++s) {
      if (ranges[s].first == id) section = s;
    }
    ASSERT_LT(section, ranges.size()) << static_cast<uint32_t>(id);
    std::vector<uint8_t> image = base.image;
    const size_t begin = static_cast<size_t>(ranges[section].second.first);
    ASSERT_TRUE(mutate(image, begin)) << label << ": no list to swap";
    RepairChecksums(image, section, ranges);
    ExpectOpenFails(base, std::move(image), StatusCode::kDataLoss, label,
                    reason);
  };
  // Swaps two adjacent entries of the first list whose ids differ there.
  auto swap_in_lists = [](std::vector<uint8_t>& image,
                          const std::vector<ListAt>& lists,
                          size_t entry_bytes) {
    for (const ListAt& list : lists) {
      for (uint64_t k = 0; k + 1 < list.count; ++k) {
        const size_t a = list.at + k * entry_bytes;
        const size_t b = a + entry_bytes;
        if (ReadU32(image, a) == ReadU32(image, b)) continue;
        SwapEntries(image, a, b, entry_bytes);
        return true;
      }
    }
    return false;
  };

  // kSetInverted: u32 list count, then one u64 count + i32 ids per rank.
  expect_refused(
      *sets, storage::SectionId::kSetInverted, "set inverted ids swapped",
      "posting ids not strictly ascending",
      [&](std::vector<uint8_t>& image, size_t begin) {
        std::vector<ListAt> lists;
        size_t at = begin + 4;
        for (uint32_t rank = 0; rank < ReadU32(image, begin); ++rank) {
          const uint64_t count = ReadU64(image, at);
          lists.push_back({at + 8, count});
          at += 8 + 4 * count;
        }
        return swap_in_lists(image, lists, 4);
      });
  // Pivotal postings are (id, pivotal index, position), prefix postings
  // (id, position); a swap keeps each entry valid and only breaks order.
  expect_refused(strings, storage::SectionId::kEditPivotalIndex,
                 "edit pivotal postings swapped", "list ids descend",
                 [&](std::vector<uint8_t>& image, size_t begin) {
                   return swap_in_lists(image,
                                        WalkKeyedLists(image, begin, 12), 12);
                 });
  expect_refused(strings, storage::SectionId::kEditPrefixIndex,
                 "edit prefix postings swapped", "list ids descend",
                 [&](std::vector<uint8_t>& image, size_t begin) {
                   return swap_in_lists(image,
                                        WalkKeyedLists(image, begin, 8), 8);
                 });
  // kEditLengths: the length lists, then the short ids as u64 count +
  // i32 ids.
  expect_refused(strings, storage::SectionId::kEditLengths,
                 "edit length ids swapped", "list ids not strictly ascending",
                 [&](std::vector<uint8_t>& image, size_t begin) {
                   return swap_in_lists(image,
                                        WalkKeyedLists(image, begin, 4), 4);
                 });
  expect_refused(strings, storage::SectionId::kEditLengths,
                 "edit short ids swapped", "short ids not strictly ascending",
                 [&](std::vector<uint8_t>& image, size_t begin) {
                   size_t at = begin;
                   WalkKeyedLists(image, at, 4);
                   return swap_in_lists(image, {{at + 8, ReadU64(image, at)}},
                                        4);
                 });
}

// A Save cut short must leave the index already at the path intact: with
// the file-size limit set at every 7th byte of the new image, each Save
// fails, leaves no temp file behind, and the path still opens as the old
// index with the old answers.
TEST(StorageCorruptionTest, InterruptedSaveKeepsThePreviousIndex) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 6;
  spec.chain_length = 2;
  spec.num_parts = 4;
  auto make = [&](int n, uint64_t seed) {
    datagen::BinaryVectorConfig config;
    config.dimensions = 64;
    config.num_objects = n;
    config.num_clusters = 6;
    config.seed = seed;
    auto db = Db::Open(spec, Dataset(datagen::GenerateBinaryVectors(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };
  const Db a = make(60, 111);
  const Db b = make(90, 112);
  // Every record's answer set: what tells A from B.
  auto answers = [](const Db& db) {
    Session session = db.NewSession();
    std::vector<std::vector<int>> all;
    for (int id = 0; id < db.num_records(); ++id) {
      auto query = db.RecordQuery(id);
      EXPECT_TRUE(query.ok()) << query.status().ToString();
      auto result = session.Search(*query);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      all.push_back(result.ok() ? result->ids : std::vector<int>{});
    }
    return all;
  };
  const auto a_answers = answers(a);
  const auto b_answers = answers(b);
  ASSERT_NE(a_answers, b_answers);

  const std::filesystem::path dir = ScratchPath("saves");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "index.pgri").string();
  ASSERT_TRUE(a.Save(path).ok());
  const std::vector<uint8_t> a_image = ReadFileBytes(path);
  const size_t b_size = SavedBytes(b, "b.pgri").size();
  ASSERT_GT(b_size, storage::kHeaderSize);

  auto entries = [&] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  };
  rlimit original{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &original), 0);
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  for (size_t limit = 0; limit < b_size; limit += 7) {
    SCOPED_TRACE("file size limit " + std::to_string(limit));
    rlimit capped = original;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status saved = b.Save(path);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &original), 0);
    EXPECT_FALSE(saved.ok());
    EXPECT_EQ(entries(), std::vector<std::string>{"index.pgri"});
    EXPECT_EQ(ReadFileBytes(path), a_image);
    auto reopened = Db::OpenIndex(spec, path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(answers(*reopened), a_answers);
  }
  std::signal(SIGXFSZ, previous_handler);

  ASSERT_TRUE(b.Save(path).ok());
  EXPECT_EQ(entries(), std::vector<std::string>{"index.pgri"});
  auto reopened = Db::OpenIndex(spec, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(answers(*reopened), b_answers);
}

TEST(StorageCorruptionTest, ZeroedToc) {
  for (const DomainIndex& base : AllDomains()) {
    const uint64_t toc = [&] {
      uint64_t value = 0;
      for (int i = 0; i < 8; ++i) {
        value |= static_cast<uint64_t>(
                     base.image[storage::kTocOffsetOffset + i])
                 << (8 * i);
      }
      return value;
    }();
    std::vector<uint8_t> image = base.image;
    for (size_t i = toc; i < image.size(); ++i) image[i] = 0;
    ExpectOpenFails(base, std::move(image), StatusCode::kDataLoss,
                    "zeroed TOC");
  }
}

// A sharded Save writes the kShardMap section as (placement mode 0, S).
// Files of older builds recorded round-robin (0) or hash (1) placement;
// both open with their S. Any other mode, an S outside [2, 64] and
// trailing bytes are kDataLoss (checksums repaired).
TEST(StorageCorruptionTest, ShardMapModesAndMalformedMaps) {
  const DomainIndex& base = AllDomains().front();  // hamming
  const std::string flat_path = ScratchPath("flat.pgri");
  WriteFileBytes(flat_path, base.image);
  IndexSpec sharded = base.spec;
  sharded.shards = 4;
  auto db = Db::OpenIndex(sharded, flat_path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<uint8_t> image = SavedBytes(*db, "sharded.pgri");
  const auto ranges = SectionRangesOf(image);
  size_t s = 0;
  while (s < ranges.size() &&
         ranges[s].first != storage::SectionId::kShardMap) {
    ++s;
  }
  ASSERT_LT(s, ranges.size()) << "a sharded Save writes a shard map";
  const uint64_t at = ranges[s].second.first;
  ASSERT_EQ(ranges[s].second.second - at, 8u);
  EXPECT_EQ(ReadU32(image, at), 0u);
  EXPECT_EQ(ReadU32(image, at + 4), 4u);
  const auto with = [&](uint32_t mode, uint32_t shards) {
    std::vector<uint8_t> patched = image;
    PatchU32(patched, at, mode);
    PatchU32(patched, at + 4, shards);
    RepairChecksums(patched, s, ranges);
    return patched;
  };

  for (uint32_t mode : {0u, 1u}) {
    SCOPED_TRACE("mode " + std::to_string(mode));
    const std::string path = ScratchPath("mode.pgri");
    WriteFileBytes(path, with(mode, 3));
    auto opened = Db::OpenIndex(base.spec, path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->spec().shards, 3);
    EXPECT_EQ(opened->ShardSizes().size(), 3u);
  }
  ExpectOpenFails(base, with(2, 4), StatusCode::kDataLoss, "mode 2",
                  "shard map");
  ExpectOpenFails(base, with(0, 1), StatusCode::kDataLoss, "1 shard",
                  "shard map");
  ExpectOpenFails(base, with(0, 65), StatusCode::kDataLoss, "65 shards",
                  "shard map");
  // Trailing bytes: the section takes in 4 bytes of its zero padding.
  std::vector<uint8_t> trailing = image;
  const uint64_t toc = ReadU64(image, storage::kTocOffsetOffset);
  PatchU64(trailing, toc + s * storage::kTocEntrySize + 16, 12);
  auto grown = ranges;
  grown[s].second.second += 4;
  RepairChecksums(trailing, s, grown);
  ExpectOpenFails(base, std::move(trailing), StatusCode::kDataLoss,
                  "trailing bytes", "shard map");
}

TEST(StorageCorruptionTest, StaleFormatVersion) {
  for (const DomainIndex& base : AllDomains()) {
    for (uint32_t version : {storage::kFormatVersion + 1, uint32_t{0},
                             uint32_t{0xDEADBEEF}}) {
      std::vector<uint8_t> image = base.image;
      PatchU32(image, storage::kVersionOffset, version);
      storage::RepairHeaderCrc(image);
      ExpectOpenFails(base, std::move(image),
                      StatusCode::kFailedPrecondition,
                      "format version " + std::to_string(version));
    }
  }
}

TEST(StorageCorruptionTest, MismatchedFingerprint) {
  for (const DomainIndex& base : AllDomains()) {
    std::vector<uint8_t> image = base.image;
    PatchU64(image, storage::kFingerprintOffset, 0x1234567890ABCDEFULL);
    storage::RepairHeaderCrc(image);
    ExpectOpenFails(base, std::move(image), StatusCode::kFailedPrecondition,
                    "tampered fingerprint");
  }
}

// Opening an index under a *different spec* (the honest version of the
// fingerprint mismatch) names the disagreeing build field.
TEST(StorageCorruptionTest, SpecMismatchIsNamed) {
  const DomainIndex& base = AllDomains().front();  // hamming, tau=6
  const std::string path = ScratchPath("spec.pgri");
  WriteFileBytes(path, base.image);

  IndexSpec wrong_tau = base.spec;
  wrong_tau.tau = 7;
  auto db = Db::OpenIndex(wrong_tau, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find("tau"), std::string::npos)
      << db.status().ToString();

  IndexSpec wrong_parts = base.spec;
  wrong_parts.num_parts = 4;
  db = Db::OpenIndex(wrong_parts, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find("num_parts"), std::string::npos)
      << db.status().ToString();

  IndexSpec wrong_domain = base.spec;
  wrong_domain.domain = Domain::kEdit;
  wrong_domain.tau = 2;
  db = Db::OpenIndex(wrong_domain, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StorageCorruptionTest, BadMagic) {
  const DomainIndex& base = AllDomains().front();
  std::vector<uint8_t> image = base.image;
  image[0] = 'X';
  ExpectOpenFails(base, std::move(image), StatusCode::kInvalidArgument,
                  "corrupted magic");

  // A short file that cannot even hold a header.
  ExpectOpenFails(base, {0x50, 0x47}, StatusCode::kInvalidArgument,
                  "two-byte file");
}

TEST(StorageCorruptionTest, MissingPath) {
  const DomainIndex& base = AllDomains().front();
  auto db = Db::OpenIndex(base.spec,
                          ScratchPath("does_not_exist") + "/nowhere.pgri");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound)
      << db.status().ToString();

  // A directory opens as a stream but has no file size: kInvalidArgument
  // naming the path, never an abort while sizing the read buffer.
  const std::string dir = ScratchPath("index_dir");
  std::filesystem::create_directories(dir);
  auto from_dir = Db::OpenIndex(base.spec, dir);
  ASSERT_FALSE(from_dir.ok());
  EXPECT_EQ(from_dir.status().code(), StatusCode::kInvalidArgument)
      << from_dir.status().ToString();
  EXPECT_NE(from_dir.status().message().find(dir), std::string::npos)
      << from_dir.status().ToString();
}

// A raw dataset handed to the strict index entry is kInvalidArgument (it
// has no index magic), while the sniffing Open falls back to the dataset
// loader and succeeds.
TEST(StorageCorruptionTest, RawDatasetIsNotAnIndex) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 1;
  const std::string path = ScratchPath("raw_strings.ds");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "alpha\nalbha\nbeta\n";
  }
  auto strict = Db::OpenIndex(spec, path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument)
      << strict.status().ToString();
  auto sniffed = Db::Open(spec, path);
  ASSERT_TRUE(sniffed.ok()) << sniffed.status().ToString();
  EXPECT_EQ(sniffed->num_records(), 3);
}

}  // namespace
}  // namespace pigeonring::api
