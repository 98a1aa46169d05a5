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
//   * corrupted magic;
//   * a missing path, and a directory in place of the index file.

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
// rejection explains itself.
void ExpectOpenFails(const DomainIndex& base, std::vector<uint8_t> image,
                     StatusCode code, const std::string& label) {
  SCOPED_TRACE(std::string(base.name) + ": " + label);
  const std::string path = ScratchPath("scratch.pgri");
  WriteFileBytes(path, image);
  auto db = Db::OpenIndex(base.spec, path);
  ASSERT_FALSE(db.ok()) << "corrupted image opened successfully";
  EXPECT_EQ(db.status().code(), code) << db.status().ToString();
  EXPECT_FALSE(db.status().message().empty());
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
