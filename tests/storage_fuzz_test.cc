// Deterministic structure-aware fuzz smoke for the index loader, run as a
// plain CTest (bounded iterations, fixed seeds — every failure replays).
// The contract under test is the storage layer's hostile-input guarantee:
// for ANY byte string, IndexFileReader::OpenFromBuffer and Db::OpenIndex
// return a typed Status or a valid Db — never a crash, abort, hang, or
// unbounded allocation. ASan/UBSan in CI turn latent memory errors on
// these paths into failures.
//
// Three mutator families, from dumbest to most format-aware:
//   * random garbage buffers (header/magic parsing);
//   * byte flips / truncations / extensions of a valid image (container
//     checksum + geometry validation);
//   * "repaired" mutations that recompute section, TOC, and header CRCs
//     after each edit, so the payload reaches the section decoders (the
//     allocation guards and range checks in storage/index_io.cc); every
//     edit-domain image that still opens is then searched and self-joined.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "api_test_util.h"
#include "common/random.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "storage/crc32c.h"
#include "storage/index_file.h"

namespace pigeonring::api {
namespace {

// Every open must settle to ok or a typed error; nothing else to assert —
// the sanitizers and the process surviving are the test. Returns the open
// result for callers that go on to query what was let through.
StatusOr<Db> ExpectSettles(const IndexSpec& spec,
                           const std::vector<uint8_t>& image) {
  auto reader = storage::IndexFileReader::OpenFromBuffer(image);
  if (!reader.ok()) {
    EXPECT_FALSE(reader.status().message().empty());
  }
  const std::string path = ScratchPath("scratch.pgri");
  WriteFileBytes(path, image);
  auto db = Db::OpenIndex(spec, path);
  if (!db.ok()) {
    EXPECT_FALSE(db.status().message().empty());
  }
  return db;
}

// An accepted-but-mutated index must also survive being searched: every
// record as a query, then one self-join. The answers may differ from the
// unmutated index's; each call must still settle to a result or a typed
// error.
void SearchEverything(const Db& db) {
  Session session = db.NewSession();
  for (int id = 0; id < session.num_records(); ++id) {
    auto query = session.RecordQuery(id);
    if (!query.ok()) {
      EXPECT_FALSE(query.status().message().empty());
      continue;
    }
    auto found = session.Search(*query);
    if (!found.ok()) EXPECT_FALSE(found.status().message().empty());
  }
  auto joined = session.SelfJoin();
  if (!joined.ok()) EXPECT_FALSE(joined.status().message().empty());
}

std::vector<uint8_t> BaseImage(IndexSpec& spec_out) {
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
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  spec_out = spec;
  return SavedBytes(*db, "base.pgri");
}

TEST(StorageFuzzTest, RandomGarbageNeverCrashesTheParser) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.kappa = 2;
  Rng rng(0xF00DF00D);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> garbage(rng.NextBounded(512));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    // Half the time, lead with the real magic so parsing goes deeper than
    // the magic check.
    if (iter % 2 == 0 && garbage.size() >= sizeof(storage::kMagic)) {
      for (size_t i = 0; i < sizeof(storage::kMagic); ++i) {
        garbage[i] = storage::kMagic[i];
      }
    }
    ExpectSettles(spec, garbage);
  }
}

TEST(StorageFuzzTest, MutatedImagesNeverCrashTheContainer) {
  IndexSpec spec;
  const std::vector<uint8_t> base = BaseImage(spec);
  Rng rng(0xB16B00B5);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> image = base;
    switch (rng.NextBounded(4)) {
      case 0: {  // flip 1..8 random bytes anywhere
        const int flips = 1 + static_cast<int>(rng.NextBounded(8));
        for (int f = 0; f < flips; ++f) {
          image[rng.NextBounded(image.size())] ^=
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
        break;
      }
      case 1:  // truncate at a random offset
        image.resize(rng.NextBounded(image.size() + 1));
        break;
      case 2:  // extend with random tail bytes
        for (uint64_t n = rng.NextBounded(128); n > 0; --n) {
          image.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
        }
        break;
      default: {  // splice a random window to a random destination
        if (image.size() > storage::kHeaderSize) {
          const size_t src = rng.NextBounded(image.size());
          const size_t dst = rng.NextBounded(image.size());
          const size_t len =
              rng.NextBounded(std::min<size_t>(64, image.size()));
          for (size_t i = 0; i + std::max(src, dst) < image.size() &&
                             i < len;
               ++i) {
            image[dst + i] = base[src + i];
          }
        }
        break;
      }
    }
    ExpectSettles(spec, image);
  }
}

// Format-aware mutations: corrupt header fields or section payloads, then
// recompute every checksum on the way out so validation cannot stop at
// the container layer — the mutated bytes reach the TOC parser and the
// section decoders.
TEST(StorageFuzzTest, RepairedMutationsReachTheDecoders) {
  IndexSpec spec;
  const std::vector<uint8_t> base = BaseImage(spec);
  auto base_reader = storage::IndexFileReader::OpenFromBuffer(base);
  ASSERT_TRUE(base_reader.ok()) << base_reader.status().ToString();
  const auto ranges = base_reader->SectionRanges();
  ASSERT_FALSE(ranges.empty());

  auto read_u64 = [](const std::vector<uint8_t>& image, size_t offset) {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(image[offset + i]) << (8 * i);
    }
    return value;
  };
  const uint64_t toc = read_u64(base, storage::kTocOffsetOffset);

  auto repair = [&](std::vector<uint8_t>& image) {
    // Recompute every section CRC in the TOC, the TOC CRC, and the header
    // CRC, reading geometry from the (possibly mutated) TOC itself so the
    // repairs track the mutation instead of undoing it.
    for (size_t s = 0; s < ranges.size(); ++s) {
      const size_t entry =
          static_cast<size_t>(toc) + s * storage::kTocEntrySize;
      if (entry + storage::kTocEntrySize > image.size()) break;
      const uint64_t offset = read_u64(image, entry + 8);
      const uint64_t length = read_u64(image, entry + 16);
      if (offset <= image.size() && length <= image.size() - offset) {
        const uint32_t crc = storage::Crc32c(image.data() + offset,
                                             static_cast<size_t>(length));
        for (int i = 0; i < 4; ++i) {
          image[entry + 24 + i] = static_cast<uint8_t>(crc >> (8 * i));
        }
      }
    }
    if (toc + ranges.size() * storage::kTocEntrySize <= image.size()) {
      const uint32_t toc_crc =
          storage::Crc32c(image.data() + toc,
                          ranges.size() * storage::kTocEntrySize);
      for (int i = 0; i < 4; ++i) {
        image[storage::kTocCrcOffset + i] =
            static_cast<uint8_t>(toc_crc >> (8 * i));
      }
    }
    storage::RepairHeaderCrc(image);
  };

  Rng rng(0xCAFED00D);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> image = base;
    switch (rng.NextBounded(3)) {
      case 0: {  // scribble over a random section payload
        const auto& [id, range] =
            ranges[rng.NextBounded(ranges.size())];
        if (range.second > range.first) {
          const int edits = 1 + static_cast<int>(rng.NextBounded(16));
          for (int e = 0; e < edits; ++e) {
            const uint64_t at =
                range.first + rng.NextBounded(range.second - range.first);
            image[at] = static_cast<uint8_t>(rng.NextBounded(256));
          }
        }
        break;
      }
      case 1: {  // rewrite a TOC entry's id/offset/length fields
        const size_t entry =
            static_cast<size_t>(toc) +
            rng.NextBounded(ranges.size()) * storage::kTocEntrySize;
        for (int e = 0; e < 3; ++e) {
          image[entry + rng.NextBounded(24)] =
              static_cast<uint8_t>(rng.NextBounded(256));
        }
        break;
      }
      default: {  // scribble over a random header field
        const size_t at =
            storage::kVersionOffset +
            rng.NextBounded(storage::kHeaderCrcOffset -
                            storage::kVersionOffset);
        image[at] = static_cast<uint8_t>(rng.NextBounded(256));
        break;
      }
    }
    repair(image);
    auto db = ExpectSettles(spec, image);
    if (db.ok()) SearchEverything(*db);
  }
}

// The same repaired-mutation hammer against the set domain, whose decoder
// has the most cross-section invariants (dictionary vs records vs
// inverted-list geometry).
TEST(StorageFuzzTest, RepairedMutationsSetDomain) {
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.6;
  spec.chain_length = 2;
  datagen::TokenSetConfig config;
  config.num_records = 40;
  config.avg_tokens = 8;
  config.universe_size = 120;
  config.seed = 102;
  auto db = Db::Open(spec, Dataset(datagen::GenerateTokenSets(config)));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<uint8_t> base = SavedBytes(*db, "base.pgri");

  auto reader = storage::IndexFileReader::OpenFromBuffer(base);
  ASSERT_TRUE(reader.ok());
  const auto ranges = reader->SectionRanges();
  auto read_u64 = [](const std::vector<uint8_t>& image, size_t offset) {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(image[offset + i]) << (8 * i);
    }
    return value;
  };
  const uint64_t toc = read_u64(base, storage::kTocOffsetOffset);

  Rng rng(0xDEADBEA7);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> image = base;
    const auto& [id, range] = ranges[rng.NextBounded(ranges.size())];
    if (range.second > range.first) {
      const int edits = 1 + static_cast<int>(rng.NextBounded(8));
      for (int e = 0; e < edits; ++e) {
        const uint64_t at =
            range.first + rng.NextBounded(range.second - range.first);
        image[at] = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    for (size_t s = 0; s < ranges.size(); ++s) {
      const size_t entry =
          static_cast<size_t>(toc) + s * storage::kTocEntrySize;
      const uint64_t offset = read_u64(image, entry + 8);
      const uint64_t length = read_u64(image, entry + 16);
      const uint32_t crc = storage::Crc32c(image.data() + offset,
                                           static_cast<size_t>(length));
      for (int i = 0; i < 4; ++i) {
        image[entry + 24 + i] = static_cast<uint8_t>(crc >> (8 * i));
      }
    }
    const uint32_t toc_crc = storage::Crc32c(
        image.data() + toc, ranges.size() * storage::kTocEntrySize);
    for (int i = 0; i < 4; ++i) {
      image[storage::kTocCrcOffset + i] =
          static_cast<uint8_t>(toc_crc >> (8 * i));
    }
    storage::RepairHeaderCrc(image);
    ExpectSettles(spec, image);
  }
}

// And against the fixed-length fast path, whose decoder re-derives
// signature rows from the strings section and must therefore keep the
// strings / meta / postings sections mutually consistent under mutation.
TEST(StorageFuzzTest, RepairedMutationsEditFastDomain) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 3;
  spec.chain_length = 2;
  spec.edit_fast_path = EditFastPath::kOn;
  datagen::StringConfig config;
  config.num_records = 40;
  config.fixed_length = 10;
  config.seed = 103;
  auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<uint8_t> base = SavedBytes(*db, "base.pgri");

  auto reader = storage::IndexFileReader::OpenFromBuffer(base);
  ASSERT_TRUE(reader.ok());
  const auto ranges = reader->SectionRanges();
  auto read_u64 = [](const std::vector<uint8_t>& image, size_t offset) {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(image[offset + i]) << (8 * i);
    }
    return value;
  };
  const uint64_t toc = read_u64(base, storage::kTocOffsetOffset);

  Rng rng(0xFA57FA57);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> image = base;
    const auto& [id, range] = ranges[rng.NextBounded(ranges.size())];
    if (range.second > range.first) {
      const int edits = 1 + static_cast<int>(rng.NextBounded(8));
      for (int e = 0; e < edits; ++e) {
        const uint64_t at =
            range.first + rng.NextBounded(range.second - range.first);
        image[at] = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    for (size_t s = 0; s < ranges.size(); ++s) {
      const size_t entry =
          static_cast<size_t>(toc) + s * storage::kTocEntrySize;
      const uint64_t offset = read_u64(image, entry + 8);
      const uint64_t length = read_u64(image, entry + 16);
      const uint32_t crc = storage::Crc32c(image.data() + offset,
                                           static_cast<size_t>(length));
      for (int i = 0; i < 4; ++i) {
        image[entry + 24 + i] = static_cast<uint8_t>(crc >> (8 * i));
      }
    }
    const uint32_t toc_crc = storage::Crc32c(
        image.data() + toc, ranges.size() * storage::kTocEntrySize);
    for (int i = 0; i < 4; ++i) {
      image[storage::kTocCrcOffset + i] =
          static_cast<uint8_t>(toc_crc >> (8 * i));
    }
    storage::RepairHeaderCrc(image);
    ExpectSettles(spec, image);
  }
}

}  // namespace
}  // namespace pigeonring::api
