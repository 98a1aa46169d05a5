// The persistent index container format (the "storage layer" of
// docs/ARCHITECTURE.md): a versioned, checksummed, 64-byte-aligned file
// holding the built state of one opened Db as typed sections.
//
// On-disk layout (all integers little-endian):
//
//   offset 0    FileHeader, 64 bytes:
//                 [ 0] magic            "PGRIDX01" (8 bytes)
//                 [ 8] format_version   u32 (kFormatVersion)
//                 [12] domain           u32 (api::Domain of the build spec)
//                 [16] spec_fingerprint u64 (api::BuildFingerprint)
//                 [24] file_length      u64 (whole file, for truncation)
//                 [32] toc_offset      u64
//                 [40] section_count    u32
//                 [44] toc_crc32c       u32
//                 [48] reserved         12 zero bytes
//                 [60] header_crc32c    u32 over bytes [0, 60)
//   offset 64   sections, each zero-padded to a 64-byte boundary so
//               bulk-loaded rows stay cache-line aligned
//   toc_offset  TOC: section_count TocEntry records, 32 bytes each:
//                 section_id u32, reserved u32, offset u64, length u64,
//                 crc32c u32 (over the section's payload), reserved u32
//
// Error taxonomy (the contract storage tests pin down):
//   * kDataLoss            — any checksum mismatch, truncation, or
//                            structurally impossible TOC/section geometry;
//   * kFailedPrecondition  — a well-formed file whose format version or
//                            spec fingerprint does not match this reader;
//   * kInvalidArgument     — not an index file at all (bad magic);
//   * kNotFound            — the path does not exist / cannot be read.
// A reader never returns partially loaded data: every section checksum is
// verified before any decoding starts.
//
// Versioning policy: kFormatVersion bumps on ANY layout or section-encoding
// change — there is no in-place migration; readers reject other versions
// with kFailedPrecondition and callers rebuild from raw data. The committed
// golden files under tests/data/ turn an accidental encoding change into a
// test failure instead of a silently unreadable corpus.

#ifndef PIGEONRING_STORAGE_INDEX_FILE_H_
#define PIGEONRING_STORAGE_INDEX_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/bytes.h"

namespace pigeonring::storage {

inline constexpr uint8_t kMagic[8] = {'P', 'G', 'R', 'I', 'D', 'X', '0', '1'};
// Version history:
//   1 — initial container (PR 6).
//   2 — kSpec section gained a trailing fast_path_built flag; added the
//       kEditFast* sections for the fixed-length case-decomposition index.
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kHeaderSize = 64;
inline constexpr size_t kTocEntrySize = 32;
inline constexpr size_t kSectionAlignment = 64;

// Header field offsets, exposed so structure-aware tools (the corruption
// tests, golden-file maintenance) can patch fields in place.
inline constexpr size_t kVersionOffset = 8;
inline constexpr size_t kDomainOffset = 12;
inline constexpr size_t kFingerprintOffset = 16;
inline constexpr size_t kFileLengthOffset = 24;
inline constexpr size_t kTocOffsetOffset = 32;
inline constexpr size_t kSectionCountOffset = 40;
inline constexpr size_t kTocCrcOffset = 44;
inline constexpr size_t kHeaderCrcOffset = 60;

/// Recomputes the header checksum of an in-memory image after a field was
/// patched in place. `image` must hold at least kHeaderSize bytes.
void RepairHeaderCrc(std::vector<uint8_t>& image);

/// Typed section identifiers. Values are part of the on-disk format: never
/// renumber, only append (and bump kFormatVersion when encodings change).
enum class SectionId : uint32_t {
  kSpec = 1,  // canonical build-relevant spec fields (api layer encodes)

  kHammingObjects = 16,    // dimensions + packed bit rows
  kHammingPartition = 17,  // dimension bounds of the equi-width partition
  kHammingPostings = 18,   // per-part (pattern -> ids) buckets

  kSetRecords = 32,     // ranked records
  kSetDictionary = 33,  // token -> frequency rank
  kSetPrefixes = 34,    // per-record PrefixInfo
  kSetInverted = 35,    // token rank -> prefix ids

  kEditStrings = 48,       // raw strings
  kEditDictionary = 49,    // gram -> frequency rank
  kEditProfiles = 50,      // per-record GramProfile
  kEditPadded = 51,        // PadForGrams(record)
  kEditWindowMasks = 52,   // per-record alphabet window masks
  kEditPivotalIndex = 53,  // gram rank -> pivotal postings
  kEditPrefixIndex = 54,   // gram rank -> prefix postings
  kEditLengths = 55,       // length buckets + short ids

  kEditFastStrings = 56,   // fixed-length collection: count + length + chars
  kEditFastMeta = 57,      // per-case indels / hamming tau / partition bounds
  kEditFastPostings = 58,  // per-case per-part (signature key -> rows)

  kGraphData = 64,        // vertex labels + edges per graph
  kGraphParts = 65,       // per-graph Pars partition (parts + half-edges)
  kGraphHistograms = 66,  // per-graph label histograms

  kShardMap = 80,  // placement mode + shard count (shard/partitioner.h)
};

/// Accumulates sections in memory and writes the whole container in one
/// pass. Section order in the file is the order of AddSection calls, which
/// the writer's callers keep deterministic — two Saves of the same Db
/// produce byte-identical files.
class IndexFileWriter {
 public:
  void AddSection(SectionId id, std::vector<uint8_t> payload);

  /// Assembles header + sections + TOC and writes the image to `path`,
  /// replacing any existing file atomically: the image is written to a
  /// temp file in the same directory (`<path>.tmp.<pid>.<n>`), fsynced,
  /// renamed over `path`, and the directory fsynced. On any failure the
  /// temp file is removed and the previous file at `path` is untouched.
  /// kNotFound when the temp file cannot be created or cannot replace
  /// `path`; kInternal when writing or syncing fails.
  Status WriteTo(const std::string& path, uint32_t domain,
                 uint64_t spec_fingerprint) const;

  /// The full file image (what WriteTo persists) — used by tests and the
  /// in-memory corruption harness.
  std::vector<uint8_t> Image(uint32_t domain, uint64_t spec_fingerprint) const;

 private:
  struct Pending {
    SectionId id;
    std::vector<uint8_t> payload;
  };
  std::vector<Pending> sections_;
};

/// A fully validated, memory-resident index file: Open bulk-reads the file,
/// then verifies magic, header checksum, format version, declared length,
/// TOC geometry + checksum, and every section checksum before returning.
/// Section() hands out bounds-checked readers over the validated payloads.
class IndexFileReader {
 public:
  static StatusOr<IndexFileReader> Open(const std::string& path);
  static StatusOr<IndexFileReader> OpenFromBuffer(std::vector<uint8_t> image);

  uint32_t domain() const { return domain_; }
  uint64_t spec_fingerprint() const { return spec_fingerprint_; }

  bool HasSection(SectionId id) const;
  /// kDataLoss if the section is absent (a well-formed file of this domain
  /// always carries its full section set).
  StatusOr<ByteReader> Section(SectionId id) const;

  /// Per-section [begin, end) payload byte ranges in file order — the
  /// corruption tests truncate at and mutate within each of these.
  std::vector<std::pair<SectionId, std::pair<uint64_t, uint64_t>>>
  SectionRanges() const;

 private:
  IndexFileReader() = default;

  std::vector<uint8_t> image_;
  uint32_t domain_ = 0;
  uint64_t spec_fingerprint_ = 0;
  struct Entry {
    SectionId id;
    uint64_t offset;
    uint64_t length;
  };
  std::vector<Entry> entries_;
};

/// True iff the file at `path` starts with the index magic — the cheap
/// sniff api::Db::Open uses to route a path to the index loader vs the raw
/// dataset loaders. Unreadable or short files sniff false (the subsequent
/// loader produces the real error).
bool LooksLikeIndexFile(const std::string& path);

}  // namespace pigeonring::storage

#endif  // PIGEONRING_STORAGE_INDEX_FILE_H_
