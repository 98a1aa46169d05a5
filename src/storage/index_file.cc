#include "storage/index_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "storage/crc32c.h"

namespace pigeonring::storage {

namespace {

Status DataLossAt(const std::string& what) {
  return Status::DataLoss("index file corrupt: " + what);
}

size_t AlignUp(size_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

// Writes all of `image` to `fd`; false on any error, a write cut short by
// the file-size limit included.
bool WriteAll(int fd, const std::vector<uint8_t>& image) {
  size_t done = 0;
  while (done < image.size()) {
    const ssize_t n = ::write(fd, image.data() + done, image.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

// Syncs the directory holding `path`, so a rename into it is durable.
// EINVAL means the file system cannot sync directories; nothing to do.
bool SyncParentDirectory(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  return synced;
}

}  // namespace

void RepairHeaderCrc(std::vector<uint8_t>& image) {
  PR_CHECK(image.size() >= kHeaderSize);
  const uint32_t crc = Crc32c(image.data(), kHeaderCrcOffset);
  for (int i = 0; i < 4; ++i) {
    image[kHeaderCrcOffset + i] = (crc >> (8 * i)) & 0xFF;
  }
}

void IndexFileWriter::AddSection(SectionId id, std::vector<uint8_t> payload) {
  sections_.push_back({id, std::move(payload)});
}

std::vector<uint8_t> IndexFileWriter::Image(uint32_t domain,
                                            uint64_t spec_fingerprint) const {
  // Lay out sections first so the header can state the TOC position.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (offset, length)
  size_t cursor = kHeaderSize;
  for (const Pending& s : sections_) {
    cursor = AlignUp(cursor);
    ranges.emplace_back(cursor, s.payload.size());
    cursor += s.payload.size();
  }
  const size_t toc_offset = AlignUp(cursor);
  const size_t toc_length = sections_.size() * kTocEntrySize;
  const size_t file_length = toc_offset + toc_length;

  std::vector<uint8_t> image(file_length, 0);
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].payload.empty()) continue;  // data() may be null
    std::memcpy(image.data() + ranges[i].first, sections_[i].payload.data(),
                sections_[i].payload.size());
  }

  ByteWriter toc;
  for (size_t i = 0; i < sections_.size(); ++i) {
    toc.U32(static_cast<uint32_t>(sections_[i].id));
    toc.U32(0);
    toc.U64(ranges[i].first);
    toc.U64(ranges[i].second);
    toc.U32(Crc32c(sections_[i].payload.data(), sections_[i].payload.size()));
    toc.U32(0);
  }
  std::memcpy(image.data() + toc_offset, toc.data().data(), toc_length);

  ByteWriter header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.U32(kFormatVersion);
  header.U32(domain);
  header.U64(spec_fingerprint);
  header.U64(file_length);
  header.U64(toc_offset);
  header.U32(static_cast<uint32_t>(sections_.size()));
  header.U32(Crc32c(toc.data().data(), toc.data().size()));
  for (int i = 0; i < 12; ++i) header.U8(0);
  PR_CHECK(header.data().size() == kHeaderCrcOffset);
  header.U32(Crc32c(header.data().data(), kHeaderCrcOffset));
  std::memcpy(image.data(), header.data().data(), kHeaderSize);
  return image;
}

Status IndexFileWriter::WriteTo(const std::string& path, uint32_t domain,
                                uint64_t spec_fingerprint) const {
  const std::vector<uint8_t> image = Image(domain, spec_fingerprint);
  // The image goes to a temp file beside the target, is synced, and only
  // then renamed over the target (and the rename synced), so a Save that
  // fails or is cut off leaves the previous file at `path` as it was.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                           "." + std::to_string(next_temp++);
  constexpr int kFlags = O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC;
  const int fd = ::open(temp.c_str(), kFlags, 0666);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  bool written = WriteAll(fd, image) && ::fsync(fd) == 0;
  written = ::close(fd) == 0 && written;
  if (!written) {
    ::unlink(temp.c_str());
    return Status::Internal("failed writing index file '" + path + "'");
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  if (!SyncParentDirectory(path)) {
    return Status::Internal("failed writing index file '" + path + "'");
  }
  return Status::Ok();
}

StatusOr<IndexFileReader> IndexFileReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("cannot open index file '" + path + "'");
  }
  // A directory opens too, and its tellg() is no file size: reject
  // anything but a regular file before sizing the buffer from it.
  std::error_code ignored;
  if (!std::filesystem::is_regular_file(path, ignored)) {
    return Status::InvalidArgument("index path '" + path +
                                   "' is not a regular file");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> image(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(image.data()), size)) {
    return Status::Internal("failed reading index file '" + path + "'");
  }
  return OpenFromBuffer(std::move(image));
}

StatusOr<IndexFileReader> IndexFileReader::OpenFromBuffer(
    std::vector<uint8_t> image) {
  // Too short to even hold the magic is "not an index file", not data
  // loss — the same verdict LooksLikeIndexFile's sniff reaches.
  if (image.size() < sizeof(kMagic) ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "not a pigeonring index file (bad magic)");
  }
  if (image.size() < kHeaderSize) {
    return DataLossAt("file shorter than the 64-byte header");
  }

  ByteReader header(image.data(), kHeaderSize);
  uint8_t magic[sizeof(kMagic)];
  header.ReadBytes(magic, sizeof(magic));
  const uint32_t version = header.U32();
  const uint32_t domain = header.U32();
  const uint64_t fingerprint = header.U64();
  const uint64_t file_length = header.U64();
  const uint64_t toc_offset = header.U64();
  const uint32_t section_count = header.U32();
  const uint32_t toc_crc = header.U32();
  for (int i = 0; i < 12; ++i) header.U8();
  const uint32_t header_crc = header.U32();
  PR_CHECK(header.AtEnd());

  if (Crc32c(image.data(), kHeaderCrcOffset) != header_crc) {
    return DataLossAt("header checksum mismatch");
  }
  // Version gates everything downstream of the (now trusted) header: a
  // future format may relocate the TOC, so its geometry is only
  // interpretable at a version this reader speaks.
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        "index format version " + std::to_string(version) +
        " is not readable by this build (expected " +
        std::to_string(kFormatVersion) + "); rebuild the index");
  }
  if (file_length != image.size()) {
    return DataLossAt("declared length " + std::to_string(file_length) +
                      " but the file holds " + std::to_string(image.size()) +
                      " bytes (truncated or padded)");
  }
  const uint64_t toc_length =
      static_cast<uint64_t>(section_count) * kTocEntrySize;
  if (toc_offset < kHeaderSize || toc_offset > image.size() ||
      toc_length > image.size() - toc_offset) {
    return DataLossAt("table of contents outside the file");
  }
  if (Crc32c(image.data() + toc_offset, toc_length) != toc_crc) {
    return DataLossAt("table of contents checksum mismatch");
  }

  IndexFileReader reader;
  ByteReader toc(image.data() + toc_offset, toc_length);
  for (uint32_t i = 0; i < section_count; ++i) {
    Entry entry;
    entry.id = static_cast<SectionId>(toc.U32());
    toc.U32();
    entry.offset = toc.U64();
    entry.length = toc.U64();
    const uint32_t crc = toc.U32();
    toc.U32();
    if (entry.offset < kHeaderSize || entry.offset > toc_offset ||
        entry.length > toc_offset - entry.offset) {
      return DataLossAt("section " +
                        std::to_string(static_cast<uint32_t>(entry.id)) +
                        " outside the section area");
    }
    for (const Entry& other : reader.entries_) {
      if (other.id == entry.id) {
        return DataLossAt("duplicate section " +
                          std::to_string(static_cast<uint32_t>(entry.id)));
      }
    }
    if (Crc32c(image.data() + entry.offset, entry.length) != crc) {
      return DataLossAt("section " +
                        std::to_string(static_cast<uint32_t>(entry.id)) +
                        " checksum mismatch");
    }
    reader.entries_.push_back(entry);
  }
  PR_CHECK(toc.AtEnd());

  reader.image_ = std::move(image);
  reader.domain_ = domain;
  reader.spec_fingerprint_ = fingerprint;
  return reader;
}

bool IndexFileReader::HasSection(SectionId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return true;
  }
  return false;
}

StatusOr<ByteReader> IndexFileReader::Section(SectionId id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) {
      return ByteReader(image_.data() + e.offset,
                        static_cast<size_t>(e.length));
    }
  }
  return DataLossAt("missing section " +
                    std::to_string(static_cast<uint32_t>(id)));
}

std::vector<std::pair<SectionId, std::pair<uint64_t, uint64_t>>>
IndexFileReader::SectionRanges() const {
  std::vector<std::pair<SectionId, std::pair<uint64_t, uint64_t>>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back({e.id, {e.offset, e.offset + e.length}});
  }
  return out;
}

bool LooksLikeIndexFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  uint8_t magic[sizeof(kMagic)];
  if (!in.read(reinterpret_cast<char*>(magic), sizeof(magic))) return false;
  return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace pigeonring::storage
