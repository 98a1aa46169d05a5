#include "storage/index_io.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <utility>

#include "editdist/qgram.h"
#include "graphed/partition.h"
#include "hamming/index.h"
#include "hamming/partition.h"
#include "setsim/prefix.h"

namespace pigeonring::storage {

namespace {

Status SectionCorrupt(SectionId id, const std::string& what) {
  return Status::DataLoss("index section " +
                          std::to_string(static_cast<uint32_t>(id)) +
                          " corrupt: " + what);
}

// The end-of-section invariant every decoder asserts: all bytes consumed
// and no read overran.
Status CheckConsumed(const ByteReader& reader, SectionId id) {
  if (!reader.AtEnd()) {
    return SectionCorrupt(id, "malformed encoding (overrun or trailing bytes)");
  }
  return Status::Ok();
}

// Whether `ids` ascend strictly: the order every id list of the index
// keeps, and that ranged searches (common/id_limit.h) cut by binary
// search.
bool StrictlyAscending(std::span<const int> ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<>()) == ids.end();
}

// --- Hamming ---

constexpr int kWordBytes = 8;

std::vector<uint8_t> EncodeHammingObjects(
    const std::vector<BitVector>& objects) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(objects.size()));
  const int dims = objects.empty() ? 0 : objects.front().dimensions();
  w.I32(dims);
  for (const BitVector& v : objects) {
    for (uint64_t word : v.words()) w.U64(word);
  }
  return std::move(w).Take();
}

Status DecodeHammingObjects(ByteReader reader,
                            std::vector<BitVector>* objects) {
  const uint32_t n = reader.U32();
  const int dims = reader.I32();
  if (!reader.ok() || dims < 0 || (n > 0 && dims == 0)) {
    return SectionCorrupt(SectionId::kHammingObjects, "bad geometry");
  }
  const int words_per = (dims + 63) / 64;
  if (n > 0 &&
      n > reader.remaining() / (static_cast<size_t>(words_per) * kWordBytes)) {
    return SectionCorrupt(SectionId::kHammingObjects,
                          "row count exceeds the section size");
  }
  // Bits past `dims` in the last word must be zero — ExtractBits and the
  // popcount kernels read whole words.
  const uint64_t tail_mask =
      dims % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (dims % 64)) - 1;
  objects->reserve(static_cast<size_t>(n));
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint64_t> words(words_per);
    for (auto& word : words) word = reader.U64();
    if (!reader.ok()) {
      return SectionCorrupt(SectionId::kHammingObjects, "truncated rows");
    }
    if (words_per > 0 && (words.back() & ~tail_mask) != 0) {
      return SectionCorrupt(SectionId::kHammingObjects,
                            "set bits past the declared dimensionality");
    }
    objects->push_back(BitVector::FromWords(dims, std::move(words)));
  }
  return CheckConsumed(reader, SectionId::kHammingObjects);
}

// One partition + postings codec, shared by the Hamming sections and the
// edit fast path's per-case sections.

void EncodePartition(ByteWriter& w, const hamming::Partition& partition) {
  w.I32(partition.dimensions());
  std::vector<int> bounds;
  bounds.reserve(partition.num_parts() + 1);
  bounds.push_back(0);
  for (int p = 0; p < partition.num_parts(); ++p) {
    bounds.push_back(partition.end(p));
  }
  w.VecI32(bounds);
}

// Decoded partition bounds must run 0 = b_0 < ... < b_m = dims with every
// part 1..64 bits wide and m <= 64 (the chain bitmask limit). `bad_shape`
// names a violation of anything but the part widths.
Status CheckBounds(int dims, const std::vector<int>& bounds, SectionId id,
                   const char* bad_shape) {
  if (dims < 1 || bounds.size() < 2 || bounds.front() != 0 ||
      bounds.back() != dims || bounds.size() > 65) {
    return SectionCorrupt(id, bad_shape);
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    const int width = bounds[i] - bounds[i - 1];
    if (width < 1 || width > 64) {
      return SectionCorrupt(id, "part width outside [1, 64]");
    }
  }
  return Status::Ok();
}

void EncodePostings(ByteWriter& w, const hamming::PartitionIndex& index) {
  const int m = index.partition().num_parts();
  w.U32(static_cast<uint32_t>(m));
  for (int p = 0; p < m; ++p) {
    // Bucket count first; keys in ascending order, posting lists ids
    // ascending — the deterministic dump of the CSR walk.
    size_t num_buckets = 0;
    index.ForEachBucketSorted(
        p, [&](uint64_t, std::span<const int>) { ++num_buckets; });
    w.U64(num_buckets);
    index.ForEachBucketSorted(p, [&](uint64_t key, std::span<const int> ids) {
      w.U64(key);
      w.U64(ids.size());  // the VecI32 layout
      for (int i : ids) w.I32(i);
    });
  }
}

// Decodes one EncodePostings dump for `partition` whose posting ids index
// `num_rows` rows, straight into sorted-key CSR postings. Every part must
// hold exactly `num_rows` postings (which also keeps its offsets within
// uint32), under strictly ascending keys that fit the part's width, ids
// strictly ascending within a bucket. Errors name the section holding the
// partition and the kind of id.
Status DecodePostings(ByteReader& reader, SectionId id,
                      const hamming::Partition& partition, int64_t num_rows,
                      const std::string& partition_section,
                      const std::string& row,
                      std::vector<hamming::PartitionIndex::Postings>* parts) {
  const int num_parts = partition.num_parts();
  const uint32_t m = reader.U32();
  if (!reader.ok() || static_cast<int>(m) != num_parts) {
    return SectionCorrupt(id, "part count disagrees with the " +
                                  partition_section + " section");
  }
  parts->resize(num_parts);
  for (int p = 0; p < num_parts; ++p) {
    const int width = partition.width(p);
    // Each bucket needs at least key (8) + id-count (8) bytes.
    const uint64_t num_buckets = reader.Count(16);
    if (!reader.ok()) return SectionCorrupt(id, "bad bucket count");
    hamming::PartitionIndex::Postings& postings = (*parts)[p];
    postings.keys.reserve(static_cast<size_t>(num_buckets));
    postings.offsets.reserve(static_cast<size_t>(num_buckets) + 1);
    postings.offsets.push_back(0);
    const uint64_t id_room = reader.remaining() / 4;  // 4 bytes an id
    postings.ids.reserve(std::min<size_t>(num_rows, id_room));
    for (uint64_t b = 0; b < num_buckets; ++b) {
      const uint64_t key = reader.U64();
      const uint64_t count = reader.Count(4);
      if (!reader.ok()) return SectionCorrupt(id, "truncated bucket");
      if (width < 64 && (key >> width) != 0) {
        return SectionCorrupt(id, "bucket key wider than its part");
      }
      if (!postings.keys.empty() && key <= postings.keys.back()) {
        return SectionCorrupt(id, "bucket keys not strictly ascending");
      }
      if (count > static_cast<uint64_t>(num_rows) - postings.ids.size()) {
        return SectionCorrupt(id, "part holds more postings than rows");
      }
      postings.keys.push_back(key);
      for (uint64_t k = 0; k < count; ++k) {
        const int i = reader.I32();
        if (i < 0 || i >= num_rows) {
          return SectionCorrupt(id, row + " outside the collection");
        }
        if (k > 0 && i <= postings.ids.back()) {
          return SectionCorrupt(id, row + "s not ascending in a bucket");
        }
        postings.ids.push_back(i);
      }
      postings.offsets.push_back(static_cast<uint32_t>(postings.ids.size()));
    }
    if (static_cast<int64_t>(postings.ids.size()) != num_rows) {
      return SectionCorrupt(id, "part holds fewer postings than rows");
    }
  }
  return Status::Ok();
}

// --- Sets ---

std::vector<uint8_t> EncodeSetRecords(const setsim::SetCollection& c) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(c.num_records()));
  for (int id = 0; id < c.num_records(); ++id) w.VecI32(c.record(id));
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeSetDictionary(const setsim::SetCollection& c) {
  ByteWriter w;
  const auto entries = c.ExportDictionary();
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const auto& [token, rank] : entries) {
    w.I32(token);
    w.I32(rank);
  }
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeSetPrefixes(
    const std::vector<setsim::PrefixInfo>& prefixes) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(prefixes.size()));
  for (const setsim::PrefixInfo& info : prefixes) {
    w.I32(info.prefix_length);
    w.I32(info.last_rank);
    w.VecI32(info.class_count);
    w.VecI32(info.class_threshold);
    w.I32(info.suffix_threshold);
  }
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeSetInverted(
    const std::vector<std::vector<int>>& inverted) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(inverted.size()));
  for (const std::vector<int>& ids : inverted) w.VecI32(ids);
  return std::move(w).Take();
}

// --- Edit distance ---

std::vector<uint8_t> EncodeEditStrings(const std::vector<std::string>& data) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(data.size()));
  for (const std::string& s : data) w.Str(s);
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeEditDictionary(
    const editdist::GramDictionary& dictionary) {
  ByteWriter w;
  w.I32(dictionary.kappa());
  const auto entries = dictionary.ExportRanks();
  w.U64(entries.size());
  for (const auto& [gram, rank] : entries) {
    w.Str(gram);
    w.I32(rank);
  }
  return std::move(w).Take();
}

void EncodeGramList(ByteWriter& w, const std::vector<editdist::Gram>& grams) {
  w.U64(grams.size());
  for (const editdist::Gram& g : grams) {
    w.I32(g.rank);
    w.I32(g.position);
  }
}

// Decodes a gram list whose positions must index windows of a padded string
// of `padded_len` characters with gram width `kappa`.
bool DecodeGramList(ByteReader& reader, int padded_len, int kappa,
                    int universe, std::vector<editdist::Gram>* grams) {
  const uint64_t count = reader.Count(8);
  if (!reader.ok()) return false;
  grams->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    editdist::Gram g;
    g.rank = reader.I32();
    g.position = reader.I32();
    // A record's grams all come from the dictionary; a self-join probe
    // looks its stored ranks up in the posting lists.
    if (g.rank < 0 || g.rank >= universe) return false;
    if (g.position < 0 || g.position > padded_len - kappa) return false;
    grams->push_back(g);
  }
  return reader.ok();
}

std::vector<uint8_t> EncodeEditProfiles(
    const std::vector<editdist::GramProfile>& profiles) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(profiles.size()));
  for (const editdist::GramProfile& p : profiles) {
    w.U8(p.is_short ? 1 : 0);
    w.I32(p.prefix_last_rank);
    EncodeGramList(w, p.prefix);
    EncodeGramList(w, p.pivotal);
    w.VecU64(p.pivotal_masks);
  }
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeEditPadded(const std::vector<std::string>& padded) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(padded.size()));
  for (const std::string& s : padded) w.Str(s);
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeEditWindowMasks(
    const std::vector<size_t>& offsets, const std::vector<uint64_t>& masks) {
  ByteWriter w;
  const size_t n = offsets.size() - 1;
  w.U32(static_cast<uint32_t>(n));
  for (size_t id = 0; id < n; ++id) {
    w.U64(offsets[id + 1] - offsets[id]);
    for (size_t k = offsets[id]; k < offsets[id + 1]; ++k) w.U64(masks[k]);
  }
  return std::move(w).Take();
}

// The keyed-list codec of the edit sections: the nonempty lists of a CSR
// array, keys ascending, each as i32 key + u64 entry count + the entries
// in build order (`write(k)` encodes entry k of the flat entry order).
template <typename Write>
void EncodeEditLists(ByteWriter& w, const std::vector<size_t>& offsets,
                     Write&& write) {
  uint64_t nonempty = 0;
  for (size_t key = 0; key + 1 < offsets.size(); ++key) {
    nonempty += offsets[key + 1] > offsets[key] ? 1 : 0;
  }
  w.U64(nonempty);
  for (size_t key = 0; key + 1 < offsets.size(); ++key) {
    if (offsets[key + 1] == offsets[key]) continue;
    w.I32(static_cast<int>(key));
    w.U64(offsets[key + 1] - offsets[key]);
    for (size_t k = offsets[key]; k < offsets[key + 1]; ++k) write(k);
  }
}

// Decodes EncodeEditLists' form straight into CSR `offsets` over keys
// [0, num_keys) and the caller's entry columns. Keys must ascend strictly,
// which also rules out duplicates. `read(key, &id)` decodes one entry of
// `entry_bytes` bytes, appends it to the columns, sets `id` to its record
// id, and returns nullptr, or what is wrong with it. The ids must ascend
// strictly within a list when `strict_ids`, else never descend (a record
// may post one gram rank twice: its prefix keeps every occurrence of a
// tied gram); ranged searches cut the lists at their ids.
template <typename Read>
Status DecodeEditLists(ByteReader& reader, SectionId id, size_t num_keys,
                       size_t entry_bytes, const char* bad_key,
                       bool strict_ids, Read&& read,
                       std::vector<size_t>* offsets) {
  const uint64_t keys = reader.Count(12);  // i32 key + u64 entry count
  if (!reader.ok()) return SectionCorrupt(id, "bad key count");
  offsets->assign(num_keys + 1, 0);
  int64_t next_key = 0;
  for (uint64_t k = 0; k < keys; ++k) {
    const int key = reader.I32();
    const uint64_t count = reader.Count(entry_bytes);
    if (!reader.ok()) return SectionCorrupt(id, "bad entry count");
    if (key < 0 || static_cast<size_t>(key) >= num_keys) {
      return SectionCorrupt(id, bad_key);
    }
    if (key < next_key) return SectionCorrupt(id, "keys out of order");
    next_key = int64_t{key} + 1;
    (*offsets)[static_cast<size_t>(key) + 1] = count;
    int previous = -1;
    for (uint64_t i = 0; i < count; ++i) {
      int current = -1;
      const char* bad_entry = read(key, &current);
      if (!reader.ok()) return SectionCorrupt(id, "truncated list");
      if (bad_entry != nullptr) return SectionCorrupt(id, bad_entry);
      if (i > 0 &&
          (current < previous || (strict_ids && current == previous))) {
        return SectionCorrupt(id, strict_ids
                                      ? "list ids not strictly ascending"
                                      : "list ids descend");
      }
      previous = current;
    }
  }
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  return Status::Ok();
}

// --- Graphs ---

void EncodeGraph(ByteWriter& w, const graphed::Graph& g) {
  w.VecI32(g.vertex_labels());
  w.U32(static_cast<uint32_t>(g.num_edges()));
  for (const graphed::Edge& e : g.edges()) {
    w.I32(e.u);
    w.I32(e.v);
    w.I32(e.label);
  }
}

// Validates edges before insertion so hostile payloads produce kDataLoss
// instead of tripping Graph::AddEdge's PR_CHECKs.
bool DecodeGraph(ByteReader& reader, graphed::Graph* g) {
  std::vector<int> labels = reader.VecI32();
  if (!reader.ok()) return false;
  *g = graphed::Graph(std::move(labels));
  const uint32_t num_edges = reader.U32();
  if (!reader.ok() ||
      num_edges > reader.remaining() / 12) {  // 3 i32 per edge
    return false;
  }
  for (uint32_t i = 0; i < num_edges; ++i) {
    const int u = reader.I32();
    const int v = reader.I32();
    const int label = reader.I32();
    if (!reader.ok() || u < 0 || v < 0 || u >= g->num_vertices() ||
        v >= g->num_vertices() || u == v || g->HasEdge(u, v)) {
      return false;
    }
    g->AddEdge(u, v, label);
  }
  return true;
}

std::vector<uint8_t> EncodeGraphData(const std::vector<graphed::Graph>& data) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(data.size()));
  for (const graphed::Graph& g : data) EncodeGraph(w, g);
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeGraphParts(
    const std::vector<std::vector<graphed::Part>>& parts) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(parts.size()));
  for (const std::vector<graphed::Part>& graph_parts : parts) {
    w.U32(static_cast<uint32_t>(graph_parts.size()));
    for (const graphed::Part& part : graph_parts) {
      EncodeGraph(w, part.graph);
      w.U64(part.half_edges.size());
      for (const auto& [v, label] : part.half_edges) {
        w.I32(v);
        w.I32(label);
      }
    }
  }
  return std::move(w).Take();
}

std::vector<uint8_t> EncodeGraphHistograms(
    const std::vector<graphed::GraphSearcher::LabelHistogram>& histograms) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(histograms.size()));
  for (const auto& h : histograms) {
    w.VecI32(h.vertex_counts);
    w.VecI32(h.edge_counts);
    w.I32(h.num_vertices);
    w.I32(h.num_edges);
  }
  return std::move(w).Take();
}

}  // namespace

// --- Hamming ---

void SaveHammingSections(const hamming::HammingSearcher& searcher,
                         IndexFileWriter& writer) {
  const hamming::PartitionIndex& index = searcher.partition_index();
  writer.AddSection(SectionId::kHammingObjects,
                    EncodeHammingObjects(searcher.objects()));
  ByteWriter partition;
  EncodePartition(partition, index.partition());
  writer.AddSection(SectionId::kHammingPartition,
                    std::move(partition).Take());
  ByteWriter postings;
  EncodePostings(postings, index);
  writer.AddSection(SectionId::kHammingPostings, std::move(postings).Take());
}

StatusOr<LoadedHamming> LoadHammingSections(const IndexFileReader& reader) {
  auto objects_section = reader.Section(SectionId::kHammingObjects);
  if (!objects_section.ok()) return objects_section.status();
  LoadedHamming loaded;
  Status s = DecodeHammingObjects(*objects_section, &loaded.objects);
  if (!s.ok()) return s;

  auto partition_section = reader.Section(SectionId::kHammingPartition);
  if (!partition_section.ok()) return partition_section.status();
  ByteReader partition_reader = *partition_section;
  const int dimensions = partition_reader.I32();
  std::vector<int> bounds = partition_reader.VecI32();
  s = CheckConsumed(partition_reader, SectionId::kHammingPartition);
  if (!s.ok()) return s;
  s = CheckBounds(dimensions, bounds, SectionId::kHammingPartition,
                  "bad geometry");
  if (!s.ok()) return s;
  if (!loaded.objects.empty() &&
      loaded.objects.front().dimensions() != dimensions) {
    return SectionCorrupt(
        SectionId::kHammingPartition,
        "partition dimensionality disagrees with the objects section");
  }
  hamming::Partition partition =
      hamming::Partition::FromBounds(dimensions, std::move(bounds));

  auto postings_section = reader.Section(SectionId::kHammingPostings);
  if (!postings_section.ok()) return postings_section.status();
  ByteReader postings_reader = *postings_section;
  std::vector<hamming::PartitionIndex::Postings> parts;
  s = DecodePostings(postings_reader, SectionId::kHammingPostings, partition,
                     static_cast<int64_t>(loaded.objects.size()), "partition",
                     "posting id", &parts);
  if (!s.ok()) return s;
  s = CheckConsumed(postings_reader, SectionId::kHammingPostings);
  if (!s.ok()) return s;

  loaded.index = std::make_shared<const hamming::PartitionIndex>(
      hamming::PartitionIndex::FromSorted(
          std::move(partition), static_cast<int>(loaded.objects.size()),
          std::move(parts)));
  return loaded;
}

// --- Sets ---

void SaveSetSections(const setsim::SetCollection& collection,
                     const setsim::PkwiseSearcher& searcher,
                     IndexFileWriter& writer) {
  writer.AddSection(SectionId::kSetRecords, EncodeSetRecords(collection));
  writer.AddSection(SectionId::kSetDictionary,
                    EncodeSetDictionary(collection));
  writer.AddSection(SectionId::kSetPrefixes,
                    EncodeSetPrefixes(searcher.index().prefixes));
  writer.AddSection(SectionId::kSetInverted,
                    EncodeSetInverted(searcher.index().inverted));
}

StatusOr<LoadedSet> LoadSetSections(const IndexFileReader& reader,
                                    int num_boxes) {
  const int num_classes = num_boxes - 1;

  auto records_section = reader.Section(SectionId::kSetRecords);
  if (!records_section.ok()) return records_section.status();
  ByteReader records_reader = *records_section;
  const uint32_t n = records_reader.U32();
  if (!records_reader.ok() ||
      n > records_reader.remaining() / 8) {  // u64 length per record
    return SectionCorrupt(SectionId::kSetRecords, "bad record count");
  }
  std::vector<setsim::RankedSet> records;
  records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    records.push_back(records_reader.VecI32());
  }
  Status s = CheckConsumed(records_reader, SectionId::kSetRecords);
  if (!s.ok()) return s;

  auto dict_section = reader.Section(SectionId::kSetDictionary);
  if (!dict_section.ok()) return dict_section.status();
  ByteReader dict_reader = *dict_section;
  const uint32_t universe = dict_reader.U32();
  if (!dict_reader.ok() ||
      universe > dict_reader.remaining() / 8) {  // 2 i32 per entry
    return SectionCorrupt(SectionId::kSetDictionary, "bad entry count");
  }
  std::vector<std::pair<int, int>> dictionary;
  dictionary.reserve(universe);
  for (uint32_t i = 0; i < universe; ++i) {
    const int token = dict_reader.I32();
    const int rank = dict_reader.I32();
    dictionary.emplace_back(token, rank);
  }
  s = CheckConsumed(dict_reader, SectionId::kSetDictionary);
  if (!s.ok()) return s;

  auto prefixes_section = reader.Section(SectionId::kSetPrefixes);
  if (!prefixes_section.ok()) return prefixes_section.status();
  ByteReader prefix_reader = *prefixes_section;
  const uint32_t prefix_count = prefix_reader.U32();
  if (!prefix_reader.ok() || prefix_count != n) {
    return SectionCorrupt(
        SectionId::kSetPrefixes,
        "prefix count disagrees with the records section");
  }
  auto index = std::make_shared<setsim::PkwiseSearcher::Index>();
  index->prefixes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    setsim::PrefixInfo info;
    info.prefix_length = prefix_reader.I32();
    info.last_rank = prefix_reader.I32();
    info.class_count = prefix_reader.VecI32();
    info.class_threshold = prefix_reader.VecI32();
    info.suffix_threshold = prefix_reader.I32();
    if (!prefix_reader.ok() ||
        static_cast<int>(info.class_count.size()) != num_classes + 1 ||
        static_cast<int>(info.class_threshold.size()) != num_classes + 1) {
      return SectionCorrupt(SectionId::kSetPrefixes,
                            "prefix metadata does not match the spec's " +
                                std::to_string(num_boxes) + " boxes");
    }
    index->prefixes.push_back(std::move(info));
  }
  s = CheckConsumed(prefix_reader, SectionId::kSetPrefixes);
  if (!s.ok()) return s;

  auto inverted_section = reader.Section(SectionId::kSetInverted);
  if (!inverted_section.ok()) return inverted_section.status();
  ByteReader inverted_reader = *inverted_section;
  const uint32_t inverted_size = inverted_reader.U32();
  if (!inverted_reader.ok() || inverted_size != universe) {
    return SectionCorrupt(
        SectionId::kSetInverted,
        "posting-list count disagrees with the dictionary section");
  }
  index->inverted.resize(inverted_size);
  for (uint32_t rank = 0; rank < inverted_size; ++rank) {
    index->inverted[rank] = inverted_reader.VecI32();
    if (!inverted_reader.ok()) {
      return SectionCorrupt(SectionId::kSetInverted, "truncated postings");
    }
    for (int id : index->inverted[rank]) {
      if (id < 0 || id >= static_cast<int>(n)) {
        return SectionCorrupt(SectionId::kSetInverted,
                              "posting id outside the collection");
      }
    }
    // Searches cut each list to an id range by binary search (a join
    // probe's half-probe, a shard), so an out-of-order list would drop
    // pairs.
    if (!StrictlyAscending(index->inverted[rank])) {
      return SectionCorrupt(SectionId::kSetInverted,
                            "posting ids not strictly ascending");
    }
  }
  s = CheckConsumed(inverted_reader, SectionId::kSetInverted);
  if (!s.ok()) return s;

  LoadedSet loaded;
  loaded.collection = std::make_unique<setsim::SetCollection>(
      setsim::SetCollection::FromBuilt(std::move(dictionary),
                                       std::move(records),
                                       static_cast<int>(universe)));
  loaded.index = std::move(index);
  return loaded;
}

// --- Edit distance ---

void SaveEditSections(const std::vector<std::string>& data,
                      const editdist::EditDistanceSearcher& searcher,
                      IndexFileWriter& writer) {
  using editdist::EditDistanceSearcher;
  const EditDistanceSearcher::Index& index = searcher.index();
  writer.AddSection(SectionId::kEditStrings, EncodeEditStrings(data));
  writer.AddSection(SectionId::kEditDictionary,
                    EncodeEditDictionary(index.dictionary));
  writer.AddSection(SectionId::kEditProfiles,
                    EncodeEditProfiles(index.profiles));
  writer.AddSection(SectionId::kEditPadded, EncodeEditPadded(index.padded));
  writer.AddSection(
      SectionId::kEditWindowMasks,
      EncodeEditWindowMasks(index.window_offsets, index.window_masks));
  ByteWriter pivotal;
  EncodeEditLists(pivotal, index.pivotal.offsets, [&](size_t k) {
    pivotal.I32(index.pivotal.ids[k]);
    pivotal.I32(index.pivotal_indexes[k]);
    pivotal.I32(index.pivotal.positions[k]);
  });
  writer.AddSection(SectionId::kEditPivotalIndex, std::move(pivotal).Take());
  ByteWriter prefix;
  EncodeEditLists(prefix, index.prefix.offsets, [&](size_t k) {
    prefix.I32(index.prefix.ids[k]);
    prefix.I32(index.prefix.positions[k]);
  });
  writer.AddSection(SectionId::kEditPrefixIndex, std::move(prefix).Take());
  ByteWriter lengths;
  EncodeEditLists(lengths, index.length_offsets,
                  [&](size_t k) { lengths.I32(index.length_ids[k]); });
  lengths.VecI32(index.short_ids);
  writer.AddSection(SectionId::kEditLengths, std::move(lengths).Take());
}

StatusOr<LoadedEdit> LoadEditSections(const IndexFileReader& reader, int tau,
                                      int kappa) {
  using editdist::EditDistanceSearcher;
  auto strings_section = reader.Section(SectionId::kEditStrings);
  if (!strings_section.ok()) return strings_section.status();
  ByteReader strings_reader = *strings_section;
  const uint32_t n = strings_reader.U32();
  if (!strings_reader.ok() ||
      n > strings_reader.remaining() / 8) {  // u64 length per string
    return SectionCorrupt(SectionId::kEditStrings, "bad record count");
  }
  auto data = std::make_unique<std::vector<std::string>>();
  data->reserve(n);
  for (uint32_t i = 0; i < n; ++i) data->push_back(strings_reader.Str());
  Status s = CheckConsumed(strings_reader, SectionId::kEditStrings);
  if (!s.ok()) return s;
  const int num_records = static_cast<int>(data->size());

  auto dict_section = reader.Section(SectionId::kEditDictionary);
  if (!dict_section.ok()) return dict_section.status();
  ByteReader dict_reader = *dict_section;
  const int file_kappa = dict_reader.I32();
  if (dict_reader.ok() && file_kappa != kappa) {
    // The fingerprint already matched, so a differing kappa means the
    // payload no longer agrees with the header.
    return SectionCorrupt(SectionId::kEditDictionary,
                          "gram length disagrees with the spec");
  }
  const uint64_t dict_count = dict_reader.Count(12);  // str len + i32 rank
  if (!dict_reader.ok()) {
    return SectionCorrupt(SectionId::kEditDictionary, "bad entry count");
  }
  std::vector<std::pair<std::string, int>> entries;
  entries.reserve(static_cast<size_t>(dict_count));
  for (uint64_t i = 0; i < dict_count; ++i) {
    std::string gram = dict_reader.Str();
    const int rank = dict_reader.I32();
    entries.emplace_back(std::move(gram), rank);
  }
  s = CheckConsumed(dict_reader, SectionId::kEditDictionary);
  if (!s.ok()) return s;
  // The ranks index the posting lists: they must be a permutation of
  // [0, entry count), over distinct grams.
  std::vector<uint8_t> rank_seen(static_cast<size_t>(dict_count), 0);
  for (const auto& [gram, rank] : entries) {
    if (rank < 0 || static_cast<uint64_t>(rank) >= dict_count) {
      return SectionCorrupt(SectionId::kEditDictionary,
                            "gram rank outside [0, entry count)");
    }
    if (rank_seen[static_cast<size_t>(rank)]++ != 0) {
      return SectionCorrupt(SectionId::kEditDictionary, "repeated gram rank");
    }
  }
  auto index = std::make_shared<EditDistanceSearcher::Index>(
      editdist::GramDictionary::FromBuilt(kappa, std::move(entries)));
  const size_t universe =
      static_cast<size_t>(index->dictionary.universe_size());
  if (universe != dict_count) {
    return SectionCorrupt(SectionId::kEditDictionary, "repeated gram");
  }

  // Padded strings next — profile gram positions are validated against
  // their lengths.
  auto padded_section = reader.Section(SectionId::kEditPadded);
  if (!padded_section.ok()) return padded_section.status();
  ByteReader padded_reader = *padded_section;
  const uint32_t padded_count = padded_reader.U32();
  if (!padded_reader.ok() || padded_count != n) {
    return SectionCorrupt(SectionId::kEditPadded,
                          "row count disagrees with the strings section");
  }
  index->padded.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string padded = padded_reader.Str();
    if (!padded_reader.ok() ||
        padded.size() != (*data)[i].size() + 2 * (kappa - 1)) {
      return SectionCorrupt(SectionId::kEditPadded, "bad padded length");
    }
    index->padded.push_back(std::move(padded));
  }
  s = CheckConsumed(padded_reader, SectionId::kEditPadded);
  if (!s.ok()) return s;
  // A gram at `position` must lie inside record `id`'s padded string.
  auto gram_fits = [&](int id, int position) {
    return position >= 0 &&
           position <= static_cast<int>(index->padded[id].size()) - kappa;
  };

  auto profiles_section = reader.Section(SectionId::kEditProfiles);
  if (!profiles_section.ok()) return profiles_section.status();
  ByteReader profiles_reader = *profiles_section;
  const uint32_t profile_count = profiles_reader.U32();
  if (!profiles_reader.ok() || profile_count != n) {
    return SectionCorrupt(SectionId::kEditProfiles,
                          "row count disagrees with the strings section");
  }
  index->profiles.reserve(n);
  const int universe_size = static_cast<int>(universe);
  for (uint32_t i = 0; i < n; ++i) {
    editdist::GramProfile profile;
    profile.is_short = profiles_reader.U8() != 0;
    profile.prefix_last_rank = profiles_reader.I32();
    const int padded_len = static_cast<int>(index->padded[i].size());
    if (!DecodeGramList(profiles_reader, padded_len, kappa, universe_size,
                        &profile.prefix) ||
        !DecodeGramList(profiles_reader, padded_len, kappa, universe_size,
                        &profile.pivotal)) {
      return SectionCorrupt(
          SectionId::kEditProfiles,
          "gram rank outside the dictionary or position outside the padded "
          "string");
    }
    profile.pivotal_masks = profiles_reader.VecU64();
    if (!profiles_reader.ok()) {
      return SectionCorrupt(SectionId::kEditProfiles, "truncated profile");
    }
    // A non-short profile carries exactly tau + 1 pivotal grams — the ring
    // dimension the chain check indexes by.
    if (!profile.is_short &&
        (static_cast<int>(profile.pivotal.size()) != tau + 1 ||
         profile.pivotal_masks.size() != profile.pivotal.size())) {
      return SectionCorrupt(SectionId::kEditProfiles,
                            "pivotal gram count does not match tau + 1");
    }
    if (profile.is_short &&
        !(profile.prefix.empty() && profile.pivotal.empty() &&
          profile.pivotal_masks.empty())) {
      return SectionCorrupt(SectionId::kEditProfiles,
                            "short profile carries gram metadata");
    }
    index->profiles.push_back(std::move(profile));
  }
  s = CheckConsumed(profiles_reader, SectionId::kEditProfiles);
  if (!s.ok()) return s;

  auto masks_section = reader.Section(SectionId::kEditWindowMasks);
  if (!masks_section.ok()) return masks_section.status();
  ByteReader masks_reader = *masks_section;
  const uint32_t masks_count = masks_reader.U32();
  if (!masks_reader.ok() || masks_count != n) {
    return SectionCorrupt(SectionId::kEditWindowMasks,
                          "row count disagrees with the strings section");
  }
  size_t total_masks = 0;
  for (const std::string& padded : index->padded) total_masks += padded.size();
  index->window_masks.reserve(total_masks);
  index->window_offsets.reserve(static_cast<size_t>(n) + 1);
  index->window_offsets.push_back(0);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t count = masks_reader.Count(8);
    if (!masks_reader.ok() || count != index->padded[i].size()) {
      return SectionCorrupt(SectionId::kEditWindowMasks,
                            "mask count disagrees with the padded string");
    }
    for (uint64_t k = 0; k < count; ++k) {
      index->window_masks.push_back(masks_reader.U64());
    }
    index->window_offsets.push_back(index->window_masks.size());
  }
  s = CheckConsumed(masks_reader, SectionId::kEditWindowMasks);
  if (!s.ok()) return s;

  auto pivotal_section = reader.Section(SectionId::kEditPivotalIndex);
  if (!pivotal_section.ok()) return pivotal_section.status();
  ByteReader pivotal_reader = *pivotal_section;
  constexpr size_t kPivotalBytes = 12;  // 3 i32 per posting
  EditDistanceSearcher::PostingLists& pivotal = index->pivotal;
  pivotal.ids.reserve(pivotal_reader.remaining() / kPivotalBytes);
  pivotal.positions.reserve(pivotal.ids.capacity());
  index->pivotal_indexes.reserve(pivotal.ids.capacity());
  s = DecodeEditLists(
      pivotal_reader, SectionId::kEditPivotalIndex, universe, kPivotalBytes,
      "posting rank outside the dictionary", /*strict_ids=*/false,
      [&](int, int* id) -> const char* {
        *id = pivotal_reader.I32();
        const int pivotal_index = pivotal_reader.I32();
        const int position = pivotal_reader.I32();
        if (*id < 0 || *id >= num_records || index->profiles[*id].is_short ||
            pivotal_index < 0 ||
            pivotal_index >=
                static_cast<int>(index->profiles[*id].pivotal.size())) {
          return "posting outside the collection";
        }
        if (!gram_fits(*id, position)) {
          return "posting position outside the padded string";
        }
        pivotal.ids.push_back(*id);
        index->pivotal_indexes.push_back(pivotal_index);
        pivotal.positions.push_back(position);
        return nullptr;
      },
      &pivotal.offsets);
  if (!s.ok()) return s;
  s = CheckConsumed(pivotal_reader, SectionId::kEditPivotalIndex);
  if (!s.ok()) return s;

  auto prefix_section = reader.Section(SectionId::kEditPrefixIndex);
  if (!prefix_section.ok()) return prefix_section.status();
  ByteReader prefix_reader = *prefix_section;
  constexpr size_t kPrefixBytes = 8;  // 2 i32 per posting
  EditDistanceSearcher::PostingLists& prefix = index->prefix;
  prefix.ids.reserve(prefix_reader.remaining() / kPrefixBytes);
  prefix.positions.reserve(prefix.ids.capacity());
  s = DecodeEditLists(
      prefix_reader, SectionId::kEditPrefixIndex, universe, kPrefixBytes,
      "posting rank outside the dictionary", /*strict_ids=*/false,
      [&](int, int* id) -> const char* {
        *id = prefix_reader.I32();
        const int position = prefix_reader.I32();
        if (*id < 0 || *id >= num_records) {
          return "posting outside the collection";
        }
        if (!gram_fits(*id, position)) {
          return "posting position outside the padded string";
        }
        prefix.ids.push_back(*id);
        prefix.positions.push_back(position);
        return nullptr;
      },
      &prefix.offsets);
  if (!s.ok()) return s;
  s = CheckConsumed(prefix_reader, SectionId::kEditPrefixIndex);
  if (!s.ok()) return s;

  auto lengths_section = reader.Section(SectionId::kEditLengths);
  if (!lengths_section.ok()) return lengths_section.status();
  ByteReader lengths_reader = *lengths_section;
  size_t max_length = 0;
  for (const std::string& record : *data) {
    max_length = std::max(max_length, record.size());
  }
  index->length_ids.reserve(lengths_reader.remaining() / 4);
  s = DecodeEditLists(
      lengths_reader, SectionId::kEditLengths, max_length + 1,
      4,  // i32 id
      "bucket length outside the collection", /*strict_ids=*/true,
      [&](int length, int* id) -> const char* {
        *id = lengths_reader.I32();
        if (*id < 0 || *id >= num_records) return "id outside the collection";
        if (static_cast<int>((*data)[*id].size()) != length) {
          return "id in the wrong length bucket";
        }
        index->length_ids.push_back(*id);
        return nullptr;
      },
      &index->length_offsets);
  if (!s.ok()) return s;
  index->short_ids = lengths_reader.VecI32();
  s = CheckConsumed(lengths_reader, SectionId::kEditLengths);
  if (!s.ok()) return s;
  for (int id : index->short_ids) {
    if (id < 0 || id >= num_records) {
      return SectionCorrupt(SectionId::kEditLengths,
                            "short id outside the collection");
    }
  }
  if (!StrictlyAscending(index->short_ids)) {
    return SectionCorrupt(SectionId::kEditLengths,
                          "short ids not strictly ascending");
  }

  LoadedEdit loaded;
  loaded.data = std::move(data);
  loaded.index = std::move(index);
  return loaded;
}

// --- Fixed-length edit distance fast path ---

void SaveEditFastSections(const std::vector<std::string>& data,
                          const editdist::CaseDecSearcher& searcher,
                          IndexFileWriter& writer) {
  ByteWriter strings;
  strings.U32(static_cast<uint32_t>(data.size()));
  strings.I32(searcher.length());
  for (const std::string& s : data) strings.Bytes(s.data(), s.size());
  writer.AddSection(SectionId::kEditFastStrings, std::move(strings).Take());
  ByteWriter meta;
  ByteWriter postings;
  meta.U32(static_cast<uint32_t>(searcher.cases().size()));
  for (const editdist::CaseDecSearcher::Case& c : searcher.cases()) {
    const hamming::PartitionIndex& index = c.searcher.partition_index();
    meta.I32(c.indels);
    meta.I32(c.hamming_tau);
    EncodePartition(meta, index.partition());
    EncodePostings(postings, index);
  }
  writer.AddSection(SectionId::kEditFastMeta, std::move(meta).Take());
  writer.AddSection(SectionId::kEditFastPostings,
                    std::move(postings).Take());
}

StatusOr<LoadedEditFast> LoadEditFastSections(const IndexFileReader& reader,
                                              int tau) {
  using editdist::CaseDecSearcher;

  auto strings_section = reader.Section(SectionId::kEditFastStrings);
  if (!strings_section.ok()) return strings_section.status();
  ByteReader strings_reader = *strings_section;
  const uint32_t n = strings_reader.U32();
  const int length = strings_reader.I32();
  if (!strings_reader.ok() || (n == 0 && length != 0) ||
      (n > 0 && (length < 1 || length > CaseDecSearcher::kMaxLength)) ||
      strings_reader.remaining() !=
          static_cast<size_t>(n) * static_cast<size_t>(length)) {
    return SectionCorrupt(SectionId::kEditFastStrings, "bad geometry");
  }
  auto data = std::make_unique<std::vector<std::string>>();
  data->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string s(static_cast<size_t>(length), '\0');
    strings_reader.ReadBytes(s.data(), s.size());
    data->push_back(std::move(s));
  }
  Status s = CheckConsumed(strings_reader, SectionId::kEditFastStrings);
  if (!s.ok()) return s;

  const int num_cases = CaseDecSearcher::NumCases(length, tau);
  auto meta_section = reader.Section(SectionId::kEditFastMeta);
  if (!meta_section.ok()) return meta_section.status();
  ByteReader meta_reader = *meta_section;
  const uint32_t file_cases = meta_reader.U32();
  if (!meta_reader.ok() || static_cast<int>(file_cases) != num_cases) {
    // The fingerprint already matched, so a differing case count means the
    // payload no longer agrees with the header.
    return SectionCorrupt(SectionId::kEditFastMeta,
                          "case count disagrees with the spec");
  }
  struct CaseMeta {
    int dims;
    std::vector<int> bounds;
  };
  std::vector<CaseMeta> metas;
  metas.reserve(num_cases);
  for (int j = 0; j < num_cases; ++j) {
    const int indels = meta_reader.I32();
    const int hamming_tau = meta_reader.I32();
    CaseMeta meta;
    meta.dims = meta_reader.I32();
    meta.bounds = meta_reader.VecI32();
    if (!meta_reader.ok() || indels != j ||
        hamming_tau != 2 * (tau - 2 * j) ||
        meta.dims != (length - j) * CaseDecSearcher::kBitsPerChar) {
      return SectionCorrupt(SectionId::kEditFastMeta,
                            "case geometry disagrees with the spec");
    }
    s = CheckBounds(meta.dims, meta.bounds, SectionId::kEditFastMeta,
                    "bad partition bounds");
    if (!s.ok()) return s;
    metas.push_back(std::move(meta));
  }
  s = CheckConsumed(meta_reader, SectionId::kEditFastMeta);
  if (!s.ok()) return s;

  auto postings_section = reader.Section(SectionId::kEditFastPostings);
  if (!postings_section.ok()) return postings_section.status();
  ByteReader postings_reader = *postings_section;
  LoadedEditFast loaded;
  loaded.cases.reserve(num_cases);
  for (int j = 0; j < num_cases; ++j) {
    const int64_t variants = CaseDecSearcher::VariantsPerRecord(length, j);
    const int64_t num_rows = static_cast<int64_t>(n) * variants;
    if (num_rows >= INT32_MAX) {
      return SectionCorrupt(SectionId::kEditFastMeta,
                            "case would exceed 2^31 signature rows");
    }
    hamming::Partition partition = hamming::Partition::FromBounds(
        metas[j].dims, std::move(metas[j].bounds));
    std::vector<hamming::PartitionIndex::Postings> parts;
    s = DecodePostings(postings_reader, SectionId::kEditFastPostings,
                       partition, num_rows, "meta", "signature row", &parts);
    if (!s.ok()) return s;
    // The signature rows are a pure re-encoding of the strings; rebuild
    // them and adopt the saved partition + postings without re-hashing.
    auto index = std::make_shared<const hamming::PartitionIndex>(
        hamming::PartitionIndex::FromSorted(std::move(partition),
                                            static_cast<int>(num_rows),
                                            std::move(parts)));
    // Case::exact is derived state; CaseDecSearcher::FromBuilt fills it.
    loaded.cases.push_back(
        {j, 2 * (tau - 2 * j),
         hamming::HammingSearcher::FromBuilt(
             CaseDecSearcher::BuildCaseRows(*data, length, j),
             std::move(index)),
         nullptr});
  }
  s = CheckConsumed(postings_reader, SectionId::kEditFastPostings);
  if (!s.ok()) return s;

  loaded.data = std::move(data);
  return loaded;
}

// --- Graphs ---

void SaveGraphSections(const std::vector<graphed::Graph>& data,
                       const graphed::GraphSearcher& searcher,
                       IndexFileWriter& writer) {
  const graphed::GraphSearcher::State& state = searcher.state();
  writer.AddSection(SectionId::kGraphData, EncodeGraphData(data));
  writer.AddSection(SectionId::kGraphParts, EncodeGraphParts(state.parts));
  writer.AddSection(SectionId::kGraphHistograms,
                    EncodeGraphHistograms(state.histograms));
}

StatusOr<LoadedGraph> LoadGraphSections(const IndexFileReader& reader,
                                        int tau) {
  auto data_section = reader.Section(SectionId::kGraphData);
  if (!data_section.ok()) return data_section.status();
  ByteReader data_reader = *data_section;
  const uint32_t n = data_reader.U32();
  if (!data_reader.ok() ||
      n > data_reader.remaining() / 12) {  // labels vec + edge count
    return SectionCorrupt(SectionId::kGraphData, "bad graph count");
  }
  auto data = std::make_unique<std::vector<graphed::Graph>>();
  data->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    graphed::Graph g;
    if (!DecodeGraph(data_reader, &g)) {
      return SectionCorrupt(SectionId::kGraphData, "malformed graph");
    }
    data->push_back(std::move(g));
  }
  Status s = CheckConsumed(data_reader, SectionId::kGraphData);
  if (!s.ok()) return s;

  auto parts_section = reader.Section(SectionId::kGraphParts);
  if (!parts_section.ok()) return parts_section.status();
  ByteReader parts_reader = *parts_section;
  const uint32_t parts_count = parts_reader.U32();
  if (!parts_reader.ok() || parts_count != n) {
    return SectionCorrupt(SectionId::kGraphParts,
                          "row count disagrees with the data section");
  }
  auto state = std::make_shared<graphed::GraphSearcher::State>();
  state->parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t num_parts = parts_reader.U32();
    // The Pars scan indexes parts[0 .. tau] — exactly tau + 1 per graph.
    if (!parts_reader.ok() || static_cast<int>(num_parts) != tau + 1) {
      return SectionCorrupt(SectionId::kGraphParts,
                            "part count does not match tau + 1");
    }
    std::vector<graphed::Part> graph_parts;
    graph_parts.reserve(num_parts);
    for (uint32_t p = 0; p < num_parts; ++p) {
      graphed::Part part;
      if (!DecodeGraph(parts_reader, &part.graph)) {
        return SectionCorrupt(SectionId::kGraphParts, "malformed part");
      }
      const uint64_t half_count = parts_reader.Count(8);  // 2 i32 per half
      if (!parts_reader.ok()) {
        return SectionCorrupt(SectionId::kGraphParts, "bad half-edge count");
      }
      part.half_edges.reserve(static_cast<size_t>(half_count));
      for (uint64_t h = 0; h < half_count; ++h) {
        const int v = parts_reader.I32();
        const int label = parts_reader.I32();
        if (!parts_reader.ok() || v < 0 || v >= part.graph.num_vertices()) {
          return SectionCorrupt(SectionId::kGraphParts,
                                "half-edge endpoint outside the part");
        }
        part.half_edges.emplace_back(v, label);
      }
      graph_parts.push_back(std::move(part));
    }
    state->parts.push_back(std::move(graph_parts));
  }
  s = CheckConsumed(parts_reader, SectionId::kGraphParts);
  if (!s.ok()) return s;

  auto hist_section = reader.Section(SectionId::kGraphHistograms);
  if (!hist_section.ok()) return hist_section.status();
  ByteReader hist_reader = *hist_section;
  const uint32_t hist_count = hist_reader.U32();
  if (!hist_reader.ok() || hist_count != n) {
    return SectionCorrupt(SectionId::kGraphHistograms,
                          "row count disagrees with the data section");
  }
  state->histograms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    graphed::GraphSearcher::LabelHistogram h;
    h.vertex_counts = hist_reader.VecI32();
    h.edge_counts = hist_reader.VecI32();
    h.num_vertices = hist_reader.I32();
    h.num_edges = hist_reader.I32();
    if (!hist_reader.ok()) {
      return SectionCorrupt(SectionId::kGraphHistograms,
                            "truncated histogram");
    }
    state->histograms.push_back(std::move(h));
  }
  s = CheckConsumed(hist_reader, SectionId::kGraphHistograms);
  if (!s.ok()) return s;

  LoadedGraph loaded;
  loaded.data = std::move(data);
  loaded.state = std::move(state);
  return loaded;
}

}  // namespace pigeonring::storage
