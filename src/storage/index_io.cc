#include "storage/index_io.h"

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <ranges>
#include <span>
#include <type_traits>
#include <utility>

#include "editdist/qgram.h"
#include "graphed/partition.h"
#include "hamming/index.h"
#include "hamming/partition.h"
#include "setsim/prefix.h"
#include "storage/codec.h"

namespace pigeonring::storage {

Status SectionCorrupt(SectionId id, const std::string& what) {
  return Status::DataLoss("index section " +
                          std::to_string(static_cast<uint32_t>(id)) +
                          " corrupt: " + what);
}

void EncodeGraph(ByteWriter& w, const graphed::Graph& g) {
  w.VecI32(g.vertex_labels());
  w.U32(static_cast<uint32_t>(g.num_edges()));
  for (const graphed::Edge& e : g.edges()) {
    w.I32(e.u);
    w.I32(e.v);
    w.I32(e.label);
  }
}

bool DecodeGraph(ByteReader& r, graphed::Graph* g) {
  std::vector<int> labels = r.VecI32();
  if (!r.ok()) return false;
  *g = graphed::Graph(std::move(labels));
  const uint32_t num_edges = r.U32();
  if (!r.ok() || num_edges > r.remaining() / 12) return false;  // 3 i32
  for (uint32_t i = 0; i < num_edges; ++i) {
    const int u = r.I32();
    const int v = r.I32();
    const int label = r.I32();
    if (!r.ok() || u < 0 || v < 0 || u >= g->num_vertices() ||
        v >= g->num_vertices() || u == v || g->HasEdge(u, v)) {
      return false;
    }
    g->AddEdge(u, v, label);
  }
  return true;
}

namespace {

// Whether `ids` ascend strictly: the order every id list of the index
// keeps, and that ranged searches (common/id_limit.h) cut by binary
// search.
bool StrictlyAscending(std::span<const int> ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<>()) == ids.end();
}

// --- Row layouts ---
//
// Each row of a section is declared once, as its fields in wire order: one
// Fields(io, row) overload per row type, which the writer (Put) and the
// reader (Get) both walk; the reader's allocation guard (MinBytes, the
// fewest bytes a row can take) is the reader's walk over an empty row. A
// field's type picks its wire form:
//   int  i32 | uint64_t  u64 | bool  u8 (0 or 1) | pair<A, B>  A then B
//   std::string     u64 byte count + the bytes
//   vector<T>       u64 element count + the elements (so vector<int> is
//                   ByteWriter::VecI32's form)
//   graphed::Graph  EncodeGraph's form (storage/codec.h)
// A section of rows is a u32 row count and then the rows (EncodeRows,
// ReadRows).

template <typename T, typename Row>
concept Like = std::same_as<std::remove_const_t<T>, Row>;

// The bounds 0 = b_0 < ... < b_m = dims of a Hamming partition.
struct PartitionBounds {
  int dims = 0;
  std::vector<int> bounds;
};

// One case of the edit fast path's kEditFastMeta section.
struct CaseMeta {
  int indels = 0;
  int hamming_tau = 0;
  PartitionBounds partition;
};

void Fields(auto& io, Like<PartitionBounds> auto& p) { io(p.dims, p.bounds); }

void Fields(auto& io, Like<CaseMeta> auto& c) {
  io(c.indels, c.hamming_tau, c.partition);
}

void Fields(auto& io, Like<setsim::PrefixInfo> auto& p) {
  io(p.prefix_length, p.last_rank, p.class_count, p.class_threshold,
     p.suffix_threshold);
}

void Fields(auto& io, Like<editdist::Gram> auto& g) { io(g.rank, g.position); }

void Fields(auto& io, Like<editdist::GramProfile> auto& p) {
  io(p.is_short, p.prefix_last_rank, p.prefix, p.pivotal, p.pivotal_masks);
}

void Fields(auto& io, Like<graphed::Part> auto& p) {
  io(p.graph, p.half_edges);
}

void Fields(auto& io, Like<graphed::GraphSearcher::LabelHistogram> auto& h) {
  io(h.vertex_counts, h.edge_counts, h.num_vertices, h.num_edges);
}

struct Put {
  ByteWriter& w;

  template <typename... T>
  void operator()(const T&... fields) {
    (One(fields), ...);
  }
  void One(int v) { w.I32(v); }
  void One(uint64_t v) { w.U64(v); }
  void One(bool v) { w.U8(v ? 1 : 0); }
  void One(const std::string& s) { w.Str(s); }
  void One(const graphed::Graph& g) { EncodeGraph(w, g); }
  template <typename A, typename B>
  void One(const std::pair<A, B>& p) {
    One(p.first);
    One(p.second);
  }
  template <std::ranges::sized_range List>
  void One(const List& list) {
    w.U64(std::ranges::size(list));
    for (const auto& x : list) One(x);
  }
  template <typename T>
  void One(const T& row) {
    Fields(*this, row);
  }
};

template <typename T>
size_t MinBytes();

struct Get {
  ByteReader& r;
  bool graphs_ok = true;  // false once a graph failed DecodeGraph's checks

  template <typename... T>
  void operator()(T&... fields) {
    (One(fields), ...);
  }
  bool ok() const { return graphs_ok && r.ok(); }
  void One(int& v) { v = r.I32(); }
  void One(uint64_t& v) { v = r.U64(); }
  void One(bool& v) { v = r.U8() != 0; }
  void One(std::string& s) { s = r.Str(); }
  void One(graphed::Graph& g) { graphs_ok = graphs_ok && DecodeGraph(r, &g); }
  template <typename A, typename B>
  void One(std::pair<A, B>& p) {
    One(p.first);
    One(p.second);
  }
  template <typename T>
  void One(std::vector<T>& list) {
    const uint64_t count = r.Count(MinBytes<T>());
    list.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count && ok(); ++i) One(list.emplace_back());
  }
  template <typename T>
  void One(T& row) {
    Fields(*this, row);
  }
};

// The fewest bytes a T takes on the wire: what decoding an empty T (every
// count zero) consumes. It guards every count of T rows, so that a corrupt
// count cannot drive a runaway allocation.
template <typename T>
size_t MinBytes() {
  static const size_t bytes = [] {
    constexpr uint8_t kZeros[64] = {};
    ByteReader r(kZeros, sizeof(kZeros));
    T row{};
    Get{r}(row);
    PR_CHECK(r.ok());
    return sizeof(kZeros) - r.remaining();
  }();
  return bytes;
}

template <typename Rows>
void WriteRows(ByteWriter& w, const Rows& rows) {
  w.U32(static_cast<uint32_t>(rows.size()));
  Put put{w};
  for (const auto& row : rows) put(row);
}

template <typename Rows>
std::vector<uint8_t> EncodeRows(const Rows& rows) {
  ByteWriter w;
  WriteRows(w, rows);
  return std::move(w).Take();
}

// The rule a section's u32 row count keeps: exactly `expected` rows when
// set (an earlier section's count, or one the spec fixes), else no more
// than fit the bytes left. `bad` is the error when it breaks the rule.
struct RowCount {
  std::optional<size_t> expected;
  const char* bad;
};

Status ReadRowCount(ByteReader& r, SectionId id, const RowCount& count,
                    size_t min_row_bytes, uint32_t* n) {
  *n = r.U32();
  if (!r.ok() || (count.expected ? *n != *count.expected
                                 : *n > r.remaining() / min_row_bytes)) {
    return SectionCorrupt(id, count.bad);
  }
  return Status::Ok();
}

struct AnyRow {
  const char* operator()(const auto&, size_t) const { return nullptr; }
};

// Reads a row count under `count`'s rule, then each row in its declared
// layout, appending it to `rows` once `check(row, i)` returns null (or
// failing with the check's message).
template <typename Row, typename Check = AnyRow>
Status ReadRows(ByteReader& r, SectionId id, const RowCount& count,
                std::vector<Row>* rows, Check&& check = Check()) {
  uint32_t n = 0;
  Status s = ReadRowCount(r, id, count, MinBytes<Row>(), &n);
  if (!s.ok()) return s;
  rows->reserve(rows->size() + n);
  for (uint32_t i = 0; i < n; ++i) {
    Row row{};
    Get get{r};
    get(row);
    if (!get.ok()) {
      return SectionCorrupt(id, "malformed row " + std::to_string(i));
    }
    if (const char* bad = check(row, i)) return SectionCorrupt(id, bad);
    rows->push_back(std::move(row));
  }
  return Status::Ok();
}

// ReadRows over the whole of section `id`, which must hold nothing else.
template <typename Row, typename Check = AnyRow>
Status ReadRows(const IndexFileReader& file, SectionId id,
                const RowCount& count, std::vector<Row>* rows,
                Check&& check = Check()) {
  return ReadSection(file, id, [&](ByteReader& r) {
    return ReadRows(r, id, count, rows, check);
  });
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

Status DecodeHammingObjects(ByteReader& reader,
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
  return Status::Ok();
}

// One partition + postings codec, shared by the Hamming sections and the
// edit fast path's per-case sections.

PartitionBounds BoundsOf(const hamming::Partition& partition) {
  PartitionBounds p{partition.dimensions(), {0}};
  for (int part = 0; part < partition.num_parts(); ++part) {
    p.bounds.push_back(partition.end(part));
  }
  return p;
}

// What is wrong with decoded bounds, or null: they must run
// 0 = b_0 < ... < b_m = dims with every part 1..64 bits wide and m <= 64
// (the chain bitmask limit). `bad_shape` names a violation of anything
// but the part widths.
const char* BadBounds(const PartitionBounds& p, const char* bad_shape) {
  const std::vector<int>& bounds = p.bounds;
  if (p.dims < 1 || bounds.size() < 2 || bounds.front() != 0 ||
      bounds.back() != p.dims || bounds.size() > 65) {
    return bad_shape;
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    const int width = bounds[i] - bounds[i - 1];
    if (width < 1 || width > 64) return "part width outside [1, 64]";
  }
  return nullptr;
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

// --- Edit distance keyed lists ---

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

}  // namespace

// --- Hamming ---

void SaveHammingSections(const hamming::HammingSearcher& searcher,
                         IndexFileWriter& writer) {
  const hamming::PartitionIndex& index = searcher.partition_index();
  writer.AddSection(SectionId::kHammingObjects,
                    EncodeHammingObjects(searcher.objects()));
  ByteWriter partition;
  Put{partition}(BoundsOf(index.partition()));
  writer.AddSection(SectionId::kHammingPartition,
                    std::move(partition).Take());
  ByteWriter postings;
  EncodePostings(postings, index);
  writer.AddSection(SectionId::kHammingPostings, std::move(postings).Take());
}

StatusOr<LoadedHamming> LoadHammingSections(const IndexFileReader& reader) {
  LoadedHamming loaded;
  Status s = ReadSection(reader, SectionId::kHammingObjects,
                         [&](ByteReader& r) {
                           return DecodeHammingObjects(r, &loaded.objects);
                         });
  if (!s.ok()) return s;

  PartitionBounds geometry;
  s = ReadSection(reader, SectionId::kHammingPartition, [&](ByteReader& r) {
    Get{r}(geometry);
    return Status::Ok();
  });
  if (!s.ok()) return s;
  const char* bad = BadBounds(geometry, "bad geometry");
  if (bad == nullptr && !loaded.objects.empty() &&
      loaded.objects.front().dimensions() != geometry.dims) {
    bad = "partition dimensionality disagrees with the objects section";
  }
  if (bad != nullptr) return SectionCorrupt(SectionId::kHammingPartition, bad);
  hamming::Partition partition =
      hamming::Partition::FromBounds(geometry.dims, std::move(geometry.bounds));

  std::vector<hamming::PartitionIndex::Postings> parts;
  s = ReadSection(reader, SectionId::kHammingPostings, [&](ByteReader& r) {
    return DecodePostings(r, SectionId::kHammingPostings, partition,
                          static_cast<int64_t>(loaded.objects.size()),
                          "partition", "posting id", &parts);
  });
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
  writer.AddSection(SectionId::kSetRecords, EncodeRows(collection.records()));
  writer.AddSection(SectionId::kSetDictionary,
                    EncodeRows(collection.ExportDictionary()));
  writer.AddSection(SectionId::kSetPrefixes,
                    EncodeRows(searcher.index().prefixes));
  writer.AddSection(SectionId::kSetInverted,
                    EncodeRows(searcher.index().inverted));
}

StatusOr<LoadedSet> LoadSetSections(const IndexFileReader& reader,
                                    int num_boxes) {
  std::vector<setsim::RankedSet> records;
  Status s = ReadRows(reader, SectionId::kSetRecords,
                      {{}, "bad record count"}, &records);
  if (!s.ok()) return s;
  const size_t n = records.size();

  std::vector<std::pair<int, int>> dictionary;
  s = ReadRows(reader, SectionId::kSetDictionary, {{}, "bad entry count"},
               &dictionary);
  if (!s.ok()) return s;

  auto index = std::make_shared<setsim::PkwiseSearcher::Index>();
  s = ReadRows(reader, SectionId::kSetPrefixes,
               {n, "prefix count disagrees with the records section"},
               &index->prefixes,
               [&](const setsim::PrefixInfo& info, size_t) -> const char* {
                 const size_t classes = static_cast<size_t>(num_boxes);
                 return info.class_count.size() == classes &&
                                info.class_threshold.size() == classes
                            ? nullptr
                            : "prefix metadata does not match the spec's box "
                              "count";
               });
  if (!s.ok()) return s;

  s = ReadRows(reader, SectionId::kSetInverted,
               {dictionary.size(),
                "posting-list count disagrees with the dictionary section"},
               &index->inverted,
               [&](const std::vector<int>& ids, size_t) -> const char* {
                 for (int id : ids) {
                   if (id < 0 || static_cast<size_t>(id) >= n) {
                     return "posting id outside the collection";
                   }
                 }
                 // Searches cut each list to an id range by binary search (a
                 // join probe's half-probe, a shard), so an out-of-order list
                 // would drop pairs.
                 return StrictlyAscending(ids)
                            ? nullptr
                            : "posting ids not strictly ascending";
               });
  if (!s.ok()) return s;

  LoadedSet loaded;
  const int universe = static_cast<int>(dictionary.size());
  loaded.collection = std::make_unique<setsim::SetCollection>(
      setsim::SetCollection::FromBuilt(std::move(dictionary),
                                       std::move(records), universe));
  loaded.index = std::move(index);
  return loaded;
}

// --- Edit distance ---

void SaveEditSections(const std::vector<std::string>& data,
                      const editdist::EditDistanceSearcher& searcher,
                      IndexFileWriter& writer) {
  const editdist::EditDistanceSearcher::Index& index = searcher.index();
  writer.AddSection(SectionId::kEditStrings, EncodeRows(data));
  ByteWriter dictionary;
  Put{dictionary}(index.dictionary.kappa(), index.dictionary.ExportRanks());
  writer.AddSection(SectionId::kEditDictionary, std::move(dictionary).Take());
  writer.AddSection(SectionId::kEditProfiles, EncodeRows(index.profiles));
  writer.AddSection(SectionId::kEditPadded, EncodeRows(index.padded));
  std::vector<std::span<const uint64_t>> masks;
  for (size_t id = 0; id + 1 < index.window_offsets.size(); ++id) {
    masks.push_back(std::span<const uint64_t>(index.window_masks)
                        .subspan(index.window_offsets[id],
                                 index.window_offsets[id + 1] -
                                     index.window_offsets[id]));
  }
  writer.AddSection(SectionId::kEditWindowMasks, EncodeRows(masks));
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
  auto data = std::make_unique<std::vector<std::string>>();
  Status s = ReadRows(reader, SectionId::kEditStrings,
                      {{}, "bad record count"}, data.get());
  if (!s.ok()) return s;
  const size_t n = data->size();
  const RowCount one_per_string{n,
                                "row count disagrees with the strings section"};

  constexpr SectionId kDictionary = SectionId::kEditDictionary;
  std::vector<std::pair<std::string, int>> entries;
  s = ReadSection(reader, kDictionary, [&](ByteReader& r) {
    int file_kappa = 0;
    Get get{r};
    get(file_kappa);
    if (get.ok() && file_kappa != kappa) {
      // The fingerprint already matched, so a differing kappa means the
      // payload no longer agrees with the header.
      return SectionCorrupt(kDictionary, "gram length disagrees with the spec");
    }
    get(entries);
    return Status::Ok();
  });
  if (!s.ok()) return s;
  // The ranks index the posting lists: they must be a permutation of
  // [0, entry count), over distinct grams.
  std::vector<uint8_t> rank_seen(entries.size(), 0);
  for (const auto& [gram, rank] : entries) {
    if (rank < 0 || static_cast<size_t>(rank) >= entries.size()) {
      return SectionCorrupt(kDictionary, "gram rank outside [0, entry count)");
    }
    if (rank_seen[static_cast<size_t>(rank)]++ != 0) {
      return SectionCorrupt(kDictionary, "repeated gram rank");
    }
  }
  const size_t entry_count = entries.size();
  auto index = std::make_shared<EditDistanceSearcher::Index>(
      editdist::GramDictionary::FromBuilt(kappa, std::move(entries)));
  if (static_cast<size_t>(index->dictionary.universe_size()) != entry_count) {
    return SectionCorrupt(kDictionary, "repeated gram");
  }
  const size_t universe =
      static_cast<size_t>(index->dictionary.universe_size());

  // Padded strings next — profile gram positions are validated against
  // their lengths.
  s = ReadRows(reader, SectionId::kEditPadded, one_per_string, &index->padded,
               [&](const std::string& padded, size_t i) -> const char* {
                 return padded.size() == (*data)[i].size() + 2 * (kappa - 1)
                            ? nullptr
                            : "bad padded length";
               });
  if (!s.ok()) return s;
  // A gram at `position` must lie inside record `id`'s padded string.
  auto gram_fits = [&](int id, int position) {
    return position >= 0 &&
           position <= static_cast<int>(index->padded[id].size()) - kappa;
  };

  s = ReadRows(
      reader, SectionId::kEditProfiles, one_per_string, &index->profiles,
      [&](const editdist::GramProfile& profile, size_t i) -> const char* {
        for (const auto* grams : {&profile.prefix, &profile.pivotal}) {
          for (const editdist::Gram& g : *grams) {
            // A record's grams all come from the dictionary; a self-join
            // probe looks its stored ranks up in the posting lists.
            if (g.rank < 0 || static_cast<size_t>(g.rank) >= universe ||
                !gram_fits(static_cast<int>(i), g.position)) {
              return "gram rank outside the dictionary or position "
                     "outside the padded string";
            }
          }
        }
        // A non-short profile carries exactly tau + 1 pivotal grams — the
        // ring dimension the chain check indexes by.
        if (!profile.is_short &&
            (static_cast<int>(profile.pivotal.size()) != tau + 1 ||
             profile.pivotal_masks.size() != profile.pivotal.size())) {
          return "pivotal gram count does not match tau + 1";
        }
        if (profile.is_short &&
            !(profile.prefix.empty() && profile.pivotal.empty() &&
              profile.pivotal_masks.empty())) {
          return "short profile carries gram metadata";
        }
        return nullptr;
      });
  if (!s.ok()) return s;

  std::vector<std::vector<uint64_t>> masks;
  s = ReadRows(reader, SectionId::kEditWindowMasks, one_per_string, &masks,
               [&](const std::vector<uint64_t>& row, size_t i) -> const char* {
                 return row.size() == index->padded[i].size()
                            ? nullptr
                            : "mask count disagrees with the padded string";
               });
  if (!s.ok()) return s;
  index->window_offsets.reserve(n + 1);
  index->window_offsets.push_back(0);
  for (const std::vector<uint64_t>& row : masks) {
    index->window_masks.insert(index->window_masks.end(), row.begin(),
                               row.end());
    index->window_offsets.push_back(index->window_masks.size());
  }

  const int num_records = static_cast<int>(n);
  s = ReadSection(reader, SectionId::kEditPivotalIndex, [&](ByteReader& r) {
    constexpr size_t kPivotalBytes = 12;  // 3 i32 per posting
    EditDistanceSearcher::PostingLists& pivotal = index->pivotal;
    pivotal.ids.reserve(r.remaining() / kPivotalBytes);
    pivotal.positions.reserve(pivotal.ids.capacity());
    index->pivotal_indexes.reserve(pivotal.ids.capacity());
    return DecodeEditLists(
        r, SectionId::kEditPivotalIndex, universe, kPivotalBytes,
        "posting rank outside the dictionary", /*strict_ids=*/false,
        [&](int, int* id) -> const char* {
          *id = r.I32();
          const int pivotal_index = r.I32();
          const int position = r.I32();
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
  });
  if (!s.ok()) return s;

  s = ReadSection(reader, SectionId::kEditPrefixIndex, [&](ByteReader& r) {
    constexpr size_t kPrefixBytes = 8;  // 2 i32 per posting
    EditDistanceSearcher::PostingLists& prefix = index->prefix;
    prefix.ids.reserve(r.remaining() / kPrefixBytes);
    prefix.positions.reserve(prefix.ids.capacity());
    return DecodeEditLists(
        r, SectionId::kEditPrefixIndex, universe, kPrefixBytes,
        "posting rank outside the dictionary", /*strict_ids=*/false,
        [&](int, int* id) -> const char* {
          *id = r.I32();
          const int position = r.I32();
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
  });
  if (!s.ok()) return s;

  s = ReadSection(reader, SectionId::kEditLengths, [&](ByteReader& r) {
    constexpr SectionId lengths = SectionId::kEditLengths;
    size_t max_length = 0;
    for (const std::string& record : *data) {
      max_length = std::max(max_length, record.size());
    }
    index->length_ids.reserve(r.remaining() / 4);
    Status lists = DecodeEditLists(
        r, lengths, max_length + 1, 4,  // i32 id
        "bucket length outside the collection", /*strict_ids=*/true,
        [&](int length, int* id) -> const char* {
          *id = r.I32();
          if (*id < 0 || *id >= num_records) return "id outside the collection";
          if (static_cast<int>((*data)[*id].size()) != length) {
            return "id in the wrong length bucket";
          }
          index->length_ids.push_back(*id);
          return nullptr;
        },
        &index->length_offsets);
    if (!lists.ok()) return lists;
    index->short_ids = r.VecI32();
    for (int short_id : index->short_ids) {
      if (short_id < 0 || short_id >= num_records) {
        return SectionCorrupt(lengths, "short id outside the collection");
      }
    }
    return StrictlyAscending(index->short_ids)
               ? Status::Ok()
               : SectionCorrupt(lengths, "short ids not strictly ascending");
  });
  if (!s.ok()) return s;

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
  std::vector<CaseMeta> metas;
  ByteWriter postings;
  for (const editdist::CaseDecSearcher::Case& c : searcher.cases()) {
    const hamming::PartitionIndex& index = c.searcher.partition_index();
    metas.push_back({c.indels, c.hamming_tau, BoundsOf(index.partition())});
    EncodePostings(postings, index);
  }
  writer.AddSection(SectionId::kEditFastMeta, EncodeRows(metas));
  writer.AddSection(SectionId::kEditFastPostings,
                    std::move(postings).Take());
}

StatusOr<LoadedEditFast> LoadEditFastSections(const IndexFileReader& reader,
                                              int tau) {
  using editdist::CaseDecSearcher;
  auto data = std::make_unique<std::vector<std::string>>();
  int length = 0;
  Status s =
      ReadSection(reader, SectionId::kEditFastStrings, [&](ByteReader& r) {
        const uint32_t n = r.U32();
        length = r.I32();
        if (!r.ok() || (n == 0 && length != 0) ||
            (n > 0 && (length < 1 || length > CaseDecSearcher::kMaxLength)) ||
            r.remaining() !=
                static_cast<size_t>(n) * static_cast<size_t>(length)) {
          return SectionCorrupt(SectionId::kEditFastStrings, "bad geometry");
        }
        data->reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          std::string record(static_cast<size_t>(length), '\0');
          r.ReadBytes(record.data(), record.size());
          data->push_back(std::move(record));
        }
        return Status::Ok();
      });
  if (!s.ok()) return s;

  // The fingerprint already matched, so a case count or geometry that
  // disagrees with the spec means the payload no longer agrees with the
  // header.
  const int num_cases = CaseDecSearcher::NumCases(length, tau);
  std::vector<CaseMeta> metas;
  s = ReadRows(
      reader, SectionId::kEditFastMeta,
      {static_cast<size_t>(num_cases), "case count disagrees with the spec"},
      &metas, [&](const CaseMeta& meta, size_t i) -> const char* {
        const int j = static_cast<int>(i);
        if (meta.indels != j || meta.hamming_tau != 2 * (tau - 2 * j) ||
            meta.partition.dims !=
                (length - j) * CaseDecSearcher::kBitsPerChar) {
          return "case geometry disagrees with the spec";
        }
        return BadBounds(meta.partition, "bad partition bounds");
      });
  if (!s.ok()) return s;

  LoadedEditFast loaded;
  loaded.cases.reserve(num_cases);
  s = ReadSection(reader, SectionId::kEditFastPostings, [&](ByteReader& r) {
    for (int j = 0; j < num_cases; ++j) {
      const int64_t num_rows = static_cast<int64_t>(data->size()) *
                               CaseDecSearcher::VariantsPerRecord(length, j);
      if (num_rows >= INT32_MAX) {
        return SectionCorrupt(SectionId::kEditFastMeta,
                              "case would exceed 2^31 signature rows");
      }
      hamming::Partition partition = hamming::Partition::FromBounds(
          metas[j].partition.dims, std::move(metas[j].partition.bounds));
      std::vector<hamming::PartitionIndex::Postings> parts;
      Status decoded =
          DecodePostings(r, SectionId::kEditFastPostings, partition, num_rows,
                         "meta", "signature row", &parts);
      if (!decoded.ok()) return decoded;
      // The signature rows are a pure re-encoding of the strings; rebuild
      // them and adopt the saved partition + postings without re-hashing.
      // Case::exact is derived state the CaseDecSearcher constructor fills.
      loaded.cases.push_back(
          {j, 2 * (tau - 2 * j),
           hamming::HammingSearcher(
               CaseDecSearcher::BuildCaseRows(*data, length, j),
               std::make_shared<const hamming::PartitionIndex>(
                   hamming::PartitionIndex::FromSorted(
                       std::move(partition), static_cast<int>(num_rows),
                       std::move(parts)))),
           nullptr});
    }
    return Status::Ok();
  });
  if (!s.ok()) return s;

  loaded.data = std::move(data);
  return loaded;
}

// --- Graphs ---

void SaveGraphSections(const std::vector<graphed::Graph>& data,
                       const graphed::GraphSearcher& searcher,
                       IndexFileWriter& writer) {
  const graphed::GraphSearcher::State& state = searcher.state();
  writer.AddSection(SectionId::kGraphData, EncodeRows(data));
  // A row of kGraphParts is itself rows: one graph's parts.
  ByteWriter parts;
  parts.U32(static_cast<uint32_t>(state.parts.size()));
  for (const std::vector<graphed::Part>& graph_parts : state.parts) {
    WriteRows(parts, graph_parts);
  }
  writer.AddSection(SectionId::kGraphParts, std::move(parts).Take());
  writer.AddSection(SectionId::kGraphHistograms, EncodeRows(state.histograms));
}

StatusOr<LoadedGraph> LoadGraphSections(const IndexFileReader& reader,
                                        int tau) {
  auto data = std::make_unique<std::vector<graphed::Graph>>();
  Status s = ReadRows(reader, SectionId::kGraphData, {{}, "bad graph count"},
                      data.get());
  if (!s.ok()) return s;
  const RowCount one_per_graph{data->size(),
                               "row count disagrees with the data section"};

  auto state = std::make_shared<graphed::GraphSearcher::State>();
  s = ReadSection(reader, SectionId::kGraphParts, [&](ByteReader& r) {
    uint32_t n = 0;
    Status rows = ReadRowCount(r, SectionId::kGraphParts, one_per_graph,
                               /*min_row_bytes=*/4, &n);
    for (uint32_t i = 0; rows.ok() && i < n; ++i) {
      // The Pars scan indexes parts[0 .. tau] — exactly tau + 1 per graph.
      rows = ReadRows(
          r, SectionId::kGraphParts,
          {static_cast<size_t>(tau) + 1, "part count does not match tau + 1"},
          &state->parts.emplace_back(),
          [](const graphed::Part& part, size_t) -> const char* {
            for (const auto& [v, label] : part.half_edges) {
              if (v < 0 || v >= part.graph.num_vertices()) {
                return "half-edge endpoint outside the part";
              }
            }
            return nullptr;
          });
    }
    return rows;
  });
  if (!s.ok()) return s;

  s = ReadRows(reader, SectionId::kGraphHistograms, one_per_graph,
               &state->histograms);
  if (!s.ok()) return s;

  LoadedGraph loaded;
  loaded.data = std::move(data);
  loaded.state = std::move(state);
  return loaded;
}

}  // namespace pigeonring::storage
