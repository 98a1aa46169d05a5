// Per-domain section codecs for the persistent index format.
//
// Each Save*Sections function serializes one domain's *built* state —
// the raw collection plus every derived index structure — into typed
// sections of an IndexFileWriter; each Load*Sections function decodes the
// sections back into ready-to-use structures that the searchers' adopting
// constructors take over without re-deriving anything (the dictionaries'
// hash tables are rebuilt by keyed insertion from their deterministic
// sorted dumps, and the Hamming, fast-path and edit postings decode
// straight into their flat CSR arrays: data movement, not index
// construction).
//
// Layouts are declared once: most sections are a u32 row count and rows,
// each row type listing its fields in wire order in one place that the
// writer, the reader and the reader's allocation guard all walk. The
// Hamming objects and postings and the edit keyed lists keep their own
// loops. Every section is read through ReadSection (storage/codec.h).
//
// Determinism: every unordered container is dumped in sorted key order and
// every list in build order, so two Saves of the same Db are byte-identical
// and a loaded snapshot answers queries byte-identically to the builder.
//
// Hostile-input contract: loaders never crash on corrupt payloads. Every
// count passes through an allocation guard and every decoded value that
// later drives indexing (object ids, gram positions, vertex numbers,
// partition bounds) is range-checked here, returning kDataLoss.

#ifndef PIGEONRING_STORAGE_INDEX_IO_H_
#define PIGEONRING_STORAGE_INDEX_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "editdist/casedec.h"
#include "editdist/pivotal.h"
#include "graphed/graph.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"
#include "storage/index_file.h"

namespace pigeonring::storage {

// --- Hamming distance (§6.1): objects + partition + postings ---

void SaveHammingSections(const hamming::HammingSearcher& searcher,
                         IndexFileWriter& writer);

struct LoadedHamming {
  std::vector<BitVector> objects;
  std::shared_ptr<const hamming::PartitionIndex> index;
};
StatusOr<LoadedHamming> LoadHammingSections(const IndexFileReader& reader);

// --- Set similarity (§6.2): records + dictionary + prefixes + postings ---

void SaveSetSections(const setsim::SetCollection& collection,
                     const setsim::PkwiseSearcher& searcher,
                     IndexFileWriter& writer);

struct LoadedSet {
  std::unique_ptr<setsim::SetCollection> collection;
  std::shared_ptr<const setsim::PkwiseSearcher::Index> index;
};
/// `num_boxes` is the opening spec's box count m — prefix metadata is
/// validated against its m - 1 classes.
StatusOr<LoadedSet> LoadSetSections(const IndexFileReader& reader,
                                    int num_boxes);

// --- String edit distance (§6.3): strings + gram machinery ---

void SaveEditSections(const std::vector<std::string>& data,
                      const editdist::EditDistanceSearcher& searcher,
                      IndexFileWriter& writer);

struct LoadedEdit {
  std::unique_ptr<std::vector<std::string>> data;
  std::shared_ptr<editdist::EditDistanceSearcher::Index> index;
};
/// `tau` and `kappa` are the opening spec's values — profile and posting
/// geometry is validated against them.
StatusOr<LoadedEdit> LoadEditSections(const IndexFileReader& reader, int tau,
                                      int kappa);

// --- Fixed-length edit distance fast path (editdist/casedec.h) ---
//
// The signature bit rows are *derived* data (a pure positional re-encoding
// of the strings), so only the strings, the per-case partition geometry,
// and the per-case postings are persisted; the loader re-encodes the rows
// deterministically (data movement, not index construction) and hands them
// with the saved partition + postings to the Hamming searcher's adopting
// constructor.

void SaveEditFastSections(const std::vector<std::string>& data,
                          const editdist::CaseDecSearcher& searcher,
                          IndexFileWriter& writer);

struct LoadedEditFast {
  std::unique_ptr<std::vector<std::string>> data;
  std::vector<editdist::CaseDecSearcher::Case> cases;
};
/// `tau` is the opening spec's threshold — the case count and per-case
/// thresholds are validated against it.
StatusOr<LoadedEditFast> LoadEditFastSections(const IndexFileReader& reader,
                                              int tau);

// --- Graph edit distance (§6.4): graphs + partitions + histograms ---

void SaveGraphSections(const std::vector<graphed::Graph>& data,
                       const graphed::GraphSearcher& searcher,
                       IndexFileWriter& writer);

struct LoadedGraph {
  std::unique_ptr<std::vector<graphed::Graph>> data;
  std::shared_ptr<const graphed::GraphSearcher::State> state;
};
/// `tau` is the opening spec's threshold — every graph must carry exactly
/// tau + 1 parts.
StatusOr<LoadedGraph> LoadGraphSections(const IndexFileReader& reader,
                                        int tau);

}  // namespace pigeonring::storage

#endif  // PIGEONRING_STORAGE_INDEX_IO_H_
