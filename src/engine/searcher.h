// The engine's Searcher concept and the four case-study adapters.
//
// A Searcher is a copyable, self-contained handle over one domain searcher
// with every per-domain parameter (threshold, chain length, filter mode)
// bound at construction. It exposes the uniform surface the batch drivers
// in engine/engine.h need:
//
//   size()       — number of records in the joined/probed collection
//   query(i)     — record i viewed as a query object
//   Search(q, s) — ids of all records matching q; the wrapped searcher
//                  fills the QueryStats itself
//
// Copy construction is the cloning mechanism for parallel execution: the
// engine drivers copy the adapter once per *extra* thread (thread 0 uses
// the caller's adapter in place), and the api layer copies it once per
// Session cursor. Copies are cheap because every wrapped searcher keeps
// its immutable state — indexes, collections, kernel mirrors — behind
// shared_ptr<const> (concurrent reads, no locks) and only its
// epoch-stamped per-query scratch per-copy. The set / edit / graph
// adapters additionally view their caller-owned collection through a
// const pointer (the api::Db snapshot owns it and outlives every cursor).
// Clones never share mutable state, so they are safe to use concurrently.

#ifndef PIGEONRING_ENGINE_SEARCHER_H_
#define PIGEONRING_ENGINE_SEARCHER_H_

#include <concepts>
#include <string>
#include <utility>
#include <vector>

#include "editdist/casedec.h"
#include "editdist/pivotal.h"
#include "engine/query_stats.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "setsim/pkwise.h"

namespace pigeonring::engine {

template <typename S>
concept Searcher =
    std::copy_constructible<S> &&
    requires(S s, const S cs, const typename S::Query& q, int i,
             QueryStats* stats) {
      typename S::Query;
      { cs.size() } -> std::convertible_to<int>;
      { cs.query(i) } -> std::convertible_to<const typename S::Query&>;
      { s.Search(q, stats) } -> std::same_as<std::vector<int>>;
    };

/// Hamming distance search (§6.1) with a fixed tau / chain length /
/// allocation mode. Owns the searcher, which owns the collection.
class HammingAdapter {
 public:
  using Query = BitVector;

  HammingAdapter(
      hamming::HammingSearcher searcher, int tau, int chain_length,
      hamming::AllocationMode mode = hamming::AllocationMode::kCostModel)
      : searcher_(std::move(searcher)),
        tau_(tau),
        chain_length_(chain_length),
        mode_(mode) {}

  int size() const { return searcher_.num_objects(); }
  const Query& query(int i) const { return searcher_.objects()[i]; }
  const hamming::HammingSearcher& searcher() const { return searcher_; }
  std::vector<int> Search(const Query& query, QueryStats* stats = nullptr) {
    return searcher_.Search(query, tau_, chain_length_, mode_, stats);
  }

 private:
  hamming::HammingSearcher searcher_;
  int tau_;
  int chain_length_;
  hamming::AllocationMode mode_;
};

/// Set similarity search (§6.2). The threshold and measure live in the
/// wrapped searcher; `collection` must outlive the adapter and all copies.
class SetAdapter {
 public:
  using Query = setsim::RankedSet;

  SetAdapter(setsim::PkwiseSearcher searcher,
             const setsim::SetCollection* collection, int chain_length)
      : searcher_(std::move(searcher)),
        collection_(collection),
        chain_length_(chain_length) {}

  int size() const { return collection_->num_records(); }
  const Query& query(int i) const { return collection_->record(i); }
  const setsim::PkwiseSearcher& searcher() const { return searcher_; }
  const setsim::SetCollection* collection() const { return collection_; }
  std::vector<int> Search(const Query& query, QueryStats* stats = nullptr) {
    return searcher_.Search(query, chain_length_, stats);
  }

 private:
  setsim::PkwiseSearcher searcher_;
  const setsim::SetCollection* collection_;
  int chain_length_;
};

/// String edit distance search (§6.3). `data` must outlive the adapter and
/// all copies (the wrapped searcher already points at it).
class EditAdapter {
 public:
  using Query = std::string;

  EditAdapter(editdist::EditDistanceSearcher searcher,
              const std::vector<std::string>* data, editdist::EditFilter filter,
              int chain_length)
      : searcher_(std::move(searcher)),
        data_(data),
        filter_(filter),
        chain_length_(chain_length) {}

  int size() const { return static_cast<int>(data_->size()); }
  const Query& query(int i) const { return (*data_)[i]; }
  const editdist::EditDistanceSearcher& searcher() const { return searcher_; }
  const std::vector<std::string>* data() const { return data_; }
  std::vector<int> Search(const Query& query, QueryStats* stats = nullptr) {
    return searcher_.Search(query, filter_, chain_length_, stats);
  }

 private:
  editdist::EditDistanceSearcher searcher_;
  const std::vector<std::string>* data_;
  editdist::EditFilter filter_;
  int chain_length_;
};

/// Fixed-length string edit distance search via case decomposition (the
/// fast path; see editdist/casedec.h). Interchangeable with EditAdapter —
/// same Query type, identical result sets on eligible collections. `data`
/// must outlive the adapter and all copies (the wrapped searcher already
/// points at it).
class EditFastAdapter {
 public:
  using Query = std::string;

  EditFastAdapter(editdist::CaseDecSearcher searcher,
                  const std::vector<std::string>* data, int chain_length)
      : searcher_(std::move(searcher)),
        data_(data),
        chain_length_(chain_length) {}

  int size() const { return static_cast<int>(data_->size()); }
  const Query& query(int i) const { return (*data_)[i]; }
  const editdist::CaseDecSearcher& searcher() const { return searcher_; }
  const std::vector<std::string>* data() const { return data_; }
  std::vector<int> Search(const Query& query, QueryStats* stats = nullptr) {
    return searcher_.Search(query, chain_length_, stats);
  }

 private:
  editdist::CaseDecSearcher searcher_;
  const std::vector<std::string>* data_;
  int chain_length_;
};

/// Graph edit distance search (§6.4). `data` must outlive the adapter and
/// all copies.
class GraphAdapter {
 public:
  using Query = graphed::Graph;

  GraphAdapter(graphed::GraphSearcher searcher,
               const std::vector<graphed::Graph>* data,
               graphed::GraphFilter filter, int chain_length)
      : searcher_(std::move(searcher)),
        data_(data),
        filter_(filter),
        chain_length_(chain_length) {}

  int size() const { return static_cast<int>(data_->size()); }
  const Query& query(int i) const { return (*data_)[i]; }
  const graphed::GraphSearcher& searcher() const { return searcher_; }
  const std::vector<graphed::Graph>* data() const { return data_; }
  std::vector<int> Search(const Query& query, QueryStats* stats = nullptr) {
    return searcher_.Search(query, filter_, chain_length_, stats);
  }

 private:
  graphed::GraphSearcher searcher_;
  const std::vector<graphed::Graph>* data_;
  graphed::GraphFilter filter_;
  int chain_length_;
};

static_assert(Searcher<HammingAdapter>);
static_assert(Searcher<SetAdapter>);
static_assert(Searcher<EditAdapter>);
static_assert(Searcher<EditFastAdapter>);
static_assert(Searcher<GraphAdapter>);

}  // namespace pigeonring::engine

#endif  // PIGEONRING_ENGINE_SEARCHER_H_
