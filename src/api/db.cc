#include "api/db.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "api/internal.h"
#include "core/advisor.h"
#include "editdist/casedec.h"
#include "editdist/pivotal.h"
#include "editdist/verify.h"
#include "engine/engine.h"
#include "graphed/ged.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "io/dataset_io.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"
#include "shard/partitioner.h"
#include "shard/scatter.h"
#include "storage/bytes.h"
#include "storage/codec.h"
#include "storage/index_file.h"
#include "storage/index_io.h"

namespace pigeonring::api {

namespace internal {
namespace {

// --- Per-domain rules ---
//
// Model<S> below is one class for all five adapters. What really differs
// between the domains is this handful of overloads on the adapter or the
// query type; each generic version covers the domains without the rule.

/// The shape rule past a query's domain: a Hamming query must match the
/// index's width (any width passes on an empty base).
template <typename S>
Status CheckShape(const S&, const Query&) {
  return Status::Ok();
}

Status CheckShape(const engine::HammingAdapter& adapter, const Query& query) {
  const int d = std::get<BitVector>(query).dimensions();
  if (adapter.size() == 0) return Status::Ok();
  const int dimensions = adapter.query(0).dimensions();
  if (d != dimensions) {
    return Status::InvalidArgument("query has " + std::to_string(d) +
                                   " dimensions but the index has " +
                                   std::to_string(dimensions));
  }
  return Status::Ok();
}

/// Raw, sorted, deduplicated tokens of a set query. A ranked query is
/// unranked through the base dictionary; a rank outside it (possible only
/// for hand-built queries) becomes a unique placeholder token, inert for
/// matching but still counted in set sizes, mirroring MapQuery's treatment
/// of unseen raw tokens.
std::vector<int> RawTokens(const setsim::SetCollection& collection,
                           const SetQuery& query) {
  std::vector<int> tokens;
  if (query.ranked) {
    tokens.reserve(query.tokens.size());
    int placeholders = 0;
    for (int rank : query.tokens) {
      const std::optional<int> token = collection.Token(rank);
      if (token) {
        tokens.push_back(*token);
      } else {
        tokens.push_back(std::numeric_limits<int>::min() + placeholders++);
      }
    }
  } else {
    tokens = query.tokens;
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

/// The canonical stored form of a validated insert, or its insert-only
/// shape error. Strings and graphs store as given.
template <typename S>
StatusOr<Query> InsertForm(const S&, const Query& query) {
  return query;
}

StatusOr<Query> InsertForm(const engine::HammingAdapter&, const Query& query) {
  if (std::get<BitVector>(query).dimensions() < 1) {
    return Status::InvalidArgument("cannot insert a 0-dimensional vector");
  }
  return query;
}

StatusOr<Query> InsertForm(const engine::EditFastAdapter& adapter,
                           const Query& query) {
  // The case-decomposition index only covers one fixed length; inserts
  // must keep the collection eligible so compaction can rebuild under
  // the resolved edit_fast_path=on. (On an empty base any legal length
  // is fine; the writer cross-checks pending inserts against each
  // other.)
  const std::string& s = std::get<std::string>(query);
  const int max_length = editdist::CaseDecSearcher::kMaxLength;
  if (adapter.size() > 0) {
    const int length = static_cast<int>(adapter.query(0).size());
    if (static_cast<int>(s.size()) != length) {
      return Status::InvalidArgument(
          "edit_fast_path=on indexes fixed-length strings: cannot insert a " +
          std::to_string(s.size()) + "-char string into a length-" +
          std::to_string(length) + " collection");
    }
  } else if (s.empty() || static_cast<int>(s.size()) > max_length) {
    return Status::InvalidArgument(
        "edit_fast_path=on requires string lengths in [1, " +
        std::to_string(max_length) + "]");
  }
  return query;
}

/// Sets store raw token ids. A ranked insert only round-trips to tokens
/// when every rank exists in the base dictionary; a placeholder token
/// would insert garbage.
StatusOr<Query> InsertForm(const engine::SetAdapter& adapter,
                           const Query& query) {
  const SetQuery& set_query = std::get<SetQuery>(query);
  const setsim::SetCollection& collection = *adapter.collection();
  if (set_query.ranked) {
    for (int rank : set_query.tokens) {
      if (!collection.Token(rank)) {
        return Status::InvalidArgument(
            "cannot insert a ranked set query: rank " + std::to_string(rank) +
            " is outside the base dictionary [0, " +
            std::to_string(collection.universe_size()) +
            "); pass raw token ids instead");
      }
    }
  }
  return Query(SetQuery{RawTokens(collection, set_query), /*ranked=*/false});
}

/// The canonical form of a validated probe for Within: set probes unrank
/// to raw tokens, the rest pass through.
template <typename S>
Query ProbeForm(const S&, const Query& query) {
  return query;
}

Query ProbeForm(const engine::SetAdapter& adapter, const Query& query) {
  return Query(SetQuery{
      RawTokens(*adapter.collection(), std::get<SetQuery>(query)),
      /*ranked=*/false});
}

// The exact threshold predicate per query type, between a canonical probe
// and a canonical delta record. Each is deliberately the same test the
// searcher's verification step runs, so a record matched out of the delta
// side table and the same record matched after compaction agree bit for
// bit.

bool Within(const BitVector& probe, const BitVector& record,
            const IndexSpec& spec) {
  // On an empty base a probe of any width validates; a width mismatch
  // with the pending inserts is simply no match.
  return probe.dimensions() == record.dimensions() &&
         probe.HammingDistance(record) <= static_cast<int>(spec.tau);
}

bool Within(const SetQuery& probe, const SetQuery& record,
            const IndexSpec& spec) {
  // The pkwise predicate in token space (overlap is invariant under the
  // rank relabeling).
  const std::vector<int>& x = probe.tokens;
  const std::vector<int>& y = record.tokens;
  if (spec.measure == setsim::SetMeasure::kJaccard) {
    return setsim::OverlapAtLeast(
        x, y,
        setsim::JaccardOverlapThreshold(static_cast<int>(x.size()),
                                        static_cast<int>(y.size()), spec.tau));
  }
  return setsim::OverlapAtLeast(x, y, static_cast<int>(spec.tau));
}

bool Within(const std::string& probe, const std::string& record,
            const IndexSpec& spec) {
  const int tau = static_cast<int>(spec.tau);
  return editdist::BandedEditDistance(probe, record, tau) <= tau;
}

bool Within(const graphed::Graph& probe, const graphed::Graph& record,
            const IndexSpec& spec) {
  const int tau = static_cast<int>(spec.tau);
  return graphed::GraphEditDistanceWithin(probe, record, tau) <= tau;
}

/// Record `id` in its public form, the RecordQuery and RawDataset element:
/// set records unrank to raw token ids, the rest read as stored.
template <typename S>
const typename S::Query& RawRecord(const S& adapter, int id) {
  return adapter.query(id);
}

std::vector<int> RawRecord(const engine::SetAdapter& adapter, int id) {
  return adapter.collection()->RawRecord(id);
}

template <typename T>
Query AsQuery(T record) {
  return Query(std::move(record));
}

Query AsQuery(std::vector<int> tokens) {
  return Query(SetQuery{std::move(tokens), /*ranked=*/false});
}

/// A validated query in the adapter's representation: raw set queries map
/// through the frequency-rank dictionary.
template <typename S>
const typename S::Query& ToDomain(const S&, const Query& query) {
  return std::get<typename S::Query>(query);
}

setsim::RankedSet ToDomain(const engine::SetAdapter& adapter,
                           const Query& query) {
  const SetQuery& set_query = std::get<SetQuery>(query);
  if (set_query.ranked) return set_query.tokens;
  return adapter.collection()->MapQuery(set_query.tokens);
}

template <typename S>
std::vector<typename S::Query> ToDomain(const S& adapter,
                                        const std::vector<Query>& queries) {
  std::vector<typename S::Query> domain_queries;
  domain_queries.reserve(queries.size());
  for (const Query& query : queries) {
    domain_queries.push_back(ToDomain(adapter, query));
  }
  return domain_queries;
}

void WriteSections(const engine::HammingAdapter& adapter,
                   storage::IndexFileWriter& writer) {
  storage::SaveHammingSections(adapter.searcher(), writer);
}

void WriteSections(const engine::SetAdapter& adapter,
                   storage::IndexFileWriter& writer) {
  storage::SaveSetSections(*adapter.collection(), adapter.searcher(), writer);
}

void WriteSections(const engine::EditAdapter& adapter,
                   storage::IndexFileWriter& writer) {
  storage::SaveEditSections(*adapter.data(), adapter.searcher(), writer);
}

void WriteSections(const engine::EditFastAdapter& adapter,
                   storage::IndexFileWriter& writer) {
  storage::SaveEditFastSections(*adapter.data(), adapter.searcher(), writer);
}

void WriteSections(const engine::GraphAdapter& adapter,
                   storage::IndexFileWriter& writer) {
  storage::SaveGraphSections(*adapter.data(), adapter.searcher(), writer);
}

// The immutable snapshot behind one Db, for every adapter type. It holds
// the resolved spec, the *prototype* adapter, `owned` (which keeps alive
// the collection a set / edit / graph adapter views; null for Hamming,
// whose searcher owns its objects) and, iff spec.shards > 1, the shard
// fleet. The prototype is immutable after construction; every cursor gets
// its own copy (cheap — the searchers share their index state behind
// shared_ptr) and forwards to the templated engine drivers, so the only
// erased work per call is the query-list conversion.
//
// A fleet is only id ranges and executors (shard/scatter.h): every shard
// searches the one prototype, so only NewCursor changes, minting a
// scatter-gather cursor over the fleet.
template <engine::Searcher S>
class Model final : public AnySearcher {
 public:
  Model(IndexSpec spec, S adapter, std::shared_ptr<const void> owned)
      : spec_(std::move(spec)),
        owned_(std::move(owned)),
        adapter_(std::move(adapter)) {
    if (spec_.shards > 1) {
      fleet_ = shard::MakeFleet(adapter_.size(), spec_.shards);
    }
  }

  int size() const override { return adapter_.size(); }

  StatusOr<Query> RecordQuery(int id) const override {
    return AsQuery(RawRecord(adapter_, id));
  }

  Status ValidateQuery(const Query& query) const override {
    const Domain domain = QueryDomain(query);
    if (domain != spec_.domain) {
      return Status::InvalidArgument(
          "query is a " + std::string(DomainName(domain)) +
          " query but the index domain is " + DomainName(spec_.domain));
    }
    return CheckShape(adapter_, query);
  }

  std::unique_ptr<AnyCursor> NewCursor() const override {
    if (fleet_ != nullptr) {
      return std::make_unique<ShardedCursor>(adapter_, fleet_);
    }
    return std::make_unique<Cursor>(adapter_);
  }

  void SaveSections(storage::IndexFileWriter& writer) const override {
    WriteSections(adapter_, writer);
  }

  StatusOr<Query> CanonicalizeInsert(const Query& query) const override {
    Status valid = ValidateQuery(query);
    if (!valid.ok()) return valid;
    return InsertForm(adapter_, query);
  }

  Query CanonicalizeProbe(const Query& query) const override {
    return ProbeForm(adapter_, query);
  }

  bool DeltaMatch(const Query& probe, const Query& record) const override {
    return std::visit(
        [&](const auto& p) {
          return Within(p, std::get<std::decay_t<decltype(p)>>(record), spec_);
        },
        probe);
  }

  Dataset RawDataset() const override {
    std::vector<std::decay_t<decltype(RawRecord(adapter_, 0))>> raw;
    raw.reserve(adapter_.size());
    for (int id = 0; id < adapter_.size(); ++id) {
      raw.push_back(RawRecord(adapter_, id));
    }
    return raw;
  }

 private:
  class Cursor : public AnyCursor {
   public:
    explicit Cursor(S adapter) : adapter_(std::move(adapter)) {}

    std::vector<int> SearchOne(const Query& query,
                               engine::QueryStats* stats) override {
      return adapter_.Search(ToDomain(adapter_, query), stats);
    }

    std::vector<std::vector<int>> SearchBatch(
        const std::vector<Query>& queries,
        const engine::ExecutionContext& ctx,
        engine::QueryStats* stats) override {
      return engine::SearchBatch(adapter_, ToDomain(adapter_, queries), ctx,
                                 stats);
    }

    std::vector<engine::IdPair> SelfJoin(const engine::ExecutionContext& ctx,
                                         engine::JoinStats* stats) override {
      return engine::SelfJoin(adapter_, ctx, stats);
    }

   private:
    S adapter_;
  };

  // The scatter-gather counterpart of Cursor for searches: one clone of
  // the prototype per shard range, merged through shard/scatter.h so the
  // answer is byte-identical to the unsharded cursor's at any shard /
  // thread count. Self-joins run unsharded.
  class ShardedCursor : public AnyCursor {
   public:
    ShardedCursor(const S& full, std::shared_ptr<const shard::Fleet> fleet)
        : full_(full),
          fleet_(std::move(fleet)),
          scratch_(std::max<size_t>(1, fleet_->shards.size()), full) {}

    std::vector<int> SearchOne(const Query& query,
                               engine::QueryStats* stats) override {
      return shard::ScatterSearchOne(*fleet_, scratch_,
                                     ToDomain(full_, query), stats);
    }

    std::vector<std::vector<int>> SearchBatch(
        const std::vector<Query>& queries,
        const engine::ExecutionContext& ctx,
        engine::QueryStats* stats) override {
      return shard::ScatterSearchBatch(*fleet_, scratch_,
                                       ToDomain(full_, queries),
                                       ShardOptions(ctx), stats);
    }

    // A self-join is one pass of half-probes over the whole index, on the
    // caller's context: every probe's range is [0, p) whatever the shard
    // layout, so splitting the probes by shard would only split each
    // probe's posting lists and repeat its set-up once per shard.
    std::vector<engine::IdPair> SelfJoin(const engine::ExecutionContext& ctx,
                                         engine::JoinStats* stats) override {
      return engine::SelfJoin(scratch_.front(), ctx, stats);
    }

   private:
    /// The caller's thread budget divided across the shard executors
    /// (floor, min 1): shards run concurrently, so handing each the full
    /// width would oversubscribe the machine S-fold. Results are
    /// byte-identical at any width.
    engine::ExecutionOptions ShardOptions(
        const engine::ExecutionContext& ctx) const {
      const int num_shards =
          std::max<int>(1, static_cast<int>(fleet_->shards.size()));
      engine::ExecutionOptions options;
      options.num_threads = std::max(1, ctx.num_threads() / num_shards);
      options.chunk = static_cast<int>(ctx.chunk());
      return options;
    }

    // The owning snapshot outlives every cursor (sessions and in-flight
    // submissions pin it), so a plain reference is safe.
    const S& full_;  // the model's prototype: maps queries
    std::shared_ptr<const shard::Fleet> fleet_;
    // One mutable clone per shard, and at least one: an empty collection
    // has no shards but still self-joins (to nothing) on scratch_[0].
    std::vector<S> scratch_;
  };

  IndexSpec spec_;
  std::shared_ptr<const void> owned_;  // declared first: adapter_ views it
  S adapter_;
  std::shared_ptr<const shard::Fleet> fleet_;
};

bool RingEnabled(const IndexSpec& spec) {
  switch (spec.filter) {
    case FilterMode::kBaseline:
      return false;
    case FilterMode::kRing:
      return true;
    case FilterMode::kAuto:
      break;
  }
  return spec.chain_length > 1;
}

// --- Searcher -> model ---
//
// The tail every build and load ends in: one MakeAdapter per adapter type
// binds the spec's per-query parameters (threshold, chain length, filter,
// allocation mode), and NewModel erases the adapter into a Model that
// keeps alive the collection `data` the adapter views.

engine::SetAdapter MakeAdapter(const IndexSpec& spec,
                               setsim::PkwiseSearcher searcher,
                               const setsim::SetCollection* collection) {
  return engine::SetAdapter(std::move(searcher), collection,
                            RingEnabled(spec) ? spec.chain_length : 1);
}

engine::EditAdapter MakeAdapter(const IndexSpec& spec,
                                editdist::EditDistanceSearcher searcher,
                                const std::vector<std::string>* data) {
  return engine::EditAdapter(std::move(searcher), data,
                             RingEnabled(spec) ? editdist::EditFilter::kRing
                                               : editdist::EditFilter::kPivotal,
                             spec.chain_length);
}

engine::EditFastAdapter MakeAdapter(const IndexSpec& spec,
                                    editdist::CaseDecSearcher searcher,
                                    const std::vector<std::string>* data) {
  return engine::EditFastAdapter(std::move(searcher), data,
                                 spec.chain_length);
}

engine::GraphAdapter MakeAdapter(const IndexSpec& spec,
                                 graphed::GraphSearcher searcher,
                                 const std::vector<graphed::Graph>* data) {
  return engine::GraphAdapter(std::move(searcher), data,
                              RingEnabled(spec) ? graphed::GraphFilter::kRing
                                                : graphed::GraphFilter::kPars,
                              spec.chain_length);
}

/// `data` (a shared_ptr or unique_ptr) binds by reference, so a caller can
/// pass std::move(data) beside a searcher built over data.get().
template <typename Searcher, typename Owner>
std::unique_ptr<const AnySearcher> NewModel(const IndexSpec& spec,
                                            Searcher searcher, Owner&& data) {
  auto adapter = MakeAdapter(spec, std::move(searcher), data.get());
  return std::make_unique<Model<decltype(adapter)>>(
      spec, std::move(adapter),
      std::shared_ptr<const void>(std::forward<Owner>(data)));
}

/// A Hamming searcher owns its objects, so its model keeps nothing else
/// alive. The chain length is checked here, where the partition count is
/// known: it may follow from the data, or come from a saved index.
StatusOr<std::unique_ptr<const AnySearcher>> NewModel(
    const IndexSpec& spec, hamming::HammingSearcher searcher) {
  if (searcher.num_objects() > 0 && spec.chain_length > searcher.num_parts()) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(spec.chain_length) +
        " exceeds the " + std::to_string(searcher.num_parts()) +
        " partitions of a d=" +
        std::to_string(searcher.objects().front().dimensions()) + " index");
  }
  engine::HammingAdapter adapter(std::move(searcher),
                                 static_cast<int>(spec.tau),
                                 RingEnabled(spec) ? spec.chain_length : 1,
                                 spec.allocation);
  std::unique_ptr<const AnySearcher> model =
      std::make_unique<Model<engine::HammingAdapter>>(spec, std::move(adapter),
                                                      nullptr);
  return model;
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildHamming(
    const IndexSpec& spec, std::vector<BitVector> objects) {
  int dimensions = 0;
  if (!objects.empty()) {
    dimensions = objects.front().dimensions();
    for (const BitVector& v : objects) {
      if (v.dimensions() != dimensions) {
        return Status::InvalidArgument(
            "inconsistent dimensionalities in the dataset: " +
            std::to_string(dimensions) + " vs " +
            std::to_string(v.dimensions()));
      }
    }
  }
  // Resolve the partition count the searcher will use so its PR_CHECK
  // preconditions become typed errors. An empty collection indexes a
  // single degenerate part.
  int num_parts = 1;
  if (!objects.empty()) {
    num_parts = spec.num_parts > 0 ? spec.num_parts
                                   : std::max(1, dimensions / 16);
    if (num_parts > dimensions) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) + " exceeds the " +
          std::to_string(dimensions) + " dimensions of the dataset");
    }
    if ((dimensions + num_parts - 1) / num_parts > 64) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) +
          " gives parts wider than 64 bits at d=" +
          std::to_string(dimensions) + "; use at least " +
          std::to_string((dimensions + 63) / 64) + " parts");
    }
    if (num_parts > 64) {
      return Status::InvalidArgument(
          "num_parts=" + std::to_string(num_parts) +
          " exceeds the 64-part limit of the chain bitmask");
    }
  }
  return NewModel(spec,
                  hamming::HammingSearcher(std::move(objects), num_parts));
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildSet(
    const IndexSpec& spec, const std::vector<std::vector<int>>& raw) {
  auto collection = std::make_shared<const setsim::SetCollection>(raw);
  return NewModel(spec,
                  setsim::PkwiseSearcher(collection.get(), spec.tau,
                                         spec.num_boxes, spec.measure),
                  std::move(collection));
}

/// Resolves edit_fast_path=kAuto against the dataset's shape (kOn / kOff
/// pass through, except that kOn on an ineligible collection is a typed
/// error). On return `spec.edit_fast_path` is kOn or kOff — the resolved
/// value is what Db::spec() reports and what Save persists.
Status ResolveEditFastPath(IndexSpec& spec,
                           const std::vector<std::string>& data) {
  const int uniform_length = editdist::CaseDecSearcher::UniformLength(data);
  switch (spec.edit_fast_path) {
    case EditFastPath::kOff:
      return Status::Ok();
    case EditFastPath::kOn:
      if (uniform_length < 0) {
        return Status::InvalidArgument(
            "edit_fast_path=on requires a fixed-length collection: every "
            "string must share one length in [1, " +
            std::to_string(editdist::CaseDecSearcher::kMaxLength) + "]");
      }
      return Status::Ok();
    case EditFastPath::kAuto:
      break;
  }
  // An empty collection gives the advisor nothing to go on, and the fast
  // path would latch every future Writer::Insert to one string length.
  // Resolve kAuto to the permissive pivotal path so an empty database can
  // grow arbitrary strings; kOn stays available for callers who want the
  // fixed-length contract from the start.
  if (data.empty()) {
    spec.edit_fast_path = EditFastPath::kOff;
    return Status::Ok();
  }
  const core::EditFastPathAdvice advice = core::AdviseEditFastPath(
      static_cast<int64_t>(data.size()), uniform_length,
      static_cast<int>(spec.tau));
  spec.edit_fast_path =
      advice.use_fast_path ? EditFastPath::kOn : EditFastPath::kOff;
  return Status::Ok();
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildEdit(
    IndexSpec& spec, std::vector<std::string> strings) {
  Status resolved = ResolveEditFastPath(spec, strings);
  if (!resolved.ok()) return resolved;
  auto data =
      std::make_shared<const std::vector<std::string>>(std::move(strings));
  const int tau = static_cast<int>(spec.tau);
  if (spec.edit_fast_path == EditFastPath::kOn) {
    return NewModel(spec, editdist::CaseDecSearcher(data.get(), tau),
                    std::move(data));
  }
  return NewModel(spec,
                  editdist::EditDistanceSearcher(data.get(), tau, spec.kappa),
                  std::move(data));
}

StatusOr<std::unique_ptr<const AnySearcher>> BuildGraph(
    const IndexSpec& spec, std::vector<graphed::Graph> graphs) {
  auto data =
      std::make_shared<const std::vector<graphed::Graph>>(std::move(graphs));
  return NewModel(spec,
                  graphed::GraphSearcher(data.get(), static_cast<int>(spec.tau),
                                         spec.partition_seed),
                  std::move(data));
}

// --- Persisted-index support ---

/// One build-relevant IndexSpec field: one that shapes the persisted
/// structures, so that an index opens only under the spec it was built
/// with.
struct SpecField {
  const char* name;
  std::optional<Domain> domain;  // whose builds it shapes; none: every one
  int bytes;                     // its width in the kSpec section, 4 or 8
  uint64_t (*value)(const IndexSpec&);
  std::string (*show)(uint64_t value);
};

template <auto Member>
uint64_t Bits(const IndexSpec& spec) {
  const auto value = spec.*Member;
  if constexpr (std::is_floating_point_v<decltype(value)>) {
    return std::bit_cast<uint64_t>(value);
  } else {
    return static_cast<uint64_t>(value);
  }
}

std::string ShowDomain(uint64_t value) {
  return DomainName(static_cast<Domain>(value));
}

std::string ShowTau(uint64_t value) {
  return std::to_string(std::bit_cast<double>(value));
}

std::string ShowMeasure(uint64_t value) {
  return value == 0 ? "jaccard" : "overlap";
}

std::string ShowI32(uint64_t value) {
  return std::to_string(static_cast<int32_t>(value));
}

std::string ShowU64(uint64_t value) { return std::to_string(value); }

// The one list of build-relevant fields, in kSpec section order.
// BuildFingerprint mixes the fields of the spec's domain. The kSpec section
// stores every field and then a u32 fast_path_built flag (1 iff the edit
// domain persisted the case-decomposition index instead of the gram
// machinery: a structural fact about the file, deliberately outside the
// fingerprint so either pipeline's index satisfies it), so a mismatched
// open can name the exact field it disagrees on instead of only failing
// the header fingerprint check. Query-time and serving-time fields
// (chain_length, filter, allocation, threading, shards, the
// delta_compact_* writer knobs) never shape the persisted structures.
constexpr SpecField kBuildFields[] = {
    {"domain", std::nullopt, 4, Bits<&IndexSpec::domain>, ShowDomain},
    {"tau", std::nullopt, 8, Bits<&IndexSpec::tau>, ShowTau},
    {"num_parts", Domain::kHamming, 4, Bits<&IndexSpec::num_parts>, ShowI32},
    {"measure", Domain::kSet, 4, Bits<&IndexSpec::measure>, ShowMeasure},
    {"num_boxes", Domain::kSet, 4, Bits<&IndexSpec::num_boxes>, ShowI32},
    {"kappa", Domain::kEdit, 4, Bits<&IndexSpec::kappa>, ShowI32},
    {"partition_seed", Domain::kGraph, 8, Bits<&IndexSpec::partition_seed>,
     ShowU64},
};

bool Shapes(const SpecField& field, Domain domain) {
  return !field.domain || *field.domain == domain;
}

/// `field`'s value in `spec` as the kSpec section stores it.
uint64_t Stored(const SpecField& field, const IndexSpec& spec) {
  const uint64_t value = field.value(spec);
  return field.bytes == 4 ? value & 0xFFFFFFFFu : value;
}

void AddSpecSection(const IndexSpec& spec, storage::IndexFileWriter& writer) {
  storage::ByteWriter w;
  for (const SpecField& field : kBuildFields) {
    if (field.bytes == 4) {
      w.U32(static_cast<uint32_t>(Stored(field, spec)));
    } else {
      w.U64(Stored(field, spec));
    }
  }
  w.U32(spec.domain == Domain::kEdit &&
        spec.edit_fast_path == EditFastPath::kOn);
  writer.AddSection(storage::SectionId::kSpec, std::move(w).Take());
}

Status SpecMismatch(const std::string& field, const std::string& built,
                    const std::string& requested) {
  return Status::FailedPrecondition(
      "index was built with " + field + "=" + built +
      " but the spec requests " + field + "=" + requested +
      "; rebuild the index or adjust the spec");
}

/// Cross-checks the opening spec against the file's kSpec section,
/// comparing only the fields that shaped the persisted structures. For the
/// edit domain this also *resolves* `spec.edit_fast_path`: kAuto adopts
/// whatever index the file actually holds, while an explicit kOn / kOff
/// that contradicts it is a named mismatch.
Status CheckSpecSection(IndexSpec& spec,
                        const storage::IndexFileReader& reader) {
  uint64_t built[std::size(kBuildFields)];
  bool built_fast = false;
  Status s = storage::ReadSection(
      reader, storage::SectionId::kSpec, [&](storage::ByteReader& r) {
        for (size_t i = 0; i < std::size(kBuildFields); ++i) {
          built[i] = kBuildFields[i].bytes == 4 ? r.U32() : r.U64();
        }
        built_fast = r.U32() != 0;
        return Status::Ok();
      });
  if (!s.ok()) return s;
  for (size_t i = 0; i < std::size(kBuildFields); ++i) {
    const SpecField& field = kBuildFields[i];
    const uint64_t requested = Stored(field, spec);
    if (Shapes(field, spec.domain) && built[i] != requested) {
      return SpecMismatch(field.name, field.show(built[i]),
                          field.show(requested));
    }
  }
  if (spec.domain != Domain::kEdit) return Status::Ok();
  if (spec.edit_fast_path == EditFastPath::kAuto) {
    spec.edit_fast_path = built_fast ? EditFastPath::kOn : EditFastPath::kOff;
  } else if ((spec.edit_fast_path == EditFastPath::kOn) != built_fast) {
    return SpecMismatch("fast_path", built_fast ? "on" : "off",
                        EditFastPathName(spec.edit_fast_path));
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadHamming(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded = storage::LoadHammingSections(reader);
  if (!loaded.ok()) return loaded.status();
  return NewModel(spec,
                  hamming::HammingSearcher(std::move(loaded->objects),
                                           std::move(loaded->index)));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadSet(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  auto loaded = storage::LoadSetSections(reader, spec.num_boxes);
  if (!loaded.ok()) return loaded.status();
  return NewModel(spec,
                  setsim::PkwiseSearcher(loaded->collection.get(), spec.tau,
                                         spec.num_boxes, spec.measure,
                                         std::move(loaded->index)),
                  std::move(loaded->collection));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadEdit(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  const int tau = static_cast<int>(spec.tau);
  if (spec.edit_fast_path == EditFastPath::kOn) {
    auto loaded = storage::LoadEditFastSections(reader, tau);
    if (!loaded.ok()) return loaded.status();
    return NewModel(spec,
                    editdist::CaseDecSearcher(loaded->data.get(), tau,
                                              std::move(loaded->cases)),
                    std::move(loaded->data));
  }
  auto loaded = storage::LoadEditSections(reader, tau, spec.kappa);
  if (!loaded.ok()) return loaded.status();
  return NewModel(spec,
                  editdist::EditDistanceSearcher(loaded->data.get(), tau,
                                                 spec.kappa,
                                                 std::move(loaded->index)),
                  std::move(loaded->data));
}

StatusOr<std::unique_ptr<const AnySearcher>> LoadGraph(
    const IndexSpec& spec, const storage::IndexFileReader& reader) {
  const int tau = static_cast<int>(spec.tau);
  auto loaded = storage::LoadGraphSections(reader, tau);
  if (!loaded.ok()) return loaded.status();
  return NewModel(spec,
                  graphed::GraphSearcher(loaded->data.get(), tau,
                                         std::move(loaded->state)),
                  std::move(loaded->data));
}

/// Wraps a fresh searcher + executor into an epoch-0 hub.
std::shared_ptr<DbHub> MakeHub(
    IndexSpec spec, std::unique_ptr<const AnySearcher> searcher) {
  auto state = std::make_shared<DbState>();
  state->spec = std::move(spec);
  state->searcher =
      std::shared_ptr<const AnySearcher>(std::move(searcher));
  // The snapshot-scoped executor starts at the spec's default width and
  // grows (once per width) when a RunOptions override asks for more.
  state->executor =
      std::make_unique<engine::Executor>(state->spec.num_threads);
  auto hub = std::make_shared<DbHub>();
  hub->current = std::move(state);
  hub->delta = std::make_shared<DeltaSnapshot>();
  return hub;
}

}  // namespace

StatusOr<std::unique_ptr<const AnySearcher>> BuildSearcher(IndexSpec& spec,
                                                           Dataset dataset) {
  switch (spec.domain) {
    case Domain::kHamming:
      return BuildHamming(
          spec, std::get<std::vector<BitVector>>(std::move(dataset)));
    case Domain::kSet:
      return BuildSet(
          spec, std::get<std::vector<std::vector<int>>>(std::move(dataset)));
    case Domain::kEdit:
      return BuildEdit(spec,
                       std::get<std::vector<std::string>>(std::move(dataset)));
    case Domain::kGraph:
      break;
  }
  return BuildGraph(spec,
                    std::get<std::vector<graphed::Graph>>(std::move(dataset)));
}

StatusOr<std::unique_ptr<const AnySearcher>> RebuildWithDelta(
    const IndexSpec& spec, const AnySearcher& base,
    const DeltaSnapshot& delta) {
  // Reconstruct the merged raw dataset in post-compaction id order: base
  // survivors in id order, then live inserts in log order. A cold
  // Db::Open over this dataset builds the identical searcher — the
  // byte-identity the churn tests pin.
  Dataset dataset = base.RawDataset();
  std::visit(
      [&delta](auto& records) {
        using Records = std::decay_t<decltype(records)>;
        using T = typename Records::value_type;
        if (!delta.removed_base.empty()) {
          Records kept;
          kept.reserve(records.size() - delta.removed_base.size());
          for (int id = 0; id < static_cast<int>(records.size()); ++id) {
            if (!engine::SortedContains(delta.removed_base, id)) {
              kept.push_back(std::move(records[id]));
            }
          }
          records = std::move(kept);
        }
        for (int k = 0; k < static_cast<int>(delta.inserts.size()); ++k) {
          if (engine::SortedContains(delta.removed_delta, k)) continue;
          if constexpr (std::is_same_v<T, std::vector<int>>) {
            records.push_back(std::get<SetQuery>(delta.inserts[k]).tokens);
          } else {
            records.push_back(std::get<T>(delta.inserts[k]));
          }
        }
      },
      dataset);
  // The spec is already resolved (edit_fast_path is kOn or kOff, never
  // kAuto), so the rebuild cannot silently switch pipelines mid-life.
  IndexSpec resolved = spec;
  return BuildSearcher(resolved, std::move(dataset));
}

}  // namespace internal

uint64_t BuildFingerprint(const IndexSpec& spec) {
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t h = kOffset;
  for (const internal::SpecField& field : internal::kBuildFields) {
    if (!internal::Shapes(field, spec.domain)) continue;
    const uint64_t value = field.value(spec);
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
  }
  return h;
}

Db::Db(std::shared_ptr<internal::DbHub> hub)
    : hub_(std::move(hub)), spec_(hub_->current->spec) {}

// Copies share the hub (and so the epochs and any writer's mutations).
Db::Db(const Db& other) = default;
Db& Db::operator=(const Db& other) = default;
Db::Db(Db&&) noexcept = default;
Db& Db::operator=(Db&&) noexcept = default;
Db::~Db() = default;

StatusOr<Db> Db::Open(const IndexSpec& spec, Dataset dataset) {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  if (DatasetDomain(dataset) != spec.domain) {
    return Status::InvalidArgument(
        "dataset holds " + std::string(DomainName(DatasetDomain(dataset))) +
        " records but the spec's domain is " + DomainName(spec.domain));
  }
  // BuildSearcher resolves edit_fast_path=kAuto against the dataset's
  // shape; the resolved spec is what the database reports, what Save
  // persists, and what every compaction rebuilds under.
  IndexSpec resolved = spec;
  auto searcher = internal::BuildSearcher(resolved, std::move(dataset));
  if (!searcher.ok()) return searcher.status();
  return Db(internal::MakeHub(std::move(resolved),
                              std::move(searcher).value()));
}

StatusOr<Db> Db::Open(const IndexSpec& spec,
                      const std::string& dataset_path) {
  // Validate before touching the filesystem so spec errors win over load
  // errors, and load in the domain's format.
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  // A persisted index announces itself by its magic; everything else goes
  // through the raw dataset loaders.
  if (storage::LooksLikeIndexFile(dataset_path)) {
    return OpenIndex(spec, dataset_path);
  }
  auto open = [&spec](auto loaded) -> StatusOr<Db> {
    if (!loaded.ok()) return loaded.status();
    return Open(spec, Dataset(std::move(loaded).value()));
  };
  switch (spec.domain) {
    case Domain::kHamming:
      return open(io::LoadBitVectors(dataset_path));
    case Domain::kSet:
      return open(io::LoadTokenSets(dataset_path));
    case Domain::kEdit:
      return open(io::LoadStrings(dataset_path));
    case Domain::kGraph:
      break;
  }
  return open(io::LoadGraphs(dataset_path));
}

StatusOr<Db> Db::OpenIndex(const IndexSpec& spec,
                           const std::string& index_path) {
  Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  auto reader = storage::IndexFileReader::Open(index_path);
  if (!reader.ok()) return reader.status();
  if (reader->domain() != static_cast<uint32_t>(spec.domain)) {
    const uint32_t d = reader->domain();
    return Status::FailedPrecondition(
        "index file holds a " +
        std::string(d <= 3 ? DomainName(static_cast<Domain>(d)) : "unknown") +
        " index but the spec's domain is " + DomainName(spec.domain) +
        "; rebuild the index or adjust the spec");
  }
  // The kSpec section names the exact disagreeing build field; the header
  // fingerprint is the backstop (it also catches a spec section that was
  // tampered into agreement). For the edit domain the check also resolves
  // edit_fast_path=kAuto from the file's fast_path_built flag.
  IndexSpec resolved = spec;
  Status spec_check = internal::CheckSpecSection(resolved, *reader);
  if (!spec_check.ok()) return spec_check;
  if (reader->spec_fingerprint() != BuildFingerprint(resolved)) {
    return Status::FailedPrecondition(
        "index file was built under a different spec (fingerprint "
        "mismatch); rebuild the index");
  }
  // A sharded database records its shard map (shards is a serving-time
  // knob, outside the fingerprint). A default-shards spec adopts it; an
  // explicit shards > 1 overrides it; the file stays openable unsharded
  // by passing nothing at all only when it was saved unsharded.
  if (resolved.shards == 1 &&
      reader->HasSection(storage::SectionId::kShardMap)) {
    auto section = reader->Section(storage::SectionId::kShardMap);
    if (!section.ok()) return section.status();
    storage::ByteReader r = *section;
    const std::optional<int> shards = shard::DecodeShardMap(r);
    if (!shards) {
      return Status::DataLoss("index section 80 corrupt: malformed shard map");
    }
    resolved.shards = *shards;
  }
  StatusOr<std::unique_ptr<const internal::AnySearcher>> searcher = [&] {
    switch (resolved.domain) {
      case Domain::kHamming:
        return internal::LoadHamming(resolved, *reader);
      case Domain::kSet:
        return internal::LoadSet(resolved, *reader);
      case Domain::kEdit:
        return internal::LoadEdit(resolved, *reader);
      case Domain::kGraph:
        break;
    }
    return internal::LoadGraph(resolved, *reader);
  }();
  if (!searcher.ok()) return searcher.status();
  return Db(internal::MakeHub(std::move(resolved),
                              std::move(searcher).value()));
}

Status Db::Save(const std::string& path) const {
  // Freeze a consistent (epoch, delta) pair; with pending mutations the
  // compacted state is serialized (without publishing it), so the file is
  // byte-identical to saving after Writer::Compact().
  internal::HubView view = internal::AcquireView(*hub_);
  const internal::AnySearcher* to_save = view.state->searcher.get();
  std::unique_ptr<const internal::AnySearcher> compacted;
  if (!view.delta->Empty()) {
    auto rebuilt = internal::RebuildWithDelta(view.state->spec,
                                              *view.state->searcher,
                                              *view.delta);
    if (!rebuilt.ok()) return rebuilt.status();
    compacted = std::move(rebuilt).value();
    to_save = compacted.get();
  }
  storage::IndexFileWriter writer;
  internal::AddSpecSection(view.state->spec, writer);
  if (view.state->spec.shards > 1) {
    // Serving-time sharding round-trips through its own section so
    // OpenIndex can re-adopt it; an unsharded save stays byte-identical
    // to pre-shard-era files.
    storage::ByteWriter w;
    shard::EncodeShardMap(w, view.state->spec.shards);
    writer.AddSection(storage::SectionId::kShardMap, std::move(w).Take());
  }
  to_save->SaveSections(writer);
  return writer.WriteTo(path, static_cast<uint32_t>(view.state->spec.domain),
                        BuildFingerprint(view.state->spec));
}

const IndexSpec& Db::spec() const { return spec_; }

Domain Db::domain() const { return spec_.domain; }

int Db::num_records() const {
  internal::HubView view = internal::AcquireView(*hub_);
  return internal::MergedSize(*view.state->searcher, *view.delta);
}

StatusOr<Query> Db::RecordQuery(int id) const {
  internal::HubView view = internal::AcquireView(*hub_);
  return internal::MergedRecordQuery(*view.state->searcher, *view.delta, id);
}

uint64_t Db::epoch() const {
  return internal::AcquireView(*hub_).epoch;
}

std::vector<int> Db::ShardSizes() const {
  std::vector<int> sizes;
  for (const DbShardStat& stat : ShardStats()) sizes.push_back(stat.records);
  return sizes;
}

std::vector<DbShardStat> Db::ShardStats() const {
  internal::HubView view = internal::AcquireView(*hub_);
  const std::vector<IdRange> ranges = shard::ShardRanges(
      view.state->searcher->size(), view.state->spec.shards);
  std::vector<DbShardStat> stats;
  stats.reserve(ranges.size());
  for (const IdRange& range : ranges) {
    stats.push_back({range.end - range.begin, 0});
  }
  // A base removal lands on the range holding the id. Ids past the base
  // extend the last range until the next compaction cuts the ranges
  // again, so pending inserts and their removals land there.
  for (int id : view.delta->removed_base) {
    const auto after = std::ranges::upper_bound(
        ranges, id, {}, [](const IdRange& range) { return range.begin; });
    ++stats[static_cast<size_t>(after - ranges.begin()) - 1].pending_delta;
  }
  stats.back().pending_delta += static_cast<int>(
      view.delta->inserts.size() + view.delta->removed_delta.size());
  return stats;
}

Session Db::NewSession() const {
  internal::HubView view = internal::AcquireView(*hub_);
  return Session(std::move(view.state), std::move(view.delta));
}

StatusOr<Writer> Db::NewWriter() const {
  std::shared_ptr<const internal::DbState> retired;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    retired = internal::InstallPendingLocked(*hub_);
    if (hub_->writer_alive) {
      return Status::FailedPrecondition(
          "a Writer for this database is already active (single-writer, "
          "many-reader); destroy it before minting another");
    }
    hub_->writer_alive = true;
  }
  // `retired` (if any) dies here, on a user thread and outside the lock.
  return Writer(hub_, spec_);
}

}  // namespace pigeonring::api
