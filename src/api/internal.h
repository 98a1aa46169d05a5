// Implementation detail shared by api/db.cc, api/session.cc, and
// api/writer.cc: the type-erasure bridge between the public Query/Dataset
// variants and the compile-time engine::Searcher concept, the snapshot
// record a Db and its Sessions share, and the delta/epoch hub behind the
// single-writer mutation path. Nothing here is part of the stable public
// surface — include api/db.h, api/session.h, or api/writer.h instead.

#ifndef PIGEONRING_API_INTERNAL_H_
#define PIGEONRING_API_INTERNAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.h"
#include "common/status.h"
#include "engine/delta.h"
#include "engine/executor.h"
#include "engine/query_stats.h"

namespace pigeonring::storage {
class IndexFileWriter;
}  // namespace pigeonring::storage

namespace pigeonring::api::internal {

/// Mutable per-caller probe state over one immutable snapshot — the erased
/// counterpart of an engine adapter clone. Each Session owns one (and each
/// in-flight async submission owns another); a cursor is never shared
/// between threads. Virtual dispatch happens once per call; the templated
/// engine drivers run underneath unchanged.
class AnyCursor {
 public:
  virtual ~AnyCursor() = default;
  virtual std::vector<int> SearchOne(const Query& query,
                                     engine::QueryStats* stats) = 0;
  virtual std::vector<std::vector<int>> SearchBatch(
      const std::vector<Query>& queries, const engine::ExecutionContext& ctx,
      engine::QueryStats* stats) = 0;
  virtual std::vector<engine::IdPair> SelfJoin(
      const engine::ExecutionContext& ctx, engine::JoinStats* stats) = 0;
};

/// The immutable, type-erased index snapshot behind one opened Db: every
/// method is const and safe to call from any number of threads; NewCursor
/// mints the per-caller mutable state.
class AnySearcher {
 public:
  virtual ~AnySearcher() = default;
  virtual int size() const = 0;
  virtual StatusOr<Query> RecordQuery(int id) const = 0;
  /// Domain + shape check; queries passed to a cursor must have been
  /// validated.
  virtual Status ValidateQuery(const Query& query) const = 0;
  virtual std::unique_ptr<AnyCursor> NewCursor() const = 0;
  /// Serializes the snapshot's built state into typed sections of `writer`
  /// (storage/index_io.h) — the Db::Save half of the persistent index
  /// format. Deterministic: two calls on the same snapshot add
  /// byte-identical sections.
  virtual void SaveSections(storage::IndexFileWriter& writer) const = 0;

  // --- Delta (api::Writer) hooks ---

  /// Validates a record for insertion and returns its canonical stored
  /// form: sets become raw token ids, sorted and deduplicated (ranked
  /// queries are unranked through the base dictionary); the other domains
  /// pass through. Insert-specific shape rules apply here — e.g. the edit
  /// fast path only admits strings of the index's uniform length.
  virtual StatusOr<Query> CanonicalizeInsert(const Query& query) const = 0;
  /// Canonical form of an already-ValidateQuery'd probe for DeltaMatch
  /// (sets: ranked tokens translated back to raw; others pass through).
  virtual Query CanonicalizeProbe(const Query& query) const = 0;
  /// Exact threshold test between a canonical probe and a canonical delta
  /// record — the brute-force side table every Session merges in. Both
  /// sides must be canonical.
  virtual bool DeltaMatch(const Query& probe, const Query& record) const = 0;
  /// Reconstructs the raw dataset behind this snapshot in id order — the
  /// compaction / Save-with-delta rebuild input.
  virtual Dataset RawDataset() const = 0;
};

/// The writer's mutation log against one base snapshot. Immutable once
/// published: every mutation copies-on-write a new snapshot into the hub,
/// so Sessions freeze a (state, delta) pair without locking. Insert k
/// (whether later removed or not) occupies public id base_size + k, which
/// keeps ids stable within an epoch; compaction renumbers survivors.
struct DeltaSnapshot {
  std::vector<Query> inserts;     // canonical form, append-only
  std::vector<int> removed_base;  // sorted ids into the base snapshot
  std::vector<int> removed_delta;  // sorted indexes into `inserts`

  bool Empty() const {
    return inserts.empty() && removed_base.empty() && removed_delta.empty();
  }
  /// Pending mutation count — what the delta_compact_* triggers measure.
  int64_t NumMutations() const {
    return static_cast<int64_t>(inserts.size()) +
           static_cast<int64_t>(removed_base.size()) +
           static_cast<int64_t>(removed_delta.size());
  }
};

/// Everything a Db handle and its Sessions share, held behind
/// shared_ptr<const DbState> so the snapshot outlives whichever of them is
/// destroyed last. The executor is reachable mutably through the const
/// state (unique_ptr propagates constness to the pointer, not the
/// pointee): it is internally synchronized and scoped to this snapshot —
/// the persistent replacement for the old pool-per-call pattern.
///
/// Ownership discipline for async jobs: a job submitted to the executor
/// must NOT hold a shared_ptr<DbState> (directly or through a Session) —
/// if it held the last reference, the dispatcher thread running it would
/// destroy the executor and join itself. Jobs pin `searcher` (shared
/// below for exactly this purpose) and address the executor through a raw
/// pointer: that is safe for the whole job lifetime because ~Executor
/// drains the queue and joins its dispatchers before the executor — let
/// alone the members declared before it — goes away.
struct DbState {
  IndexSpec spec;
  std::shared_ptr<const AnySearcher> searcher;
  // Declared last so it is destroyed first: snapshot teardown begins by
  // draining and joining the executor, after which no job can touch the
  // other members.
  std::unique_ptr<engine::Executor> executor;
};

/// A finished compaction waiting to be published. The rebuild runs on the
/// retiring epoch's executor (or inline for Writer::Compact), but the
/// *installation* — minting the next DbState and retiring the old one —
/// happens only on user threads (AcquireView / writer operations): a
/// dispatcher thread must never release a DbState's last reference, or
/// the executor would join itself (see DbState above).
struct PendingPublish {
  std::shared_ptr<const AnySearcher> searcher;  // compacted
  std::shared_ptr<const DeltaSnapshot> built_from;  // the delta it absorbed
};

/// The mutable hub every Db handle of one open database shares (Db copies
/// share the hub, so a Writer's mutations are visible through every
/// handle). Sessions do NOT hold the hub — they freeze a (state, delta)
/// pair at creation, which is what gives them prefix consistency for free.
///
/// The background compaction job captures a raw DbHub* (never a
/// shared_ptr — see PendingPublish). That raw pointer cannot dangle:
/// ~Writer pins the hub and blocks until `compaction_inflight` clears,
/// and the job's last hub access is inside its final mu critical section,
/// which any waiter can only observe after the job released mu.
struct DbHub {
  std::mutex mu;
  std::condition_variable cv;  // signals compaction_inflight -> false
  // All fields below are guarded by mu. `current` and `delta` are never
  // null.
  std::shared_ptr<const DbState> current;
  std::shared_ptr<const DeltaSnapshot> delta;
  std::optional<PendingPublish> pending;
  // A failed background rebuild parks its status here; the next writer
  // operation surfaces (and clears) it.
  Status compaction_error = Status::Ok();
  bool writer_alive = false;
  bool compaction_inflight = false;
  uint64_t epoch = 0;
};

/// A consistent (state, delta, epoch) triple frozen from the hub.
struct HubView {
  std::shared_ptr<const DbState> state;
  std::shared_ptr<const DeltaSnapshot> delta;
  uint64_t epoch = 0;
};

/// Locks the hub, installs any finished compaction (retiring the old
/// epoch outside the lock), and freezes the current (state, delta) pair.
/// Every read-side entry point — NewSession, NewWriter, Db getters, Save
/// — goes through here, so a finished rebuild becomes visible at the next
/// user-thread touch.
HubView AcquireView(DbHub& hub);

/// Publishes `hub.pending` if set: mints the next DbState (same spec,
/// compacted searcher, fresh executor), rebases the mutations that
/// arrived after the compaction snapshot onto the new id space, and
/// advances the epoch. Returns the retired DbState — the caller must let
/// it die only after releasing `hub.mu` (and never on a dispatcher
/// thread).
std::shared_ptr<const DbState> InstallPendingLocked(DbHub& hub);

/// Rebases a delta that extends `built_from` onto the id space of the
/// searcher compacted from (base, built_from). Pure function of its
/// arguments; exposed for the writer and its tests.
std::shared_ptr<const DeltaSnapshot> RebaseDelta(const DeltaSnapshot& built,
                                                 const DeltaSnapshot& now,
                                                 int new_base_size);

/// Builds a fresh searcher for `spec` over `dataset` — the switch behind
/// Db::Open, shared with the compaction rebuild. `spec` is resolved in
/// place (edit_fast_path=kAuto becomes kOn/kOff).
StatusOr<std::unique_ptr<const AnySearcher>> BuildSearcher(IndexSpec& spec,
                                                           Dataset dataset);

/// Rebuilds the full searcher for base + delta: reconstructs the raw
/// dataset (base survivors in id order, then live inserts in log order —
/// exactly the post-compaction id order) and indexes it from scratch
/// under `spec`. Byte-identical to a cold Db::Open over the same merged
/// dataset.
StatusOr<std::unique_ptr<const AnySearcher>> RebuildWithDelta(
    const IndexSpec& spec, const AnySearcher& base,
    const DeltaSnapshot& delta);

inline int MergedSize(const AnySearcher& searcher,
                      const DeltaSnapshot& delta) {
  return searcher.size() + static_cast<int>(delta.inserts.size());
}

/// The shared range check behind Db::RecordQuery and Session::RecordQuery
/// (both surfaces must reject the same ids with the same message).
/// Removed records still answer — ids stay addressable within an epoch.
inline StatusOr<Query> MergedRecordQuery(const AnySearcher& searcher,
                                         const DeltaSnapshot& delta, int id) {
  const int size = MergedSize(searcher, delta);
  if (id < 0 || id >= size) {
    return Status::OutOfRange("record id " + std::to_string(id) +
                              " outside [0, " + std::to_string(size) + ")");
  }
  if (id < searcher.size()) return searcher.RecordQuery(id);
  return delta.inserts[id - searcher.size()];
}

/// True iff `id` is in range and not removed in `delta`.
inline bool MergedIsLive(const AnySearcher& searcher,
                         const DeltaSnapshot& delta, int id) {
  if (id < 0 || id >= MergedSize(searcher, delta)) return false;
  if (id < searcher.size()) {
    return !engine::SortedContains(delta.removed_base, id);
  }
  return !engine::SortedContains(delta.removed_delta, id - searcher.size());
}

}  // namespace pigeonring::api::internal

#endif  // PIGEONRING_API_INTERNAL_H_
