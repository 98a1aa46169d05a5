// pigeonring::api::Session — the per-caller query handle over a shared Db
// snapshot.
//
// A Db (api/db.h) is an immutable, concurrently shareable snapshot: the
// domain index, the collection, and the persistent executor. A Session is
// the mutable counterpart one caller holds: it owns the per-query scratch
// (an erased clone of the engine adapter — cheap, because every searcher
// shares its immutable index behind shared_ptr) and pins the snapshot, so
// a Session keeps working even after the Db handle that created it is
// destroyed.
//
//   api::Db db = ...;                       // shared, const
//   api::Session session = db.NewSession(); // one per caller thread
//   auto batch = session.SearchBatch(queries);
//   auto future = session.SubmitBatch(queries);   // async
//   ... future.Get() ...
//
// Under a Writer (api/writer.h) a Session additionally freezes the
// writer's delta at creation: results transparently merge the frozen
// mutations (a consistent prefix of the log) and never change afterwards,
// no matter how many inserts, removals, or compactions follow.
//
// Threading contract:
//  * Any number of Sessions over one Db may run concurrently; results are
//    byte-identical to the sequential path no matter how many callers
//    overlap (the engine's determinism guarantee).
//  * One Session's *synchronous* calls must not overlap each other (they
//    share the session's scratch) — one Session per caller thread.
//  * Submit* calls are safe to overlap with anything: each submission
//    captures its own scratch clone and runs on the executor's dispatcher
//    threads, so futures may complete out of submission order.
//
// Parallelism *within* a call still comes from the spec / RunOptions
// thread count: the call borrows the snapshot's persistent executor (no
// thread pool is constructed on the steady-state path).

#ifndef PIGEONRING_API_SESSION_H_
#define PIGEONRING_API_SESSION_H_

#include <memory>
#include <vector>

#include "api/future.h"
#include "api/spec.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/query_stats.h"

namespace pigeonring::api {

/// Engine counter types, re-exported as part of the public surface.
using QueryStats = engine::QueryStats;
using JoinStats = engine::JoinStats;
using IdPair = engine::IdPair;

/// One query's matches (record ids into the opened dataset) and counters.
struct SearchResult {
  std::vector<int> ids;
  QueryStats stats;
};

/// Per-query result lists in input order, plus counters summed over the
/// batch. The stats' *_millis fields are summed per-query times;
/// `wall_millis` is the true wall-clock time of the whole call — divide
/// query count by it for throughput, never by the summed fields.
struct BatchResult {
  std::vector<std::vector<int>> ids;
  QueryStats stats;
  double wall_millis = 0;
};

/// All matching unordered pairs (i < j, sorted), join counters, and the
/// wall-clock time of the whole call.
struct JoinResult {
  std::vector<IdPair> pairs;
  JoinStats stats;
  double wall_millis = 0;
};

/// Per-call overrides of the spec's execution defaults. Negative fields
/// keep the spec's setting; explicit values are validated like their
/// spec-level counterparts (chunk must be >= 1, num_threads 0 means
/// hardware concurrency).
struct RunOptions {
  int num_threads = -1;  // -1 = spec.num_threads; 0 = hardware concurrency
  int chunk = -1;        // -1 = spec.chunk
};

namespace internal {

class AnyCursor;
struct DbState;
struct DeltaSnapshot;

/// The one place RunOptions are validated and merged with the spec's
/// defaults. Negative fields defer to the spec; an explicit chunk < 1 is
/// kInvalidArgument, not a silent fallback. Every execution entry point —
/// Session::SearchBatch / SelfJoin / SubmitBatch / SubmitSelfJoin and
/// Writer::Compact — plans its run through here, so the RunOptions error
/// surface cannot drift between paths (api_test pins the identical text).
StatusOr<engine::ExecutionOptions> ResolveRunOptions(const IndexSpec& spec,
                                                     const RunOptions& options);

}  // namespace internal

class Session {
 public:
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  const IndexSpec& spec() const;
  int num_records() const;

  /// Record `id` of the snapshot's dataset viewed as a query.
  /// kOutOfRange for bad ids. Ids removed through a Writer still answer —
  /// every id stays addressable within its epoch.
  StatusOr<Query> RecordQuery(int id) const;

  /// True iff `id` names a record of this session's snapshot that has not
  /// been removed — i.e. whether `id` can appear in this session's
  /// results. False (never an error) for out-of-range ids.
  bool IsLive(int id) const;

  /// Ids of all records matching `query` under the spec's threshold.
  /// kInvalidArgument if the query's domain or shape does not match.
  StatusOr<SearchResult> Search(const Query& query);

  /// Runs every query; result lists are in input order regardless of
  /// threading. Fails (without running) if any query mismatches.
  StatusOr<BatchResult> SearchBatch(const std::vector<Query>& queries,
                                    const RunOptions& options = {});

  /// Joins the dataset with itself: every unordered pair within the
  /// threshold, each exactly once, sorted.
  StatusOr<JoinResult> SelfJoin(const RunOptions& options = {});

  /// Asynchronous SearchBatch: validates up front (an invalid request
  /// yields an already-resolved future), then enqueues the batch on the
  /// snapshot's executor and returns immediately. The submission owns a
  /// scratch clone of its own, so it may overlap this session's other
  /// calls and submissions freely.
  Future<BatchResult> SubmitBatch(std::vector<Query> queries,
                                  const RunOptions& options = {});

  /// Asynchronous SelfJoin; same contract as SubmitBatch.
  Future<JoinResult> SubmitSelfJoin(const RunOptions& options = {});

 private:
  friend class Db;
  Session(std::shared_ptr<const internal::DbState> state,
          std::shared_ptr<const internal::DeltaSnapshot> delta);

  std::shared_ptr<const internal::DbState> state_;
  // The writer delta frozen with the snapshot (never null, possibly
  // empty): search/join results merge it in transparently, which is what
  // makes a session's view a consistent prefix of the mutation log.
  std::shared_ptr<const internal::DeltaSnapshot> delta_;
  std::unique_ptr<internal::AnyCursor> cursor_;
};

}  // namespace pigeonring::api

#endif  // PIGEONRING_API_SESSION_H_
