#include "api/session.h"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "api/internal.h"
#include "common/timer.h"

namespace pigeonring::api {

namespace internal {

StatusOr<engine::ExecutionOptions> ResolveRunOptions(
    const IndexSpec& spec, const RunOptions& options) {
  // Negative RunOptions fields defer to the spec; explicit values get the
  // same validation the spec-level fields do (chunk 0 is an error, not a
  // silent fallback; num_threads 0 means hardware concurrency).
  engine::ExecutionOptions resolved;
  resolved.num_threads =
      options.num_threads >= 0 ? options.num_threads : spec.num_threads;
  resolved.chunk = options.chunk >= 0 ? options.chunk : spec.chunk;
  if (resolved.chunk < 1) {
    return Status::InvalidArgument("chunk=" +
                                   std::to_string(resolved.chunk) +
                                   " is invalid: expected >= 1");
  }
  return resolved;
}

/// session.cc's access to Future<T>'s private constructor.
struct FutureFactory {
  template <typename T>
  static Future<T> Make(std::future<StatusOr<T>> inner) {
    return Future<T>(std::move(inner));
  }
};

namespace {

/// Validates every query of a batch against the snapshot, prefixing the
/// failing index.
Status ValidateBatch(const AnySearcher& searcher,
                     const std::vector<Query>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    Status valid = searcher.ValidateQuery(queries[i]);
    if (!valid.ok()) {
      return Status(valid.code(),
                    "query " + std::to_string(i) + ": " + valid.message());
    }
  }
  return Status::Ok();
}

engine::DeltaOverlay OverlayOf(const AnySearcher& searcher,
                               const DeltaSnapshot& delta) {
  return engine::DeltaOverlay{searcher.size(),
                              static_cast<int>(delta.inserts.size()),
                              &delta.removed_base, &delta.removed_delta};
}

int LiveInsertCount(const DeltaSnapshot& delta) {
  return static_cast<int>(delta.inserts.size()) -
         static_cast<int>(delta.removed_delta.size());
}

/// Merges a frozen delta into one probe's base results: removed base ids
/// vanish, live delta inserts are brute-force verified with the domain's
/// exact predicate and appended (result lists stay ascending — delta ids
/// all exceed base ids). Every live insert counts as a candidate; the
/// results counter tracks the net change.
void MergeDeltaSearch(const AnySearcher& searcher, const DeltaSnapshot& delta,
                      const Query& probe, std::vector<int>& ids,
                      engine::QueryStats& stats) {
  if (delta.Empty()) return;
  const engine::DeltaOverlay overlay = OverlayOf(searcher, delta);
  const int64_t before = static_cast<int64_t>(ids.size());
  engine::FilterRemovedBaseIds(ids, overlay);
  if (LiveInsertCount(delta) > 0) {
    const Query canonical = searcher.CanonicalizeProbe(probe);
    engine::AppendDeltaMatches(ids, overlay, [&](int k) {
      return searcher.DeltaMatch(canonical, delta.inserts[k]);
    });
    stats.candidates += LiveInsertCount(delta);
  }
  stats.results += static_cast<int64_t>(ids.size()) - before;
}

/// The join-side merge: drops pairs touching removed base ids, then joins
/// every live delta insert against the base (through the index, like any
/// probe) and against earlier live inserts (brute force). Pairs are
/// re-sorted at the end so the merged join is byte-identical to a cold
/// join over the compacted dataset's ids.
void MergeDeltaJoin(const AnySearcher& searcher, const DeltaSnapshot& delta,
                    AnyCursor& cursor, std::vector<engine::IdPair>& pairs,
                    engine::JoinStats& stats) {
  if (delta.Empty()) return;
  const engine::DeltaOverlay overlay = OverlayOf(searcher, delta);
  engine::FilterRemovedBasePairs(pairs, overlay);
  const int base = searcher.size();
  for (int k = 0; k < overlay.num_inserts; ++k) {
    if (!engine::DeltaInsertLive(overlay, k)) continue;
    engine::QueryStats probe_stats;
    std::vector<int> ids = cursor.SearchOne(delta.inserts[k], &probe_stats);
    engine::FilterRemovedBaseIds(ids, overlay);
    for (int id : ids) {
      pairs.push_back({id, base + k});
    }
    stats.candidates += probe_stats.candidates;
    for (int earlier = 0; earlier < k; ++earlier) {
      if (!engine::DeltaInsertLive(overlay, earlier)) continue;
      ++stats.candidates;
      if (searcher.DeltaMatch(delta.inserts[earlier], delta.inserts[k])) {
        pairs.push_back({base + earlier, base + k});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  stats.pairs = static_cast<int64_t>(pairs.size());
}

/// An already-resolved future carrying a validation error — invalid
/// requests never reach the executor.
template <typename T>
Future<T> ReadyFuture(Status status) {
  std::promise<StatusOr<T>> promise;
  promise.set_value(StatusOr<T>(std::move(status)));
  return FutureFactory::Make<T>(promise.get_future());
}

/// The one implementation of the async-submission pattern behind both
/// Submit* entry points. `work(searcher, cursor, context)` produces the
/// result (its wall_millis is stamped here). The capture discipline is
/// safety-critical and lives only here: the job pins the *searcher*
/// (which the cursor points into) but deliberately NOT the DbState —
/// holding the snapshot's last reference on a dispatcher thread would
/// make the executor join itself (see internal.h). The raw executor
/// pointer stays valid for the job's whole run because snapshot teardown
/// drains and joins the executor first. (The work lambdas additionally
/// pin the session's delta — it owns no executor, so a dispatcher thread
/// may drop it freely.)
template <typename T, typename Work>
Future<T> SubmitJob(const DbState& state,
                    const engine::ExecutionOptions& options, Work work) {
  auto promise = std::make_shared<std::promise<StatusOr<T>>>();
  Future<T> future = FutureFactory::Make<T>(promise->get_future());
  state.executor->Submit(
      [searcher = state.searcher, executor = state.executor.get(), promise,
       options, work = std::move(work)] {
        // An exception escaping a job would terminate the process (it
        // unwinds into a dispatcher std::thread) or, if swallowed, break
        // the promise. Convert to the Status the synchronous path's
        // caller could have caught on its own thread.
        StatusOr<T> outcome = [&]() -> StatusOr<T> {
          try {
            StopWatch watch;
            const std::unique_ptr<AnyCursor> cursor = searcher->NewCursor();
            engine::ExecutionContext context(*executor, options);
            T result = work(*searcher, *cursor, context);
            result.wall_millis = watch.ElapsedMillis();
            return result;
          } catch (const std::exception& e) {
            return Status::Internal(std::string("async request failed: ") +
                                    e.what());
          } catch (...) {
            return Status::Internal(
                "async request failed with an unknown exception");
          }
        }();
        promise->set_value(std::move(outcome));
      });
  return future;
}

}  // namespace
}  // namespace internal

Session::Session(std::shared_ptr<const internal::DbState> state,
                 std::shared_ptr<const internal::DeltaSnapshot> delta)
    : state_(std::move(state)),
      delta_(std::move(delta)),
      cursor_(state_->searcher->NewCursor()) {}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

const IndexSpec& Session::spec() const { return state_->spec; }

int Session::num_records() const {
  return internal::MergedSize(*state_->searcher, *delta_);
}

StatusOr<Query> Session::RecordQuery(int id) const {
  return internal::MergedRecordQuery(*state_->searcher, *delta_, id);
}

bool Session::IsLive(int id) const {
  return internal::MergedIsLive(*state_->searcher, *delta_, id);
}

StatusOr<SearchResult> Session::Search(const Query& query) {
  Status valid = state_->searcher->ValidateQuery(query);
  if (!valid.ok()) return valid;
  SearchResult result;
  result.ids = cursor_->SearchOne(query, &result.stats);
  internal::MergeDeltaSearch(*state_->searcher, *delta_, query, result.ids,
                             result.stats);
  return result;
}

StatusOr<BatchResult> Session::SearchBatch(const std::vector<Query>& queries,
                                           const RunOptions& options) {
  auto planned = internal::ResolveRunOptions(state_->spec, options);
  if (!planned.ok()) return planned.status();
  Status valid = internal::ValidateBatch(*state_->searcher, queries);
  if (!valid.ok()) return valid;
  StopWatch watch;
  engine::ExecutionContext context(*state_->executor, planned.value());
  BatchResult result;
  result.ids = cursor_->SearchBatch(queries, context, &result.stats);
  for (size_t i = 0; i < queries.size(); ++i) {
    internal::MergeDeltaSearch(*state_->searcher, *delta_, queries[i],
                               result.ids[i], result.stats);
  }
  result.wall_millis = watch.ElapsedMillis();
  return result;
}

StatusOr<JoinResult> Session::SelfJoin(const RunOptions& options) {
  auto planned = internal::ResolveRunOptions(state_->spec, options);
  if (!planned.ok()) return planned.status();
  StopWatch watch;
  engine::ExecutionContext context(*state_->executor, planned.value());
  JoinResult result;
  result.pairs = cursor_->SelfJoin(context, &result.stats);
  internal::MergeDeltaJoin(*state_->searcher, *delta_, *cursor_, result.pairs,
                           result.stats);
  result.wall_millis = watch.ElapsedMillis();
  return result;
}

Future<BatchResult> Session::SubmitBatch(std::vector<Query> queries,
                                         const RunOptions& options) {
  auto planned = internal::ResolveRunOptions(state_->spec, options);
  if (!planned.ok()) {
    return internal::ReadyFuture<BatchResult>(planned.status());
  }
  Status valid = internal::ValidateBatch(*state_->searcher, queries);
  if (!valid.ok()) return internal::ReadyFuture<BatchResult>(valid);
  // The submission gets its own cursor (minted inside the job), so it
  // shares no scratch with this session's synchronous calls or with other
  // in-flight submissions; it also pins this session's delta, so the
  // future resolves against the same frozen view.
  return internal::SubmitJob<BatchResult>(
      *state_, planned.value(),
      [queries = std::move(queries), delta = delta_](
          const internal::AnySearcher& searcher, internal::AnyCursor& cursor,
          const engine::ExecutionContext& ctx) {
        BatchResult result;
        result.ids = cursor.SearchBatch(queries, ctx, &result.stats);
        for (size_t i = 0; i < queries.size(); ++i) {
          internal::MergeDeltaSearch(searcher, *delta, queries[i],
                                     result.ids[i], result.stats);
        }
        return result;
      });
}

Future<JoinResult> Session::SubmitSelfJoin(const RunOptions& options) {
  auto planned = internal::ResolveRunOptions(state_->spec, options);
  if (!planned.ok()) {
    return internal::ReadyFuture<JoinResult>(planned.status());
  }
  return internal::SubmitJob<JoinResult>(
      *state_, planned.value(),
      [delta = delta_](const internal::AnySearcher& searcher,
                       internal::AnyCursor& cursor,
                       const engine::ExecutionContext& ctx) {
        JoinResult result;
        result.pairs = cursor.SelfJoin(ctx, &result.stats);
        internal::MergeDeltaJoin(searcher, *delta, cursor, result.pairs,
                                 result.stats);
        return result;
      });
}

}  // namespace pigeonring::api
