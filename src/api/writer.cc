#include "api/writer.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/internal.h"

namespace pigeonring::api {

namespace internal {

HubView AcquireView(DbHub& hub) {
  // Declared before the lock so the retired epoch dies after mu is
  // released (its ~Executor joins dispatcher threads — never hold a lock
  // across that).
  std::shared_ptr<const DbState> retired;
  HubView view;
  {
    std::lock_guard<std::mutex> lock(hub.mu);
    retired = InstallPendingLocked(hub);
    view.state = hub.current;
    view.delta = hub.delta;
    view.epoch = hub.epoch;
  }
  return view;
}

std::shared_ptr<const DbState> InstallPendingLocked(DbHub& hub) {
  if (!hub.pending.has_value()) return nullptr;
  PendingPublish pending = std::move(*hub.pending);
  hub.pending.reset();
  auto next = std::make_shared<DbState>();
  next->spec = hub.current->spec;
  next->searcher = std::move(pending.searcher);
  next->executor = std::make_unique<engine::Executor>(next->spec.num_threads);
  std::shared_ptr<const DeltaSnapshot> rebased =
      RebaseDelta(*pending.built_from, *hub.delta, next->searcher->size());
  std::shared_ptr<const DbState> retired = std::move(hub.current);
  hub.current = std::move(next);
  hub.delta = std::move(rebased);
  ++hub.epoch;
  return retired;
}

std::shared_ptr<const DeltaSnapshot> RebaseDelta(const DeltaSnapshot& built,
                                                 const DeltaSnapshot& now,
                                                 int new_base_size) {
  auto rebased = std::make_shared<DeltaSnapshot>();
  // Inserts logged after the compaction snapshot carry over verbatim;
  // their log indexes shift down by the |built.inserts| the new base
  // absorbed.
  const int absorbed_inserts = static_cast<int>(built.inserts.size());
  rebased->inserts.assign(now.inserts.begin() + absorbed_inserts,
                          now.inserts.end());
  // Base removals the compaction did not absorb name ids that survived
  // into the new base; renumber them past the removals that did get
  // absorbed.
  for (int id : now.removed_base) {
    if (!engine::SortedContains(built.removed_base, id)) {
      rebased->removed_base.push_back(
          engine::SurvivorId(built.removed_base, id));
    }
  }
  // Unabsorbed delta removals: a target logged before the snapshot is now
  // a record of the new base (packed after the old base's survivors);
  // later targets stay delta-local.
  const int base_survivors =
      new_base_size -
      (absorbed_inserts - static_cast<int>(built.removed_delta.size()));
  for (int k : now.removed_delta) {
    if (engine::SortedContains(built.removed_delta, k)) continue;
    if (k < absorbed_inserts) {
      rebased->removed_base.push_back(
          base_survivors + engine::SurvivorId(built.removed_delta, k));
    } else {
      rebased->removed_delta.push_back(k - absorbed_inserts);
    }
  }
  std::sort(rebased->removed_base.begin(), rebased->removed_base.end());
  std::sort(rebased->removed_delta.begin(), rebased->removed_delta.end());
  return rebased;
}

}  // namespace internal

namespace {

/// The one shape rule CanonicalizeInsert cannot check alone: inserts into
/// an *empty* base must agree with each other (the first pending insert
/// fixes the hamming dimensionality / the fast path's uniform length), or
/// compaction could build an index no further insert fits. `hub.mu` held.
Status CheckDeltaShapeLocked(const internal::DbHub& hub, const IndexSpec& spec,
                             const Query& canonical) {
  if (hub.current->searcher->size() > 0 || hub.delta->inserts.empty()) {
    return Status::Ok();
  }
  const Query& first = hub.delta->inserts.front();
  if (spec.domain == Domain::kHamming) {
    const int have = std::get<BitVector>(first).dimensions();
    const int d = std::get<BitVector>(canonical).dimensions();
    if (d != have) {
      return Status::InvalidArgument(
          "query has " + std::to_string(d) +
          " dimensions but the pending inserts have " + std::to_string(have));
    }
  } else if (spec.domain == Domain::kEdit &&
             spec.edit_fast_path == EditFastPath::kOn) {
    const auto have = std::get<std::string>(first).size();
    const auto length = std::get<std::string>(canonical).size();
    if (length != have) {
      return Status::InvalidArgument(
          "edit_fast_path=on indexes fixed-length strings: cannot insert "
          "a " +
          std::to_string(length) + "-char string alongside pending length-" +
          std::to_string(have) + " inserts");
    }
  }
  return Status::Ok();
}

/// Kicks off the background rebuild of base + delta on the current
/// epoch's executor. `hub.mu` held; `hub.compaction_inflight` must be
/// false.
///
/// The job captures a raw DbHub* on purpose (see DbHub's comment): its
/// last hub access is inside its final mu critical section, and ~Writer
/// waits out `compaction_inflight` before the hub can die. It pins the
/// base searcher and the delta via shared_ptr — neither owns an executor,
/// so a dispatcher thread may safely drop them.
void LaunchCompactionLocked(internal::DbHub& hub) {
  hub.compaction_inflight = true;
  internal::DbHub* raw_hub = &hub;
  hub.current->executor->Submit(
      [raw_hub, spec = hub.current->spec, base = hub.current->searcher,
       delta = hub.delta]() mutable {
        auto rebuilt = internal::RebuildWithDelta(spec, *base, *delta);
        base.reset();
        std::lock_guard<std::mutex> lock(raw_hub->mu);
        if (rebuilt.ok()) {
          raw_hub->pending = internal::PendingPublish{
              std::shared_ptr<const internal::AnySearcher>(
                  std::move(rebuilt).value()),
              std::move(delta)};
        } else {
          raw_hub->compaction_error = rebuilt.status();
        }
        raw_hub->compaction_inflight = false;
        raw_hub->cv.notify_all();
      });
}

/// Fires the spec's compaction triggers against the pending mutation
/// count. `hub.mu` held.
void MaybeCompactLocked(internal::DbHub& hub, const IndexSpec& spec) {
  if (hub.compaction_inflight || hub.pending.has_value()) return;
  const int64_t pending = hub.delta->NumMutations();
  if (pending <= 0) return;
  const int base = hub.current->searcher->size();
  const bool over_threshold = spec.delta_compact_threshold > 0 &&
                              pending >= spec.delta_compact_threshold;
  const bool over_ratio = spec.delta_compact_ratio > 0 && base > 0 &&
                          static_cast<double>(pending) >=
                              spec.delta_compact_ratio * base;
  if (over_threshold || over_ratio) LaunchCompactionLocked(hub);
}

}  // namespace

Writer::Writer(std::shared_ptr<internal::DbHub> hub, IndexSpec spec)
    : hub_(std::move(hub)), spec_(std::move(spec)) {}

Writer::Writer(Writer&& other) noexcept = default;

Writer& Writer::operator=(Writer&& other) noexcept {
  if (this != &other) {
    Release();
    hub_ = std::move(other.hub_);
    spec_ = std::move(other.spec_);
  }
  return *this;
}

Writer::~Writer() { Release(); }

void Writer::Release() {
  if (hub_ == nullptr) return;
  std::shared_ptr<const internal::DbState> retired;
  {
    std::unique_lock<std::mutex> lock(hub_->mu);
    hub_->cv.wait(lock, [this] { return !hub_->compaction_inflight; });
    retired = internal::InstallPendingLocked(*hub_);
    hub_->writer_alive = false;
  }
  hub_.reset();
}

int Writer::num_records() const {
  internal::HubView view = internal::AcquireView(*hub_);
  return internal::MergedSize(*view.state->searcher, *view.delta);
}

int64_t Writer::num_pending() const {
  return internal::AcquireView(*hub_).delta->NumMutations();
}

StatusOr<int> Writer::Insert(const Query& record) {
  std::shared_ptr<const internal::DbState> retired;
  std::lock_guard<std::mutex> lock(hub_->mu);
  retired = internal::InstallPendingLocked(*hub_);
  if (!hub_->compaction_error.ok()) {
    Status error = std::move(hub_->compaction_error);
    hub_->compaction_error = Status::Ok();
    return error;
  }
  const internal::AnySearcher& searcher = *hub_->current->searcher;
  StatusOr<Query> canonical = searcher.CanonicalizeInsert(record);
  if (!canonical.ok()) return canonical.status();
  Status shape = CheckDeltaShapeLocked(*hub_, spec_, *canonical);
  if (!shape.ok()) return shape;
  // Copy-on-write: sessions freeze the old snapshot, so it must never
  // mutate in place.
  auto next = std::make_shared<internal::DeltaSnapshot>(*hub_->delta);
  next->inserts.push_back(std::move(canonical).value());
  hub_->delta = std::move(next);
  const int id =
      searcher.size() + static_cast<int>(hub_->delta->inserts.size()) - 1;
  MaybeCompactLocked(*hub_, spec_);
  return id;
}

Status Writer::Remove(int id) {
  std::shared_ptr<const internal::DbState> retired;
  std::lock_guard<std::mutex> lock(hub_->mu);
  retired = internal::InstallPendingLocked(*hub_);
  if (!hub_->compaction_error.ok()) {
    Status error = std::move(hub_->compaction_error);
    hub_->compaction_error = Status::Ok();
    return error;
  }
  const internal::AnySearcher& searcher = *hub_->current->searcher;
  if (!internal::MergedIsLive(searcher, *hub_->delta, id)) {
    const int size = internal::MergedSize(searcher, *hub_->delta);
    if (id < 0 || id >= size) {
      return Status::NotFound("record id " + std::to_string(id) +
                              " outside [0, " + std::to_string(size) + ")");
    }
    return Status::NotFound("record id " + std::to_string(id) +
                            " was already removed in this epoch");
  }
  auto next = std::make_shared<internal::DeltaSnapshot>(*hub_->delta);
  if (id < searcher.size()) {
    std::vector<int>& removed = next->removed_base;
    removed.insert(std::upper_bound(removed.begin(), removed.end(), id), id);
  } else {
    const int k = id - searcher.size();
    std::vector<int>& removed = next->removed_delta;
    removed.insert(std::upper_bound(removed.begin(), removed.end(), k), k);
  }
  hub_->delta = std::move(next);
  MaybeCompactLocked(*hub_, spec_);
  return Status::Ok();
}

Status Writer::Compact(const RunOptions& options) {
  // Planned through ResolveRunOptions like every query path, so the
  // RunOptions error surface is pinned identical (api_test). The resolved
  // options are validation-only for now: the rebuild is single-threaded
  // and the fresh epoch's executor starts at the spec's width.
  auto planned = internal::ResolveRunOptions(spec_, options);
  if (!planned.ok()) return planned.status();
  std::shared_ptr<const internal::DbState> retired;
  std::shared_ptr<const internal::DbState> published;
  std::shared_ptr<const internal::DbState> state;
  std::shared_ptr<const internal::DeltaSnapshot> delta;
  {
    std::unique_lock<std::mutex> lock(hub_->mu);
    hub_->cv.wait(lock, [this] { return !hub_->compaction_inflight; });
    retired = internal::InstallPendingLocked(*hub_);
    // An explicit compaction supersedes a failed background attempt:
    // clear the parked error and retry inline.
    hub_->compaction_error = Status::Ok();
    if (hub_->delta->Empty()) return Status::Ok();
    state = hub_->current;
    delta = hub_->delta;
    hub_->compaction_inflight = true;
  }
  // Inline on the caller's thread — a user thread, so installing the
  // result (and retiring the old epoch on the way out) is safe.
  auto rebuilt =
      internal::RebuildWithDelta(state->spec, *state->searcher, *delta);
  const Status result = rebuilt.ok() ? Status::Ok() : rebuilt.status();
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    if (rebuilt.ok()) {
      hub_->pending = internal::PendingPublish{
          std::shared_ptr<const internal::AnySearcher>(
              std::move(rebuilt).value()),
          std::move(delta)};
      published = internal::InstallPendingLocked(*hub_);
    }
    // On failure the delta is left intact for a later retry.
    hub_->compaction_inflight = false;
    hub_->cv.notify_all();
  }
  return result;
}

}  // namespace pigeonring::api
