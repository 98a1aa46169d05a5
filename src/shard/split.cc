#include "shard/split.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace pigeonring::shard {

namespace {

/// global id -> local id for one shard's ascending global-id list, -1 for
/// records owned elsewhere.
std::vector<int> LocalIds(const std::vector<int>& global_ids,
                          int num_records) {
  std::vector<int> local(static_cast<size_t>(num_records), -1);
  for (int l = 0; l < static_cast<int>(global_ids.size()); ++l) {
    local[static_cast<size_t>(global_ids[l])] = l;
  }
  return local;
}

template <typename T>
std::vector<T> Subset(const std::vector<T>& full,
                      const std::vector<int>& global_ids) {
  std::vector<T> out;
  out.reserve(global_ids.size());
  for (int g : global_ids) out.push_back(full[static_cast<size_t>(g)]);
  return out;
}

/// Keeps only postings owned by the shard, remapped to local ids via
/// `project` (which must preserve the posting's id order — ascending global
/// ids map to ascending local ids, so filtering preserves the FromBuilt
/// loaders' id-ascending invariant).
template <typename Posting, typename Project>
std::vector<Posting> FilterPostings(const std::vector<Posting>& postings,
                                    const std::vector<int>& local_of,
                                    Project&& project) {
  std::vector<Posting> out;
  for (const Posting& p : postings) {
    Posting q = p;
    if (project(q, local_of)) out.push_back(q);
  }
  return out;
}

}  // namespace

std::vector<ShardPart<engine::HammingAdapter>> Split(
    const engine::HammingAdapter& full, const Partitioner& partitioner) {
  const hamming::HammingSearcher& fs = full.searcher();
  const auto full_index = fs.shared_partition_index();
  const auto owned = partitioner.Partition(fs.num_objects());
  std::vector<ShardPart<engine::HammingAdapter>> parts;
  for (const std::vector<int>& global_ids : owned) {
    if (global_ids.empty()) continue;
    // Re-hashing the shard's rows under the full partition reproduces
    // exactly the full index's buckets filtered to this shard (same keys,
    // ascending ids), without touching the bucket internals.
    std::vector<BitVector> objects = Subset(fs.objects(), global_ids);
    auto index = std::make_shared<const hamming::PartitionIndex>(
        objects, full_index->partition());
    parts.push_back({global_ids,
                     full.Rebind(hamming::HammingSearcher::FromBuilt(
                         std::move(objects), std::move(index), full_index)),
                     nullptr});
  }
  return parts;
}

std::vector<ShardPart<engine::SetAdapter>> Split(
    const engine::SetAdapter& full, const Partitioner& partitioner) {
  const setsim::SetCollection& fc = *full.collection();
  const setsim::PkwiseSearcher& fs = full.searcher();
  const setsim::PkwiseSearcher::Index& findex = fs.index();
  const auto dictionary = fc.ExportDictionary();
  const auto owned = partitioner.Partition(fc.num_records());
  std::vector<ShardPart<engine::SetAdapter>> parts;
  for (const std::vector<int>& global_ids : owned) {
    if (global_ids.empty()) continue;
    // The dictionary, universe size, and per-record prefixes are global /
    // per-record artifacts of the full build; only the inverted lists need
    // local ids, and re-deriving them from the copied prefixes is exactly
    // the building loop over the shard's records.
    auto collection =
        std::make_shared<const setsim::SetCollection>(setsim::SetCollection::FromBuilt(
            dictionary, Subset(fc.records(), global_ids), fc.universe_size()));
    auto index = std::make_shared<setsim::PkwiseSearcher::Index>();
    index->prefixes = Subset(findex.prefixes, global_ids);
    index->inverted.assign(static_cast<size_t>(fc.universe_size()), {});
    for (int l = 0; l < collection->num_records(); ++l) {
      const setsim::RankedSet& x = collection->record(l);
      for (int p = 0; p < index->prefixes[static_cast<size_t>(l)].prefix_length;
           ++p) {
        index->inverted[static_cast<size_t>(x[static_cast<size_t>(p)])]
            .push_back(l);
      }
    }
    auto searcher = setsim::PkwiseSearcher::FromBuilt(
        collection.get(), fs.tau(), fs.num_boxes(), fs.measure(),
        std::move(index));
    parts.push_back({global_ids,
                     full.Rebind(std::move(searcher), collection.get()),
                     collection});
  }
  return parts;
}

std::vector<ShardPart<engine::EditAdapter>> Split(
    const engine::EditAdapter& full, const Partitioner& partitioner) {
  using Index = editdist::EditDistanceSearcher::Index;
  const editdist::EditDistanceSearcher& fs = full.searcher();
  const Index& findex = fs.index();
  const int num_records = static_cast<int>(full.data()->size());
  const auto owned = partitioner.Partition(num_records);
  std::vector<ShardPart<engine::EditAdapter>> parts;
  for (const std::vector<int>& global_ids : owned) {
    if (global_ids.empty()) continue;
    const std::vector<int> local_of = LocalIds(global_ids, num_records);
    auto data = std::make_shared<const std::vector<std::string>>(
        Subset(*full.data(), global_ids));
    auto index = std::make_shared<Index>(findex.dictionary);
    index->profiles = Subset(findex.profiles, global_ids);
    index->padded = Subset(findex.padded, global_ids);
    index->window_masks = Subset(findex.window_masks, global_ids);
    for (const auto& [rank, postings] : findex.pivotal_index) {
      auto filtered = FilterPostings(
          postings, local_of, [](auto& p, const std::vector<int>& local) {
            if (local[static_cast<size_t>(p.id)] < 0) return false;
            p.id = local[static_cast<size_t>(p.id)];
            return true;
          });
      if (!filtered.empty()) index->pivotal_index.emplace(rank, std::move(filtered));
    }
    for (const auto& [rank, postings] : findex.prefix_index) {
      auto filtered = FilterPostings(
          postings, local_of, [](auto& p, const std::vector<int>& local) {
            if (local[static_cast<size_t>(p.id)] < 0) return false;
            p.id = local[static_cast<size_t>(p.id)];
            return true;
          });
      if (!filtered.empty()) index->prefix_index.emplace(rank, std::move(filtered));
    }
    for (const auto& [length, ids] : findex.ids_by_length) {
      std::vector<int> filtered;
      for (int id : ids) {
        if (local_of[static_cast<size_t>(id)] >= 0) {
          filtered.push_back(local_of[static_cast<size_t>(id)]);
        }
      }
      if (!filtered.empty()) index->ids_by_length.emplace(length, std::move(filtered));
    }
    for (int id : findex.short_ids) {
      if (local_of[static_cast<size_t>(id)] >= 0) {
        index->short_ids.push_back(local_of[static_cast<size_t>(id)]);
      }
    }
    auto searcher = editdist::EditDistanceSearcher::FromBuilt(
        data.get(), fs.tau(), findex.dictionary.kappa(), std::move(index));
    parts.push_back(
        {global_ids, full.Rebind(std::move(searcher), data.get()), data});
  }
  return parts;
}

std::vector<ShardPart<engine::EditFastAdapter>> Split(
    const engine::EditFastAdapter& full, const Partitioner& partitioner) {
  using Case = editdist::CaseDecSearcher::Case;
  const editdist::CaseDecSearcher& fs = full.searcher();
  const int length = fs.length();
  const auto owned = partitioner.Partition(fs.num_records());
  std::vector<ShardPart<engine::EditFastAdapter>> parts;
  for (const std::vector<int>& global_ids : owned) {
    if (global_ids.empty()) continue;
    auto data = std::make_shared<const std::vector<std::string>>(
        Subset(*full.data(), global_ids));
    // Per case: rebuild the shard's signature rows (record-major, so they
    // are exactly the full rows filtered to this shard) and re-hash them
    // under the full case partition. The per-case Hamming searchers run
    // AllocationMode::kRadiusZero, which reads bucket counts — inject the
    // full case index so the probe schedule matches the unsharded one.
    std::vector<Case> cases;
    cases.reserve(fs.cases().size());
    for (const Case& c : fs.cases()) {
      const auto full_case_index = c.searcher.shared_partition_index();
      std::vector<BitVector> rows =
          editdist::CaseDecSearcher::BuildCaseRows(*data, length, c.indels);
      auto index = std::make_shared<const hamming::PartitionIndex>(
          rows, full_case_index->partition());
      cases.push_back({c.indels, c.hamming_tau,
                       hamming::HammingSearcher::FromBuilt(
                           std::move(rows), std::move(index), full_case_index),
                       nullptr});
    }
    auto searcher = editdist::CaseDecSearcher::FromBuilt(data.get(), fs.tau(),
                                                         std::move(cases));
    parts.push_back(
        {global_ids, full.Rebind(std::move(searcher), data.get()), data});
  }
  return parts;
}

std::vector<ShardPart<engine::GraphAdapter>> Split(
    const engine::GraphAdapter& full, const Partitioner& partitioner) {
  using State = graphed::GraphSearcher::State;
  const graphed::GraphSearcher& fs = full.searcher();
  const auto owned = partitioner.Partition(static_cast<int>(full.data()->size()));
  std::vector<ShardPart<engine::GraphAdapter>> parts;
  for (const std::vector<int>& global_ids : owned) {
    if (global_ids.empty()) continue;
    auto data = std::make_shared<const std::vector<graphed::Graph>>(
        Subset(*full.data(), global_ids));
    auto state = std::make_shared<const State>(
        State{Subset(fs.state().parts, global_ids),
              Subset(fs.state().histograms, global_ids)});
    auto searcher =
        graphed::GraphSearcher::FromBuilt(data.get(), fs.tau(), state);
    parts.push_back(
        {global_ids, full.Rebind(std::move(searcher), data.get()), data});
  }
  return parts;
}

}  // namespace pigeonring::shard
