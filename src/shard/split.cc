#include "shard/split.h"

#include <string>
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

/// Projects every list of a CSR array onto one shard: keeps the entries
/// whose record (`id_of(entry)`) the shard owns, remapped to local ids.
/// Ascending global ids map to ascending local ids, so each list keeps the
/// id-ascending build order that id-limited searches rely on.
template <typename Entry, typename IdOf>
void ProjectLists(const std::vector<size_t>& offsets,
                  const std::vector<Entry>& entries,
                  const std::vector<int>& local_of, IdOf&& id_of,
                  std::vector<size_t>* out_offsets,
                  std::vector<Entry>* out_entries) {
  out_offsets->assign(1, 0);
  out_offsets->reserve(offsets.size());
  for (size_t list = 0; list + 1 < offsets.size(); ++list) {
    for (size_t k = offsets[list]; k < offsets[list + 1]; ++k) {
      Entry entry = entries[k];
      int& id = id_of(entry);
      if (local_of[static_cast<size_t>(id)] < 0) continue;
      id = local_of[static_cast<size_t>(id)];
      out_entries->push_back(entry);
    }
    out_offsets->push_back(out_entries->size());
  }
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
    // Re-indexing the shard's rows under the full partition reproduces
    // exactly the full index's buckets filtered to this shard (same keys,
    // ascending ids), without touching the postings arrays.
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
    index->window_offsets.assign(1, 0);
    for (int g : global_ids) {
      index->window_masks.insert(
          index->window_masks.end(),
          findex.window_masks.begin() + findex.window_offsets[g],
          findex.window_masks.begin() + findex.window_offsets[g + 1]);
      index->window_offsets.push_back(index->window_masks.size());
    }
    auto posting_id = [](auto& posting) -> int& { return posting.id; };
    ProjectLists(findex.pivotal_offsets, findex.pivotal_postings, local_of,
                 posting_id, &index->pivotal_offsets,
                 &index->pivotal_postings);
    ProjectLists(findex.prefix_offsets, findex.prefix_postings, local_of,
                 posting_id, &index->prefix_offsets, &index->prefix_postings);
    ProjectLists(findex.length_offsets, findex.length_ids, local_of,
                 [](int& id) -> int& { return id; }, &index->length_offsets,
                 &index->length_ids);
    for (int id : findex.short_ids) {
      if (local_of[static_cast<size_t>(id)] >= 0) {
        index->short_ids.push_back(local_of[static_cast<size_t>(id)]);
      }
    }
    // The ring arrays and the postings' derived fields are re-derived by
    // FromBuilt from the projected profiles and strings.
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
    // are exactly the full rows filtered to this shard) and re-index them
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
