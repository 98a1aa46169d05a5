// Pigeonhole-principle baselines for set similarity search (§8.1):
//
//  * AllPairsSearcher — classic prefix filtering with length and position
//    filters. This stands in for AdaptSearch with prefix extension disabled,
//    which the paper itself reduces to the AllPairs / PPJoin search
//    algorithm (§8.1, set similarity competitors).
//  * PartAllocSearcher — a partition-count filter over the full token sets:
//    the universe is split into classes and, by the pigeonhole principle
//    with integer reduction (>= sense), a result must reach a per-class
//    shared-count threshold in some class. This is a simplified stand-in
//    for PartAlloc (fixed allocation instead of the original's cost-model
//    allocation); like PartAlloc it produces few candidates at a high
//    filtering cost, which is the behaviour the paper's Figure 10
//    highlights.

#ifndef PIGEONRING_SETSIM_BASELINES_H_
#define PIGEONRING_SETSIM_BASELINES_H_

#include <cstdint>
#include <vector>

#include "setsim/pkwise.h"
#include "setsim/record.h"

namespace pigeonring::setsim {

/// Prefix-filter baseline (AllPairs/PPJoin search version).
class AllPairsSearcher {
 public:
  AllPairsSearcher(const SetCollection* collection, double tau);

  std::vector<int> Search(const RankedSet& query,
                          engine::QueryStats* stats = nullptr);

 private:
  struct Posting {
    int id;
    int position;  // token's position within the record
  };

  const SetCollection* collection_;
  double tau_;
  std::vector<std::vector<Posting>> inverted_;  // prefix tokens only

  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
};

/// Partition-count baseline (PartAlloc-style).
class PartAllocSearcher {
 public:
  /// `num_parts` is the number of universe classes (boxes).
  PartAllocSearcher(const SetCollection* collection, double tau,
                    int num_parts = 4);

  std::vector<int> Search(const RankedSet& query,
                          engine::QueryStats* stats = nullptr);

 private:
  const SetCollection* collection_;
  double tau_;
  int num_parts_;
  std::vector<std::vector<int>> inverted_;  // all tokens

  uint32_t epoch_ = 0;
  std::vector<uint32_t> seen_epoch_;
  std::vector<int> part_counts_;
  std::vector<int> touched_;
};

}  // namespace pigeonring::setsim

#endif  // PIGEONRING_SETSIM_BASELINES_H_
