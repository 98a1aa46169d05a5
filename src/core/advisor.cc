#include "core/advisor.h"

#include "common/logging.h"

namespace pigeonring::core {

double EstimatedChainCost(const FilterAnalysis& analysis, int l,
                          const ChainCostModel& costs) {
  PR_CHECK(l >= 1);
  const double entry_rate = analysis.PrCand(1);
  const double candidate_rate = analysis.PrCand(l);
  return (l - 1) * entry_rate * costs.box_check_cost +
         candidate_rate * costs.verify_cost;
}

EditFastPathAdvice AdviseEditFastPath(int64_t num_records,
                                      int uniform_length, int tau) {
  PR_CHECK(num_records >= 0 && tau >= 0);
  if (uniform_length < 0) {
    return {false, "collection is not fixed-length"};
  }
  if (num_records == 0 || uniform_length == 0) {
    return {true, "empty collection: the fast path is free"};
  }
  if (tau >= uniform_length) {
    // Every case filter would be all-pass; the fast path degenerates to a
    // brute-force verify of the whole collection per probe.
    return {false, "tau >= string length leaves nothing to filter"};
  }
  if (tau >= 3) {
    // Measured on self-joins of 5k-20k strings of lengths 8-32 at one
    // thread: at tau 3 and 4 the fast path took 3x to 14x the pivotal
    // path's time for the same pairs. At tau <= 2 neither path wins on
    // every collection.
    return {false, "tau >= 3: the pivotal path is faster"};
  }
  // Index-size budget: the deepest case j = floor(tau / 2) stores
  // C(L, j) signature rows per record.
  constexpr int64_t kMaxVariantsPerRecord = 512;
  constexpr int64_t kMaxSignatureRows = int64_t{4} << 20;
  int64_t variants = 1;
  for (int i = 1; i <= tau / 2; ++i) {
    variants = variants * (uniform_length - tau / 2 + i) / i;
    if (variants > kMaxVariantsPerRecord) {
      return {false, "deletion neighborhood too large for the index budget"};
    }
  }
  if (num_records > kMaxSignatureRows / variants) {
    return {false, "signature rows would exceed the index memory budget"};
  }
  return {true, "fixed-length collection within the index budget"};
}

int SuggestChainLength(const FilterAnalysis& analysis, int max_l,
                       const ChainCostModel& costs) {
  PR_CHECK(max_l >= 1);
  int best_l = 1;
  double best_cost = EstimatedChainCost(analysis, 1, costs);
  for (int l = 2; l <= max_l; ++l) {
    const double cost = EstimatedChainCost(analysis, l, costs);
    if (cost < best_cost) {
      best_cost = cost;
      best_l = l;
    }
  }
  return best_l;
}

}  // namespace pigeonring::core
