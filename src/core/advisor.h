// Chain-length advisor (§6 "choose proper chain length l", §7 cost model).
//
// The paper picks l empirically per workload; this module closes the loop
// analytically. Per §7, the pigeonring search cost decomposes as
//   C = C_C1 + C_C2 + |A_PR| * c_V,     C_C2 <= (l-1) * |V| * c_B,
// where |V| is the number of viable entry boxes found by step 1 and |A_PR|
// the candidates at chain length l. Normalizing per probed object and using
// the §3.1 model for the candidate probabilities yields a per-object cost
//   cost(l) ~= (l-1) * Pr(CAND_1) * box_check_cost
//              + Pr(CAND_l) * verify_cost,
// whose argmin is the suggested chain length. The fixed step-1 cost C_C1 is
// independent of l and drops out of the comparison.

#ifndef PIGEONRING_CORE_ADVISOR_H_
#define PIGEONRING_CORE_ADVISOR_H_

#include "core/analysis.h"

namespace pigeonring::core {

/// Relative costs of the two l-dependent terms of §7. Units are arbitrary;
/// only the ratio matters.
struct ChainCostModel {
  /// Cost of evaluating one additional box in the step-2 chain check
  /// (a popcount for Hamming search, a short merge for set search, ...).
  double box_check_cost = 1.0;
  /// Cost of verifying one candidate (computing f(x, q) exactly).
  double verify_cost = 100.0;
};

/// Expected per-object filtering + verification cost at chain length l
/// under the §3.1 model.
double EstimatedChainCost(const FilterAnalysis& analysis, int l,
                          const ChainCostModel& costs);

/// Returns the l in [1 .. max_l] minimizing EstimatedChainCost (ties go to
/// the smaller l). Requires 1 <= max_l <= m.
int SuggestChainLength(const FilterAnalysis& analysis, int max_l,
                       const ChainCostModel& costs);

/// The advisor's call on the fixed-length edit distance fast path
/// (editdist/casedec.h) for IndexSpec::edit_fast_path == kAuto.
struct EditFastPathAdvice {
  bool use_fast_path = false;
  /// Human-readable rationale, surfaced in logs and tests.
  const char* reason = "";
};

/// Decides whether a strings collection should be served by the
/// case-decomposition fast path. `uniform_length` is the shared string
/// length, or -1 when the collection is ineligible (mixed lengths, empty
/// strings, over-long strings — the caller computes it via
/// editdist::CaseDecSearcher::UniformLength). Beyond eligibility the
/// advisor declines tau >= 3, where the pivotal path measured faster, and
/// enforces an index-size budget: the deletion neighborhoods of the
/// deepest case must stay small (C(L, floor(tau/2)) variants per record,
/// and num_records * variants total signature rows), since the fast path
/// trades index memory for filter speed.
EditFastPathAdvice AdviseEditFastPath(int64_t num_records,
                                      int uniform_length, int tau);

}  // namespace pigeonring::core

#endif  // PIGEONRING_CORE_ADVISOR_H_
