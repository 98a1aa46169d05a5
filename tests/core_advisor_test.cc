// Tests for the chain-length advisor, the edit fast-path advice and the
// suffix-direction predicates (Corollary 1).

#include "core/advisor.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "core/principle.h"

namespace pigeonring::core {
namespace {

// ---------------------------------------------------------------------------
// Suffix-viable chains (Corollary 1).
// ---------------------------------------------------------------------------

TEST(SuffixViableTest, ExistsWheneverSumWithinBound) {
  Rng rng(61);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(10));
    std::vector<double> boxes(m);
    double sum = 0;
    for (double& b : boxes) {
      b = rng.NextDouble() * 4.0;
      sum += b;
    }
    const double n = sum + rng.NextDouble();
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int l = 1; l <= m; ++l) {
      EXPECT_TRUE(FindSuffixViableChain(boxes, t, l).has_value())
          << "m=" << m << " l=" << l;
    }
  }
}

TEST(SuffixViableTest, FoundChainHasAllSuffixesViable) {
  Rng rng(67);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(8));
    std::vector<double> boxes(m);
    for (double& b : boxes) b = rng.NextDouble() * 4.0;
    const double n = rng.NextDouble() * 2.5 * m;
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    Ring ring(boxes);
    for (int l = 1; l <= m; ++l) {
      auto end = FindSuffixViableChain(boxes, t, l);
      if (!end.has_value()) continue;
      double sum = 0;
      for (int len = 1; len <= l; ++len) {
        const int start = *end - len + 1;
        sum += ring.Box(start);
        EXPECT_TRUE(t.Viable(sum, start, len))
            << "end=" << *end << " len=" << len;
      }
    }
  }
}

TEST(SuffixViableTest, MirrorsPrefixViableOnReversedRing) {
  // A suffix-viable chain ending at i on B corresponds to a prefix-viable
  // chain starting at (m-1-i) on the reversed box sequence.
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(8));
    std::vector<double> boxes(m), reversed(m);
    for (int i = 0; i < m; ++i) boxes[i] = rng.NextDouble() * 4.0;
    for (int i = 0; i < m; ++i) reversed[i] = boxes[m - 1 - i];
    const double n = rng.NextDouble() * 2.5 * m;
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int l = 1; l <= m; ++l) {
      EXPECT_EQ(FindSuffixViableChain(boxes, t, l).has_value(),
                FindPrefixViableChain(reversed, t, l).has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Chain-length advisor.
// ---------------------------------------------------------------------------

TEST(AdvisorTest, FreeVerificationSuggestsLengthOne) {
  // With verify_cost = 0 there is nothing to save: every extra box is pure
  // overhead.
  FilterAnalysis analysis(DiscretePmf::UniformInt(0, 16), 8, 48);
  ChainCostModel costs;
  costs.verify_cost = 0.0;
  EXPECT_EQ(SuggestChainLength(analysis, 8, costs), 1);
}

TEST(AdvisorTest, FreeChainChecksSuggestMaximumFiltering) {
  // With box_check_cost = 0 longer chains are free candidate reductions.
  FilterAnalysis analysis(DiscretePmf::UniformInt(0, 16), 8, 48);
  ChainCostModel costs;
  costs.box_check_cost = 0.0;
  costs.verify_cost = 1.0;
  const int suggested = SuggestChainLength(analysis, 8, costs);
  // Pr(CAND_l) is non-increasing, so the suggestion must be the largest l
  // that still strictly reduces candidates (ties go to smaller l).
  EXPECT_GT(suggested, 1);
  EXPECT_LE(EstimatedChainCost(analysis, suggested, costs),
            EstimatedChainCost(analysis, 1, costs));
}

TEST(AdvisorTest, SuggestionGrowsWithVerificationCost) {
  FilterAnalysis analysis(DiscretePmf::UniformInt(0, 16), 16, 96);
  ChainCostModel cheap{1.0, 10.0};
  ChainCostModel expensive{1.0, 100000.0};
  EXPECT_LE(SuggestChainLength(analysis, 16, cheap),
            SuggestChainLength(analysis, 16, expensive));
}

TEST(AdvisorTest, CostAtSuggestionIsMinimal) {
  FilterAnalysis analysis(DiscretePmf::UniformInt(0, 32), 8, 48);
  ChainCostModel costs{1.0, 250.0};
  const int suggested = SuggestChainLength(analysis, 8, costs);
  const double best = EstimatedChainCost(analysis, suggested, costs);
  for (int l = 1; l <= 8; ++l) {
    EXPECT_GE(EstimatedChainCost(analysis, l, costs), best - 1e-12);
  }
}

TEST(AdvisorTest, RespectsMaxLength) {
  FilterAnalysis analysis(DiscretePmf::UniformInt(0, 16), 8, 48);
  ChainCostModel costs{0.0, 1.0};
  EXPECT_LE(SuggestChainLength(analysis, 3, costs), 3);
}

TEST(AdvisorTest, EditFastPathDeclinesTauThreeAndAbove) {
  // Fixed-length collections well inside the index budget: tau <= 2 takes
  // the fast path, tau 3 and 4 keep the pivotal path.
  for (int length : {8, 16, 32}) {
    SCOPED_TRACE("length " + std::to_string(length));
    EXPECT_TRUE(AdviseEditFastPath(5000, length, 1).use_fast_path);
    EXPECT_TRUE(AdviseEditFastPath(5000, length, 2).use_fast_path);
    EXPECT_FALSE(AdviseEditFastPath(5000, length, 3).use_fast_path);
    EXPECT_FALSE(AdviseEditFastPath(5000, length, 4).use_fast_path);
  }
}

}  // namespace
}  // namespace pigeonring::core
