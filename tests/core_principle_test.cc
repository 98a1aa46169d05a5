// Unit and property tests for the pigeonhole / pigeonring predicates
// (Theorems 1-3, 6, 7; Lemmas 1-4; Corollaries 1-2).

#include "core/principle.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/ring.h"

namespace pigeonring::core {
namespace {

// ---------------------------------------------------------------------------
// Reference (brute-force) implementations used as oracles.
// ---------------------------------------------------------------------------

bool BruteForcePrefixViable(const std::vector<double>& boxes,
                            const ThresholdSeq& t, int start, int l) {
  Ring ring(boxes);
  for (int len = 1; len <= l; ++len) {
    if (!t.Viable(ring.ChainSum(start, len), start, len)) return false;
  }
  return true;
}

bool BruteForceExists(const std::vector<double>& boxes, const ThresholdSeq& t,
                      int l) {
  for (int i = 0; i < static_cast<int>(boxes.size()); ++i) {
    if (BruteForcePrefixViable(boxes, t, i, l)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Paper worked examples.
// ---------------------------------------------------------------------------

TEST(PrincipleTest, PaperExample1LayoutsPassPigeonhole) {
  // (2,1,2,2,1) and (2,0,3,1,2) both total 8 > 5 yet pass the pigeonhole
  // filter with n = 5, m = 5 (Example 1 of the paper).
  const std::vector<double> a = {2, 1, 2, 2, 1};
  const std::vector<double> b = {2, 0, 3, 1, 2};
  EXPECT_TRUE(PigeonholeHolds(a, 5.0));
  EXPECT_TRUE(PigeonholeHolds(b, 5.0));
}

TEST(PrincipleTest, PaperExample3BasicFormFiltersFirstLayout) {
  // With l = 2 no two consecutive boxes of (2,1,2,2,1) sum to <= 2, so the
  // basic form filters it; (2,0,3,1,2) still passes (b1+b2 on the ring:
  // chain (0) at start 0 sums 2 <= 2).
  const std::vector<double> a = {2, 1, 2, 2, 1};
  const std::vector<double> b = {2, 0, 3, 1, 2};
  EXPECT_FALSE(BasicViableChainExists(a, 5.0, 2));
  EXPECT_TRUE(BasicViableChainExists(b, 5.0, 2));
}

TEST(PrincipleTest, PaperExample6StrongFormFiltersSecondLayout) {
  // (2,0,3,1,2) passes the basic form at l = 2 but its only viable chain
  // c_0^2 has a non-viable 1-prefix, so the strong form filters it.
  const std::vector<double> b = {2, 0, 3, 1, 2};
  EXPECT_FALSE(PrefixViableChainExists(b, 5.0, 2));
}

TEST(PrincipleTest, PaperExample5HammingChains) {
  // Example 5: B(x2,q) = (0,2,0,2,1) and B(x3,q) = (1,2,2,1,1) are
  // candidates at l = 2 under the basic form with tau = 5, m = 5;
  // B(x1,q) = (2,1,2,2,1) and B(x4,q) = (2,2,2,2,2) are filtered.
  EXPECT_TRUE(
      BasicViableChainExists(std::vector<double>{0, 2, 0, 2, 1}, 5.0, 2));
  EXPECT_TRUE(
      BasicViableChainExists(std::vector<double>{1, 2, 2, 1, 1}, 5.0, 2));
  EXPECT_FALSE(
      BasicViableChainExists(std::vector<double>{2, 1, 2, 2, 1}, 5.0, 2));
  EXPECT_FALSE(
      BasicViableChainExists(std::vector<double>{2, 2, 2, 2, 2}, 5.0, 2));
}

TEST(PrincipleTest, PaperExample7VariableAllocationFilters) {
  // Example 7: B = (2,1,2,2,1), T = (1,2,0,1,1) with ||T|| = 5 = tau. At
  // l = 2 the only viable chain is c_0^2 but its 1-prefix fails, so x1 is
  // filtered by Theorem 6.
  const std::vector<double> boxes = {2, 1, 2, 2, 1};
  auto t = ThresholdSeq::Variable({1, 2, 0, 1, 1}, 5.0);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(PigeonholeHolds(boxes, *t));  // passes pigeonhole
  EXPECT_FALSE(PrefixViableChainExists(boxes, *t, 2));
}

TEST(PrincipleTest, PaperExample8IntegerReductionFilters) {
  // Example 8: B(x3,q) = (1,2,2,1,1), T = (1,0,0,0,0) with
  // ||T|| = 1 = tau - m + 1. At l = 2 the chain c_4^2 is viable
  // (1+1 <= l-1 + t4+t0 = 2) but its 1-prefix fails (1 > 0 + t4 = 0), so
  // x3 is filtered by Theorem 7.
  const std::vector<double> boxes = {1, 2, 2, 1, 1};
  auto t = ThresholdSeq::IntegerReduced({1, 0, 0, 0, 0}, 5.0);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(PigeonholeHolds(boxes, *t));  // b_0 = 1 <= t_0 = 1
  EXPECT_TRUE(BasicViableChainExists(boxes, *t, 2));
  EXPECT_FALSE(PrefixViableChainExists(boxes, *t, 2));
}

// ---------------------------------------------------------------------------
// Property tests of the theorems on random inputs.
// ---------------------------------------------------------------------------

struct RandomRingCase {
  int m;
  bool integer_boxes;
};

class PrincipleProperty
    : public ::testing::TestWithParam<RandomRingCase> {};

TEST_P(PrincipleProperty, Theorem3GuaranteesPrefixViableChainForResults) {
  // If ||B||_1 <= n, a prefix-viable chain exists for every l in [1..m].
  const auto [m, integer_boxes] = GetParam();
  Rng rng(1000 + m);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> boxes(m);
    double sum = 0;
    for (double& b : boxes) {
      b = integer_boxes ? static_cast<double>(rng.NextBounded(6))
                        : rng.NextDouble() * 5.0;
      sum += b;
    }
    const double n = sum + rng.NextDouble();  // guarantees ||B|| <= n
    for (int l = 1; l <= m; ++l) {
      EXPECT_TRUE(PrefixViableChainExists(boxes, n, l))
          << "m=" << m << " l=" << l << " n=" << n;
    }
  }
}

TEST_P(PrincipleProperty, CandidateSetsNest) {
  // Lemma 1 and Lemma 4: strong-form(l) => basic-form(l) => pigeonhole, and
  // strong-form(l+1) => strong-form(l).
  const auto [m, integer_boxes] = GetParam();
  Rng rng(2000 + m);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> boxes(m);
    for (double& b : boxes) {
      b = integer_boxes ? static_cast<double>(rng.NextBounded(6))
                        : rng.NextDouble() * 5.0;
    }
    const double n = rng.NextDouble() * 3.0 * m;
    for (int l = 1; l <= m; ++l) {
      if (PrefixViableChainExists(boxes, n, l)) {
        EXPECT_TRUE(BasicViableChainExists(boxes, n, l));
        EXPECT_TRUE(PigeonholeHolds(boxes, n));
        if (l > 1) {
          EXPECT_TRUE(PrefixViableChainExists(boxes, n, l - 1));
        }
      }
    }
  }
}

TEST_P(PrincipleProperty, StrongFormAtFullLengthEqualsExactPredicate) {
  // When l = m, candidates are exactly { B : ||B||_1 <= n } (§3).
  const auto [m, integer_boxes] = GetParam();
  Rng rng(3000 + m);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> boxes(m);
    double sum = 0;
    for (double& b : boxes) {
      b = integer_boxes ? static_cast<double>(rng.NextBounded(6))
                        : rng.NextDouble() * 5.0;
      sum += b;
    }
    const double n = rng.NextDouble() * 3.0 * m;
    EXPECT_EQ(PrefixViableChainExists(boxes, n, m), sum <= n + 1e-9)
        << "sum=" << sum << " n=" << n;
  }
}

TEST_P(PrincipleProperty, SkipOptimizedSearchMatchesBruteForce) {
  // FindPrefixViableChain (with the Corollary-2 skip) agrees with the
  // brute-force existence oracle for every l and both senses.
  const auto [m, integer_boxes] = GetParam();
  Rng rng(4000 + m);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> boxes(m);
    for (double& b : boxes) {
      b = integer_boxes ? static_cast<double>(rng.NextBounded(6))
                        : rng.NextDouble() * 5.0;
    }
    const double n = rng.NextDouble() * 3.0 * m;
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int l = 1; l <= m; ++l) {
      EXPECT_EQ(FindPrefixViableChain(boxes, t, l).has_value(),
                BruteForceExists(boxes, t, l))
          << "m=" << m << " l=" << l;
    }
  }
}

TEST_P(PrincipleProperty, FoundChainIsActuallyPrefixViable) {
  const auto [m, integer_boxes] = GetParam();
  Rng rng(5000 + m);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> boxes(m);
    for (double& b : boxes) {
      b = integer_boxes ? static_cast<double>(rng.NextBounded(6))
                        : rng.NextDouble() * 5.0;
    }
    const double n = rng.NextDouble() * 3.0 * m;
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int l = 1; l <= m; ++l) {
      auto found = FindPrefixViableChain(boxes, t, l);
      if (found.has_value()) {
        EXPECT_TRUE(BruteForcePrefixViable(boxes, t, *found, l));
      }
    }
  }
}

TEST_P(PrincipleProperty, Theorem6VariableAllocation) {
  // With random T summing to n and ||B|| <= n, a chain of every length l
  // exists whose prefixes satisfy the allocated bounds.
  const auto [m, integer_boxes] = GetParam();
  (void)integer_boxes;
  Rng rng(6000 + m);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> boxes(m), thresholds(m);
    double sum = 0;
    for (double& b : boxes) {
      b = rng.NextDouble() * 5.0;
      sum += b;
    }
    const double n = sum;  // tight bound: ||B|| = n
    // Random allocation of n over the thresholds.
    double remaining = n;
    for (int i = 0; i < m - 1; ++i) {
      thresholds[i] = rng.NextDouble() * remaining;
      remaining -= thresholds[i];
    }
    thresholds[m - 1] = remaining;
    auto t = ThresholdSeq::Variable(thresholds, n);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (int l = 1; l <= m; ++l) {
      EXPECT_TRUE(PrefixViableChainExists(boxes, *t, l));
    }
  }
}

TEST_P(PrincipleProperty, Theorem7IntegerReduction) {
  // Integer boxes with ||B|| <= n and integer thresholds summing to
  // n - m + 1: a prefix-viable chain (with the l-1 slack) exists for every
  // l.
  const auto [m, integer_boxes] = GetParam();
  (void)integer_boxes;
  Rng rng(7000 + m);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> boxes(m);
    int sum = 0;
    for (double& b : boxes) {
      b = static_cast<double>(rng.NextBounded(6));
      sum += static_cast<int>(b);
    }
    const int n = sum + static_cast<int>(rng.NextBounded(3));
    const int budget = n - m + 1;
    if (budget < 0) continue;
    std::vector<double> thresholds(m, 0.0);
    for (int unit = 0; unit < budget; ++unit) {
      thresholds[rng.NextBounded(m)] += 1.0;
    }
    auto t = ThresholdSeq::IntegerReduced(thresholds, n);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (int l = 1; l <= m; ++l) {
      EXPECT_TRUE(PrefixViableChainExists(boxes, *t, l))
          << "m=" << m << " l=" << l << " n=" << n;
    }
  }
}

TEST_P(PrincipleProperty, GreaterEqualSenseMirrorsLessEqual) {
  // The >= variant on negated boxes must agree with the <= variant.
  const auto [m, integer_boxes] = GetParam();
  (void)integer_boxes;
  Rng rng(8000 + m);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> boxes(m), negated(m);
    for (int i = 0; i < m; ++i) {
      boxes[i] = rng.NextDouble() * 5.0;
      negated[i] = -boxes[i];
    }
    const double n = rng.NextDouble() * 3.0 * m;
    auto t_le = ThresholdSeq::Variable(std::vector<double>(m, n / m), n,
                                       Sense::kLessEqual);
    auto t_ge = ThresholdSeq::Variable(std::vector<double>(m, -n / m), -n,
                                       Sense::kGreaterEqual);
    ASSERT_TRUE(t_le.ok() && t_ge.ok());
    for (int l = 1; l <= m; ++l) {
      EXPECT_EQ(PrefixViableChainExists(boxes, *t_le, l),
                PrefixViableChainExists(negated, *t_ge, l));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, PrincipleProperty,
    ::testing::Values(RandomRingCase{1, true}, RandomRingCase{2, true},
                      RandomRingCase{3, false}, RandomRingCase{5, true},
                      RandomRingCase{5, false}, RandomRingCase{8, true},
                      RandomRingCase{16, false}),
    [](const ::testing::TestParamInfo<RandomRingCase>& info) {
      return "m" + std::to_string(info.param.m) +
             (info.param.integer_boxes ? "_int" : "_real");
    });

// ---------------------------------------------------------------------------
// Lemma-level tests.
// ---------------------------------------------------------------------------

TEST(PrincipleTest, Lemma2ConcatenationOfViableChainsIsViable) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = 4 + static_cast<int>(rng.NextBounded(8));
    std::vector<double> boxes(m);
    for (double& b : boxes) b = rng.NextDouble() * 4.0;
    const double n = rng.NextDouble() * 2.0 * m;
    Ring ring(boxes);
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int i = 0; i < m; ++i) {
      for (int l1 = 1; l1 < m; ++l1) {
        for (int l2 = 1; l1 + l2 <= m; ++l2) {
          const bool v1 = t.Viable(ring.ChainSum(i, l1), i, l1);
          const bool v2 = t.Viable(ring.ChainSum(i + l1, l2), i + l1, l2);
          const bool v12 = t.Viable(ring.ChainSum(i, l1 + l2), i, l1 + l2);
          if (v1 && v2) {
            EXPECT_TRUE(v12);
          }
          if (!v1 && !v2) {
            EXPECT_FALSE(v12);
          }
        }
      }
    }
  }
}

TEST(PrincipleTest, Lemma3ViableChainHasPrefixViableSuffix) {
  Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 3 + static_cast<int>(rng.NextBounded(10));
    std::vector<double> boxes(m);
    for (double& b : boxes) b = rng.NextDouble() * 4.0;
    const double n = rng.NextDouble() * 2.0 * m;
    Ring ring(boxes);
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int i = 0; i < m; ++i) {
      for (int l = 1; l <= m; ++l) {
        if (!t.Viable(ring.ChainSum(i, l), i, l)) continue;
        // Some suffix of c_i^l must be prefix-viable.
        bool found = false;
        for (int sl = 1; sl <= l && !found; ++sl) {
          const int start = i + l - sl;
          bool all = true;
          double sum = 0;
          for (int len = 1; len <= sl; ++len) {
            sum += ring.Box(start + len - 1);
            if (!t.Viable(sum, start, len)) {
              all = false;
              break;
            }
          }
          found = all;
        }
        EXPECT_TRUE(found) << "viable chain without prefix-viable suffix";
      }
    }
  }
}

TEST(PrincipleTest, Corollary1NonViableCaseHasPrefixNonViableChain) {
  // If ||B||_1 > n then for every l some chain has all prefixes non-viable.
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(10));
    std::vector<double> boxes(m);
    double sum = 0;
    for (double& b : boxes) {
      b = rng.NextDouble() * 4.0;
      sum += b;
    }
    const double n = sum - 0.5 - rng.NextDouble();  // ||B|| > n
    if (n <= 0) continue;
    Ring ring(boxes);
    const ThresholdSeq t = ThresholdSeq::Uniform(n, m);
    for (int l = 1; l <= m; ++l) {
      bool exists = false;
      for (int i = 0; i < m && !exists; ++i) {
        bool all_non_viable = true;
        double s = 0;
        for (int len = 1; len <= l; ++len) {
          s += ring.Box(i + len - 1);
          if (t.Viable(s, i, len)) {
            all_non_viable = false;
            break;
          }
        }
        exists = all_non_viable;
      }
      EXPECT_TRUE(exists) << "m=" << m << " l=" << l;
    }
  }
}

TEST(PrincipleTest, Lemma5ThresholdSumIsTight) {
  // Lemma 5: if ||T||_1 < n, some B with ||B||_1 <= n defeats the filter —
  // no chain satisfies the allocated bounds at l = m. The proof's witness
  // is any B with ||B||_1 = n; scale T up proportionally to build it.
  Rng rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = 2 + static_cast<int>(rng.NextBounded(8));
    std::vector<double> t(m);
    double t_sum = 0;
    for (double& v : t) {
      v = 0.1 + rng.NextDouble() * 3.0;
      t_sum += v;
    }
    const double n = t_sum + 0.5 + rng.NextDouble();  // ||T|| < n
    std::vector<double> witness(m);
    for (int i = 0; i < m; ++i) witness[i] = t[i] * n / t_sum;  // ||B|| = n
    // Build the (deliberately invalid) under-allocated sequence through the
    // internal representation: Variable() would reject it, so emulate it by
    // scaling n down to ||T|| and checking the *witness* against it.
    auto seq = core::ThresholdSeq::Variable(t, t_sum);
    ASSERT_TRUE(seq.ok());
    EXPECT_FALSE(PrefixViableChainExists(witness, *seq, m))
        << "an under-allocated T must miss some result (Lemma 5)";
    // Sanity: the correctly allocated T (scaled to sum n) does admit it.
    std::vector<double> full(m);
    for (int i = 0; i < m; ++i) full[i] = t[i] * n / t_sum;
    auto full_seq = core::ThresholdSeq::Variable(full, n);
    ASSERT_TRUE(full_seq.ok());
    EXPECT_TRUE(PrefixViableChainExists(witness, *full_seq, m));
  }
}

TEST(PrincipleTest, EdgeCaseSingleBox) {
  EXPECT_TRUE(PrefixViableChainExists(std::vector<double>{3.0}, 3.0, 1));
  EXPECT_FALSE(PrefixViableChainExists(std::vector<double>{3.1}, 3.0, 1));
}

TEST(PrincipleTest, EdgeCaseZeroThreshold) {
  const std::vector<double> zeros = {0, 0, 0};
  EXPECT_TRUE(PrefixViableChainExists(zeros, 0.0, 3));
  const std::vector<double> one = {0, 1, 0};
  EXPECT_TRUE(PigeonholeHolds(one, 0.0));
  EXPECT_FALSE(PrefixViableChainExists(one, 0.0, 3));
}

TEST(ThresholdSeqTest, RejectsWrongSums) {
  EXPECT_FALSE(ThresholdSeq::Variable({1, 1, 1}, 4.0).ok());
  EXPECT_TRUE(ThresholdSeq::Variable({1, 1, 2}, 4.0).ok());
  EXPECT_FALSE(ThresholdSeq::IntegerReduced({1, 1, 1}, 4.0).ok());
  EXPECT_TRUE(ThresholdSeq::IntegerReduced({1, 1, 0}, 4.0).ok());
  EXPECT_TRUE(
      ThresholdSeq::IntegerReduced({2, 2, 2}, 4.0, Sense::kGreaterEqual).ok());
  EXPECT_FALSE(ThresholdSeq::Variable({}, 0.0).ok());
}

TEST(ThresholdSeqTest, BoundWrapsAroundRing) {
  auto t = ThresholdSeq::Variable({1, 2, 3}, 6.0);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->Bound(2, 2), 3 + 1);  // t_2 + t_0
  EXPECT_DOUBLE_EQ(t->Bound(1, 3), 6);
  EXPECT_DOUBLE_EQ(t->Threshold(4), 2);  // index mod m
}

}  // namespace
}  // namespace pigeonring::core
