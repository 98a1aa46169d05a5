// Kernel-layer tests: FlatBitTable layout invariants and, most importantly,
// randomized scalar/SIMD parity — every dispatch path must return identical
// distances and Leq verdicts for every dimension count 1..512, including
// non-multiple-of-64 tails, and identical posting selects for every list
// length 0..100.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/bitvector.h"
#include "common/random.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"

namespace pigeonring {
namespace {

using kernels::FlatBitTable;
using kernels::Isa;

// Restores the startup dispatch target when a test that pins paths exits.
class IsaGuard {
 public:
  IsaGuard() : saved_(kernels::ActiveIsa()) {}
  ~IsaGuard() { kernels::SetActiveIsa(saved_); }

 private:
  Isa saved_;
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    IsaGuard guard;
    if (kernels::SetActiveIsa(isa)) isas.push_back(isa);
  }
  return isas;
}

BitVector RandomVector(int dimensions, double density, Rng* rng) {
  BitVector v(dimensions);
  for (int i = 0; i < dimensions; ++i) {
    if (rng->NextBernoulli(density)) v.Set(i, true);
  }
  return v;
}

// Bit-by-bit reference, deliberately ignorant of words and popcounts.
int ReferenceDistance(const BitVector& a, const BitVector& b, int begin,
                      int end) {
  int total = 0;
  for (int i = begin; i < end; ++i) total += a.Get(i) != b.Get(i) ? 1 : 0;
  return total;
}

TEST(DispatchTest, ScalarAlwaysSupportedAndBestIsActive) {
  IsaGuard guard;
  EXPECT_TRUE(kernels::SetActiveIsa(Isa::kScalar));
  EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
  EXPECT_TRUE(kernels::SetActiveIsa(kernels::BestIsa()));
  EXPECT_EQ(kernels::ActiveIsa(), kernels::BestIsa());
}

TEST(DispatchTest, UnsupportedIsaIsRefusedNotFaked) {
  IsaGuard guard;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    const Isa before = kernels::ActiveIsa();
    if (!kernels::SetActiveIsa(isa)) {
      EXPECT_EQ(kernels::ActiveIsa(), before);
    } else {
      EXPECT_EQ(kernels::ActiveIsa(), isa);
    }
  }
}

TEST(DispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(kernels::IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(kernels::IsaName(Isa::kAvx2), "avx2");
  EXPECT_STREQ(kernels::IsaName(Isa::kAvx512), "avx512");
}

TEST(PopcountTest, Popcount64MatchesStdPopcount) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.Next();
    EXPECT_EQ(Popcount64(x), std::popcount(x));
  }
  EXPECT_EQ(Popcount64(0), 0);
  EXPECT_EQ(Popcount64(~uint64_t{0}), 64);
}

// The headline parity contract: for every dimension count 1..512 and every
// supported dispatch path, HammingDistanceWords, HammingDistanceLeqWords,
// and PopcountWords agree exactly with the bit-by-bit reference — same
// distances, same verdicts, tails included.
TEST(ParityTest, AllDimensionsAllIsasMatchReference) {
  const std::vector<Isa> isas = SupportedIsas();
  ASSERT_GE(isas.size(), 1u);
  Rng rng(12);
  IsaGuard guard;
  for (int d = 1; d <= 512; ++d) {
    const BitVector a = RandomVector(d, 0.5, &rng);
    const BitVector b =
        rng.NextBernoulli(0.2) ? a : RandomVector(d, 0.3, &rng);
    const int expected = ReferenceDistance(a, b, 0, d);
    const int num_words = a.num_words();
    // Taus spanning both verdicts, the exact boundary, and the extremes.
    const int taus[] = {0, expected - 1, expected, expected + 1, d};
    for (Isa isa : isas) {
      ASSERT_TRUE(kernels::SetActiveIsa(isa));
      EXPECT_EQ(kernels::HammingDistanceWords(a.words().data(),
                                              b.words().data(), num_words),
                expected)
          << "d=" << d << " isa=" << kernels::IsaName(isa);
      EXPECT_EQ(kernels::PopcountWords(a.words().data(), num_words),
                ReferenceDistance(a, BitVector(d), 0, d));
      for (int tau : taus) {
        if (tau < 0) continue;
        int dist = -1;
        const bool verdict = kernels::HammingDistanceLeqWords(
            a.words().data(), b.words().data(), num_words, tau, &dist);
        EXPECT_EQ(verdict, expected <= tau)
            << "d=" << d << " tau=" << tau << " isa=" << kernels::IsaName(isa);
        if (verdict) {
          EXPECT_EQ(dist, expected);  // exact on the pass side
        } else {
          EXPECT_GT(dist, tau);  // partial sum already over budget
        }
      }
    }
  }
}

TEST(ParityTest, RangeDistanceMatchesReferenceOnRandomSubranges) {
  const std::vector<Isa> isas = SupportedIsas();
  Rng rng(13);
  IsaGuard guard;
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 1 + static_cast<int>(rng.NextBounded(512));
    const BitVector a = RandomVector(d, 0.5, &rng);
    const BitVector b = RandomVector(d, 0.5, &rng);
    const int x = static_cast<int>(rng.NextBounded(d + 1));
    const int y = static_cast<int>(rng.NextBounded(d + 1));
    const int begin = std::min(x, y), end = std::max(x, y);
    const int expected = ReferenceDistance(a, b, begin, end);
    for (Isa isa : isas) {
      ASSERT_TRUE(kernels::SetActiveIsa(isa));
      EXPECT_EQ(kernels::HammingDistanceRangeWords(a.words().data(),
                                                   b.words().data(), begin,
                                                   end),
                expected)
          << "d=" << d << " [" << begin << "," << end << ") isa "
          << kernels::IsaName(isa);
    }
  }
}

// The select's contract, computed directly: survivors are the offsets k
// of the in-range prefix (ids below id_end) that pass the side, position
// and length tests.
kernels::SelectCounts ReferenceSelect(const kernels::PostingList& list,
                                      const kernels::PostingTest& test,
                                      std::vector<int>* selected) {
  kernels::SelectCounts counts;
  while (counts.in_range < list.size &&
         list.ids[counts.in_range] < test.id_end) {
    const int k = counts.in_range++;
    const bool side = (list.prefix_last_ranks[k] <= test.rank) == test.x_side;
    if (side && std::abs(list.positions[k] - test.position) <= test.tau &&
        std::abs(list.lengths[k] - test.length) <= test.tau) {
      selected->push_back(k);
    }
  }
  counts.selected = static_cast<int>(selected->size());
  return counts;
}

TEST(ParityTest, SelectPostingsMatchesScalarOnEveryIsa) {
  const std::vector<Isa> isas = SupportedIsas();
  Rng rng(14);
  IsaGuard guard;
  for (int size = 0; size <= 100; ++size) {
    // Ids never descend and repeat now and then (a record may post one
    // rank twice); positions, lengths and ranks cluster around the probe's
    // so that every test both keeps and drops entries.
    std::vector<int> ids(size), positions(size), lengths(size), ranks(size);
    int id = static_cast<int>(rng.NextBounded(4));
    for (int k = 0; k < size; ++k) {
      id += static_cast<int>(rng.NextBounded(4));
      ids[k] = id;
      positions[k] = static_cast<int>(rng.NextBounded(16));
      lengths[k] = 4 + static_cast<int>(rng.NextBounded(12));
      ranks[k] = static_cast<int>(rng.NextBounded(24));
    }
    const kernels::PostingList list{ids.data(), positions.data(),
                                    lengths.data(), ranks.data(), size};
    const int last_id = size == 0 ? 0 : ids.back();
    // Range ends before, at the start of, inside, just past and far past
    // the list.
    std::vector<int> ends = {0, size == 0 ? 0 : ids.front(), last_id,
                             last_id + 1, 1 << 30};
    for (int i = 0; i < 3; ++i) {
      ends.push_back(static_cast<int>(rng.NextBounded(last_id + 2)));
    }
    for (const int tau : {0, 1, 2, 3, 4}) {
      for (const bool x_side : {true, false}) {
        for (const int end : ends) {
          const kernels::PostingTest test{
              end,
              x_side,
              static_cast<int>(rng.NextBounded(24)),
              static_cast<int>(rng.NextBounded(16)),
              4 + static_cast<int>(rng.NextBounded(12)),
              tau};
          std::vector<int> want;
          const kernels::SelectCounts want_counts =
              ReferenceSelect(list, test, &want);
          for (Isa isa : isas) {
            ASSERT_TRUE(kernels::SetActiveIsa(isa));
            std::vector<int> got(size + kernels::kSelectSlack, -1);
            const kernels::SelectCounts counts =
                kernels::SelectPostings(list, test, got.data());
            got.resize(counts.selected);
            EXPECT_EQ(counts.in_range, want_counts.in_range)
                << "isa=" << kernels::IsaName(isa) << " size=" << size
                << " end=" << end << " tau=" << tau;
            EXPECT_EQ(got, want) << "isa=" << kernels::IsaName(isa)
                                 << " size=" << size << " end=" << end
                                 << " tau=" << tau << " x_side=" << x_side;
          }
        }
      }
    }
  }
}

TEST(FlatBitTableTest, RowsAreCacheAlignedAndZeroPadded) {
  Rng rng(15);
  for (const int d : {1, 63, 64, 65, 127, 128, 200, 512, 513}) {
    std::vector<BitVector> objects;
    for (int i = 0; i < 9; ++i) objects.push_back(RandomVector(d, 0.5, &rng));
    const FlatBitTable table = FlatBitTable::FromVectors(objects);
    ASSERT_EQ(table.num_rows(), 9);
    EXPECT_EQ(table.dimensions(), d);
    EXPECT_EQ(table.words_per_row(), (d + 63) / 64);
    EXPECT_GE(table.stride_words(), table.words_per_row());
    EXPECT_EQ(table.stride_words(),
              FlatBitTable::StrideWordsFor(table.words_per_row()));
    // Stride rule: power of two up to 8 words, then multiples of 8, so
    // every row either nests inside one cache line or starts on a line
    // boundary.
    if (table.stride_words() >= FlatBitTable::kAlignmentWords) {
      EXPECT_EQ(table.stride_words() % FlatBitTable::kAlignmentWords, 0);
    } else {
      EXPECT_EQ(FlatBitTable::kAlignmentWords % table.stride_words(), 0);
    }
    const int row_bytes = table.stride_words() * 8;
    for (int i = 0; i < table.num_rows(); ++i) {
      const uintptr_t addr = reinterpret_cast<uintptr_t>(table.row(i));
      EXPECT_EQ(addr % std::min(row_bytes, FlatBitTable::kAlignmentBytes),
                0u)
          << "row " << i << " d=" << d;
      // No row straddles a cache line unless it is larger than one.
      if (row_bytes <= FlatBitTable::kAlignmentBytes) {
        EXPECT_EQ(addr / FlatBitTable::kAlignmentBytes,
                  (addr + row_bytes - 1) / FlatBitTable::kAlignmentBytes);
      }
      for (int w = table.words_per_row(); w < table.stride_words(); ++w) {
        EXPECT_EQ(table.row(i)[w], 0u) << "padding word " << w;
      }
      EXPECT_EQ(table.RowAsBitVector(i), objects[i]);
    }
  }
}

TEST(FlatBitTableTest, CopyIsDeepAndEmptyTablesWork) {
  Rng rng(16);
  std::vector<BitVector> objects = {RandomVector(96, 0.5, &rng),
                                    RandomVector(96, 0.5, &rng)};
  FlatBitTable table = FlatBitTable::FromVectors(objects);
  FlatBitTable copy = table;
  EXPECT_NE(copy.row(0), table.row(0));  // distinct buffers
  copy.SetRow(0, objects[1]);
  EXPECT_EQ(table.RowAsBitVector(0), objects[0]);  // original untouched
  EXPECT_EQ(copy.RowAsBitVector(0), objects[1]);

  const FlatBitTable empty = FlatBitTable::FromVectors({});
  EXPECT_EQ(empty.num_rows(), 0);
  EXPECT_EQ(empty.dimensions(), 0);
  FlatBitTable empty_copy = empty;
  EXPECT_EQ(empty_copy.num_rows(), 0);
}

TEST(BatchVerifyTest, MatchesPerPairKernelOnEveryIsa) {
  const std::vector<Isa> isas = SupportedIsas();
  Rng rng(17);
  // 192 bits exercises the inlined small-row path (rows within one cache
  // line), 320 the dispatched path with a non-multiple-of-256 tail.
  for (const int d : {192, 320}) {
    std::vector<BitVector> objects;
    for (int i = 0; i < 300; ++i) {
      objects.push_back(RandomVector(d, 0.5, &rng));
    }
    const FlatBitTable table = FlatBitTable::FromVectors(objects);
    const BitVector query = RandomVector(d, 0.5, &rng);
    std::vector<int> ids;
    for (int i = 0; i < table.num_rows(); i += 2) ids.push_back(i);
    IsaGuard guard;
    for (Isa isa : isas) {
      ASSERT_TRUE(kernels::SetActiveIsa(isa));
      for (const int tau : {0, 40, 96, d}) {
        std::vector<uint8_t> verdicts(ids.size(), 2);
        std::vector<int> distances(ids.size(), -1);
        const int hits = kernels::VerifyHammingLeqBatch(
            table, query.words().data(), tau, ids.data(),
            static_cast<int>(ids.size()), verdicts.data(), distances.data());
        int expected_hits = 0;
        for (size_t i = 0; i < ids.size(); ++i) {
          const int exact = ReferenceDistance(objects[ids[i]], query, 0, d);
          EXPECT_EQ(verdicts[i] != 0, exact <= tau);
          if (verdicts[i]) {
            EXPECT_EQ(distances[i], exact);
            ++expected_hits;
          } else {
            EXPECT_GT(distances[i], tau);
          }
        }
        EXPECT_EQ(hits, expected_hits);
      }
    }
  }
}

// BitVector's public distance API sits on top of the dispatched kernels;
// pinning each path through it exercises the full rewired stack.
TEST(BitVectorKernelTest, DistancesIdenticalAcrossIsas) {
  const std::vector<Isa> isas = SupportedIsas();
  Rng rng(18);
  IsaGuard guard;
  for (const int d : {1, 65, 130, 256, 509}) {
    const BitVector a = RandomVector(d, 0.5, &rng);
    const BitVector b = RandomVector(d, 0.5, &rng);
    const int expected = ReferenceDistance(a, b, 0, d);
    for (Isa isa : isas) {
      ASSERT_TRUE(kernels::SetActiveIsa(isa));
      EXPECT_EQ(a.HammingDistance(b), expected);
      EXPECT_EQ(a.PartDistance(b, d / 3, d), ReferenceDistance(a, b, d / 3, d));
      EXPECT_EQ(a.CountOnes(), ReferenceDistance(a, BitVector(d), 0, d));
    }
  }
}

}  // namespace
}  // namespace pigeonring
