// AdvanceEpoch: the one place a searcher's epoch-stamped scratch moves on
// to a new search, including the wrap after 2^32 searches.

#include "common/epoch.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace pigeonring {
namespace {

TEST(EpochTest, AdvancesWithoutTouchingStamps) {
  uint32_t epoch = 0;
  std::vector<uint32_t> stamps = {0, 7, 0};
  EXPECT_EQ(AdvanceEpoch(&epoch, &stamps), 1u);
  EXPECT_EQ(AdvanceEpoch(&epoch, &stamps), 2u);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(stamps, (std::vector<uint32_t>{0, 7, 0}));
}

TEST(EpochTest, WrapZeroesStampsAndRestartsAtOne) {
  uint32_t epoch = UINT32_MAX - 1;
  std::vector<uint32_t> stamps = {UINT32_MAX - 1, 1, 0};
  // The last epoch before the wrap is used as is.
  EXPECT_EQ(AdvanceEpoch(&epoch, &stamps), UINT32_MAX);
  EXPECT_EQ(stamps, (std::vector<uint32_t>{UINT32_MAX - 1, 1, 0}));
  stamps[2] = UINT32_MAX;  // touched by the search at UINT32_MAX
  // A plain increment would yield 0, which every never-touched record
  // holds, and then 1, which record 1 has held for 2^32 searches. The wrap
  // forgets every stamp instead.
  EXPECT_EQ(AdvanceEpoch(&epoch, &stamps), 1u);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(stamps, (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(AdvanceEpoch(&epoch, &stamps), 2u);
  EXPECT_EQ(stamps, (std::vector<uint32_t>{0, 0, 0}));
}

}  // namespace
}  // namespace pigeonring
