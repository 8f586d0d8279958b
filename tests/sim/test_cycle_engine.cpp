#include "sim/cycle_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace epiagg {
namespace {

TEST(AliveSet, InsertEraseContains) {
  AliveSet set;
  EXPECT_TRUE(set.empty());
  set.insert(5);
  set.insert(2);
  set.insert(9);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(3));
  set.erase(2);
  EXPECT_FALSE(set.contains(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(AliveSet, DoubleInsertAndMissingEraseThrow) {
  AliveSet set;
  set.insert(1);
  EXPECT_THROW(set.insert(1), ContractViolation);
  EXPECT_THROW(set.erase(2), ContractViolation);
}

TEST(AliveSet, ReinsertAfterErase) {
  AliveSet set;
  set.insert(1);
  set.erase(1);
  EXPECT_NO_THROW(set.insert(1));
  EXPECT_TRUE(set.contains(1));
}

TEST(AliveSet, SampleIsUniform) {
  AliveSet set;
  for (NodeId i = 0; i < 10; ++i) set.insert(i * 7);  // sparse ids
  Rng rng(1);
  std::map<NodeId, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[set.sample(rng)];
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [id, count] : counts)
    EXPECT_NEAR(count, kDraws / 10.0, 5.0 * std::sqrt(kDraws / 10.0));
}

TEST(AliveSet, SampleOtherExcludes) {
  AliveSet set;
  set.insert(1);
  set.insert(2);
  set.insert(3);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(set.sample_other(2, rng), 2u);
}

TEST(AliveSet, SampleOtherUniformOverRest) {
  AliveSet set;
  for (NodeId i = 0; i < 5; ++i) set.insert(i);
  Rng rng(3);
  std::map<NodeId, int> counts;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[set.sample_other(0, rng)];
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [id, count] : counts)
    EXPECT_NEAR(count, kDraws / 4.0, 5.0 * std::sqrt(kDraws / 4.0));
}

TEST(AliveSet, SampleOtherWithAbsentExcludeFallsBack) {
  AliveSet set;
  set.insert(7);
  Rng rng(4);
  EXPECT_EQ(set.sample_other(3, rng), 7u);  // exclude not a member
}

TEST(AliveSet, SampleOtherNeedsSecondMember) {
  AliveSet set;
  set.insert(7);
  Rng rng(5);
  EXPECT_THROW(set.sample_other(7, rng), ContractViolation);
}

TEST(AliveSet, EmptySampleThrows) {
  AliveSet set;
  Rng rng(6);
  EXPECT_THROW(set.sample(rng), ContractViolation);
}

}  // namespace
}  // namespace epiagg
