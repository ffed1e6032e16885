#include <gtest/gtest.h>

#include <set>

#include "util/prng.hpp"

namespace hxrc::util {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(7);
  Prng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Prng, UniformRespectsBounds) {
  Prng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Prng, UniformCoversRange) {
  Prng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, UniformDegenerateRange) {
  Prng rng(1);
  EXPECT_EQ(rng.uniform(4, 4), 4);
}

TEST(Prng, Uniform01InHalfOpenInterval) {
  Prng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Prng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Prng, ChanceApproximatesProbability) {
  Prng rng(23);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Prng, PickReturnsMembers) {
  Prng rng(11);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int v = rng.pick(items);
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

TEST(Prng, ShuffleIsPermutation) {
  Prng rng(13);
  std::vector<int> items{1, 2, 3, 4, 5, 6};
  auto copy = items;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(Prng, ForkIsIndependentStream) {
  Prng parent(55);
  Prng fork = parent.fork();
  EXPECT_NE(parent.next(), fork.next());
}

TEST(Splitmix, KnownProgression) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_NE(s1, 42u);  // state advances
}

}  // namespace
}  // namespace hxrc::util
