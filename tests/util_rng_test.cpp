// Tests for the xoshiro256** RNG wrapper.
#include "msropm/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <vector>

namespace {

using msropm::util::Rng;
using msropm::util::splitmix64;

TEST(SplitMix64, AdvancesStateAndMixes) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, UniformArrayMatchesScalarDraws) {
  Rng bulk(42);
  Rng scalar(42);
  std::vector<double> u(37);
  bulk.uniform_array(u.data(), u.size());
  for (const double x : u) ASSERT_EQ(x, scalar.uniform());
  EXPECT_EQ(bulk.state(), scalar.state());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  // Must produce non-degenerate output.
  std::set<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) values.insert(r());
  EXPECT_GT(values.size(), 60u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIndexStaysBelowBound) {
  Rng r(5);
  for (std::uint64_t n : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_LT(r.uniform_index(n), n);
    }
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexApproximatelyUnbiased) {
  Rng r(17);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_index(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng r(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng r(31);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng r(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, UniformPhaseRange) {
  Rng r(41);
  for (int i = 0; i < 5000; ++i) {
    const double p = r.uniform_phase();
    ASSERT_GE(p, 0.0);
    ASSERT_LT(p, 2.0 * std::numbers::pi);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleChangesOrder) {
  Rng r(47);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(53);
  Rng child = a.split();
  // Child stream differs from parent continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, StreamSplitIsPureAndReproducible) {
  const Rng master(91);
  Rng a = master.split(7);
  Rng b = master.split(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a(), b());
  }
  // Deriving a stream does not advance the master.
  EXPECT_EQ(master.state(), Rng(91).state());
}

TEST(Rng, StreamSplitOrderIndependent) {
  // Workers may derive their streams in any order; stream i must not depend
  // on which streams were derived before it.
  const Rng master(17);
  Rng forward_first = master.split(0);
  Rng backward_2 = master.split(2);
  Rng backward_1 = master.split(1);
  Rng backward_0 = master.split(0);
  Rng forward_second = master.split(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(forward_first(), backward_0());
    ASSERT_EQ(forward_second(), backward_1());
  }
  (void)backward_2;
}

TEST(Rng, DistinctStreamsDiverge) {
  const Rng master(5);
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    Rng child = master.split(stream);
    first_draws.insert(child());
  }
  EXPECT_EQ(first_draws.size(), 64u);
  // Adjacent streams are decorrelated, not shifted copies.
  Rng s0 = master.split(0);
  Rng s1 = master.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0() == s1()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, StreamSplitDependsOnMasterSeed) {
  Rng from_seed_1 = Rng(1).split(3);
  Rng from_seed_2 = Rng(2).split(3);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (from_seed_1() == from_seed_2()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, MeanAndSupportStable) {
  Rng r(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.025) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 2ull, 42ull, 1337ull,
                                           0xdeadbeefull, ~0ull));

}  // namespace
