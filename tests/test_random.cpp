#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpucomm/sim/random.hpp"

namespace gpucomm {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(7);
  Rng a = base.fork("noise");
  Rng b = base.fork("background");
  Rng a2 = base.fork("noise");
  EXPECT_EQ(a.next_u64(), a2.next_u64());  // same tag -> same stream
  Rng a3 = base.fork("noise");
  EXPECT_NE(a3.next_u64(), b.next_u64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 4.0);
    ASSERT_GE(u, 2.0);
    ASSERT_LT(u, 4.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) EXPECT_GT(c, 700);  // roughly uniform
  EXPECT_EQ(rng.uniform_int(0), 0u);
  EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(3.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 3.0, 0.15);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(19);
  std::vector<double> vs;
  for (int i = 0; i < 10001; ++i) vs.push_back(rng.lognormal(std::log(5.0), 1.0));
  std::nth_element(vs.begin(), vs.begin() + 5000, vs.end());
  EXPECT_NEAR(vs[5000], 5.0, 0.5);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.bounded_pareto(1.0, 50.0, 1.2);
    ASSERT_GE(v, 1.0 - 1e-9);
    ASSERT_LE(v, 50.0 + 1e-9);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);  // same multiset
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  EXPECT_NE(rng.next_u64(), 0u);
}

TEST(RngTest, DiscardEqualsThatManyDraws) {
  for (const std::uint64_t n : {0ull, 1ull, 2ull, 3ull, 17ull, 1000ull, 123456ull}) {
    Rng drawn(99), skipped(99);
    for (std::uint64_t i = 0; i < n; ++i) drawn.next_u64();
    skipped.discard(n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(skipped.next_u64(), drawn.next_u64()) << "n=" << n;
  }
}

TEST(RngTest, DrawCountsAreFixed) {
  // The per-method draw counts in random.hpp: a consumer that skips a draw
  // with discard() lands where the draw itself would have left the stream.
  const auto check = [](auto draw, std::uint64_t draws) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      Rng a(seed), b(seed);
      draw(a);
      b.discard(draws);
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed;
    }
  };
  check([](Rng& r) { r.uniform(); }, 1);
  check([](Rng& r) { r.uniform(0.5, 0.75); }, 1);
  check([](Rng& r) { r.uniform_int(7); }, 1);
  check([](Rng& r) { r.exponential(2.0); }, 1);
  check([](Rng& r) { r.bernoulli(0.55); }, 1);
  check([](Rng& r) { r.bounded_pareto(1.0, 45.0, 1.2); }, 1);
  check([](Rng& r) { r.normal(0.0, 1.0); }, 2);
  check([](Rng& r) { r.lognormal(-2.4, 0.8); }, 2);
}

}  // namespace
}  // namespace gpucomm
