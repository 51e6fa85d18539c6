#include "dse/config.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <unordered_set>

#include "kriging/empirical_variogram.hpp"
#include "util/rng.hpp"

namespace {

namespace d = ace::dse;
namespace k = ace::kriging;

TEST(ConfigDistance, L1Basics) {
  EXPECT_EQ(d::l1_distance({1, 2, 3}, {1, 2, 3}), 0);
  EXPECT_EQ(d::l1_distance({0, 0}, {3, -4}), 7);
  EXPECT_EQ(d::l1_distance({10}, {7}), 3);
  EXPECT_THROW((void)d::l1_distance({1}, {1, 2}), std::invalid_argument);
}

TEST(ConfigDistance, L2Basics) {
  EXPECT_EQ(d::l2_distance({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_EQ(d::l2_distance({0, 0}, {3, -4}), 5.0);
  EXPECT_EQ(d::l2_distance({10}, {7}), 3.0);
  EXPECT_EQ(d::l2_distance({}, {}), 0.0);
  EXPECT_THROW((void)d::l2_distance({1}, {1, 2}), std::invalid_argument);
}

// The store scans configs with the dse helpers while the kriging system
// measures the same points as real vectors: both must give the same
// distance bit for bit, so a radius admits exactly the points the
// variogram is then evaluated at. Odd and even dimensions, negative and
// large coordinates.
TEST(ConfigDistance, MatchesRealValuedHelpersExactly) {
  ace::util::Rng rng(17);
  for (const std::size_t dim : {1u, 2u, 3u, 5u, 8u, 13u}) {
    for (int trial = 0; trial < 40; ++trial) {
      d::Config a(dim), b(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        a[i] = rng.uniform_int(-40, 40);
        b[i] = rng.uniform_int(-40, 40);
      }
      const auto ra = d::to_real(a);
      const auto rb = d::to_real(b);
      EXPECT_EQ(static_cast<double>(d::l1_distance(a, b)),
                k::l1_distance(ra, rb))
          << "dim " << dim << " trial " << trial;
      EXPECT_EQ(d::l2_distance(a, b), k::l2_distance(ra, rb))
          << "dim " << dim << " trial " << trial;
      EXPECT_EQ(d::l1_distance(a, b), d::l1_distance(b, a));
      EXPECT_EQ(d::l2_distance(a, b), d::l2_distance(b, a));
    }
  }
}

TEST(ConfigToReal, ConvertsExactly) {
  const auto r = d::to_real({-2, 0, 7});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], -2.0);
  EXPECT_DOUBLE_EQ(r[2], 7.0);
  EXPECT_TRUE(d::to_real({}).empty());
}

TEST(ConfigToString, Formats) {
  EXPECT_EQ(d::to_string({1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(d::to_string({}), "()");
  EXPECT_EQ(d::to_string({-5}), "(-5)");
}

TEST(ConfigHash, DistinguishesPermutations) {
  d::ConfigHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({3, 4, 5}), h({3, 4, 5}));
  // Usable as an unordered_set key.
  std::unordered_set<d::Config, d::ConfigHash> set;
  set.insert({1, 2});
  set.insert({1, 2});
  set.insert({2, 1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Lattice, ValidationAndContains) {
  EXPECT_THROW(d::Lattice(0, 2, 16), std::invalid_argument);
  EXPECT_THROW(d::Lattice(3, 5, 4), std::invalid_argument);
  const d::Lattice lat(3, 2, 16);
  EXPECT_TRUE(lat.contains({2, 16, 9}));
  EXPECT_FALSE(lat.contains({1, 8, 8}));
  EXPECT_FALSE(lat.contains({2, 17, 8}));
  EXPECT_FALSE(lat.contains({2, 8}));  // Wrong dimensionality.
}

TEST(Lattice, UniformConfig) {
  const d::Lattice lat(4, 2, 16);
  EXPECT_EQ(lat.uniform(5), (d::Config{5, 5, 5, 5}));
  EXPECT_THROW((void)lat.uniform(1), std::invalid_argument);
  EXPECT_THROW((void)lat.uniform(17), std::invalid_argument);
}

}  // namespace
