#include "kriging/empirical_variogram.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "util/errors.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

TEST(Distances, L1AndL2) {
  EXPECT_DOUBLE_EQ(k::l1_distance({0.0, 0.0}, {3.0, 4.0}), 7.0);
  EXPECT_DOUBLE_EQ(k::l2_distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(k::l1_distance({1.0}, {1.0}), 0.0);
  EXPECT_THROW((void)k::l1_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)k::l2_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(EmpiricalVariogram, HandComputedTwoPoints) {
  // Two samples at L1 distance 2 with values 1 and 3:
  // γ̂(2) = (3−1)² / (2·1) = 2.
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {1.0, 1.0}};
  const std::vector<double> vals = {1.0, 3.0};
  k::EmpiricalVariogram ev(pts, vals);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].distance, 2.0);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.0);
  EXPECT_EQ(ev.bins()[0].pair_count, 1u);
  EXPECT_EQ(ev.total_pairs(), 1u);
  EXPECT_DOUBLE_EQ(ev.max_distance(), 2.0);
}

TEST(EmpiricalVariogram, HandComputedThreeCollinearPoints) {
  // Points 0, 1, 2 on a line with values 0, 1, 4.
  // Pairs at d=1: (0,1): (1)², (1,2): (3)² → γ̂(1) = (1+9)/(2·2) = 2.5.
  // Pair at d=2: (0,2): (4)² → γ̂(2) = 16/2 = 8.
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}};
  const std::vector<double> vals = {0.0, 1.0, 4.0};
  k::EmpiricalVariogram ev(pts, vals);
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.5);
  EXPECT_EQ(ev.bins()[0].pair_count, 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[1].gamma, 8.0);
  EXPECT_EQ(ev.total_pairs(), 3u);
}

TEST(EmpiricalVariogram, FlatFieldHasZeroGamma) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {5.0}};
  const std::vector<double> vals = {2.0, 2.0, 2.0};
  k::EmpiricalVariogram ev(pts, vals);
  for (const auto& bin : ev.bins()) EXPECT_DOUBLE_EQ(bin.gamma, 0.0);
  EXPECT_DOUBLE_EQ(ev.value_variance(), 0.0);
}

TEST(EmpiricalVariogram, ValueVarianceIsSampleVariance) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<double> vals = {1.0, 2.0, 3.0, 4.0};
  k::EmpiricalVariogram ev(pts, vals);
  EXPECT_NEAR(ev.value_variance(), 5.0 / 3.0, 1e-12);
}

TEST(EmpiricalVariogram, WideBinsGroupDistances) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}};
  const std::vector<double> vals = {0.0, 1.0, 4.0};
  // With bin_width 5, all three pairs fall in one bin.
  k::EmpiricalVariogram ev(pts, vals, k::l1_distance, 5.0);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_EQ(ev.bins()[0].pair_count, 3u);
  // γ̂ = (1 + 9 + 16) / (2·3).
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 26.0 / 6.0);
  // Representative distance is the mean pair distance (1+1+2)/3.
  EXPECT_NEAR(ev.bins()[0].distance, 4.0 / 3.0, 1e-12);
}

TEST(EmpiricalVariogram, Validation) {
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}, {1.0}}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      k::EmpiricalVariogram({{0.0}, {1.0}}, {1.0, 2.0}, k::l1_distance, 0.0),
      std::invalid_argument);
}

TEST(EmpiricalVariogram, L2DistanceOption) {
  const std::vector<std::vector<double>> pts = {{0.0, 0.0}, {3.0, 4.0}};
  const std::vector<double> vals = {0.0, 2.0};
  k::EmpiricalVariogram ev(pts, vals, k::l2_distance);
  ASSERT_EQ(ev.bins().size(), 1u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].distance, 5.0);
}

TEST(EmpiricalVariogram, ExtendFromEmptyAccumulates) {
  k::EmpiricalVariogram ev;
  EXPECT_EQ(ev.sample_count(), 0u);
  EXPECT_TRUE(ev.bins().empty());

  ev.extend({{0.0}, {1.0}}, {0.0, 1.0});
  EXPECT_EQ(ev.sample_count(), 2u);
  EXPECT_EQ(ev.total_pairs(), 1u);

  ev.extend({{2.0}}, {4.0});
  EXPECT_EQ(ev.sample_count(), 3u);
  EXPECT_EQ(ev.total_pairs(), 3u);
  // Matches the hand-computed three-collinear-points case exactly.
  ASSERT_EQ(ev.bins().size(), 2u);
  EXPECT_DOUBLE_EQ(ev.bins()[0].gamma, 2.5);
  EXPECT_DOUBLE_EQ(ev.bins()[1].gamma, 8.0);
  EXPECT_DOUBLE_EQ(ev.max_distance(), 2.0);
}

TEST(EmpiricalVariogram, ExtendInChunksMatchesOneShotBuild) {
  // 40 random 3-d points folded in as 7 + 13 + 20 must produce the same
  // variogram as the one-shot constructor over all 40.
  ace::util::Rng rng(2024);
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, 12)),
                   static_cast<double>(rng.uniform_int(0, 12)),
                   static_cast<double>(rng.uniform_int(0, 12))});
    vals.push_back(rng.uniform(-5.0, 5.0));
  }
  const k::EmpiricalVariogram oneshot(pts, vals);

  k::EmpiricalVariogram chunked;
  std::size_t at = 0;
  for (const std::size_t chunk : {7u, 13u, 20u}) {
    chunked.extend(
        std::vector<std::vector<double>>(pts.begin() + static_cast<long>(at),
                                         pts.begin() +
                                             static_cast<long>(at + chunk)),
        std::vector<double>(vals.begin() + static_cast<long>(at),
                            vals.begin() + static_cast<long>(at + chunk)));
    at += chunk;
  }

  EXPECT_EQ(chunked.sample_count(), oneshot.sample_count());
  EXPECT_EQ(chunked.total_pairs(), oneshot.total_pairs());
  EXPECT_DOUBLE_EQ(chunked.max_distance(), oneshot.max_distance());
  EXPECT_NEAR(chunked.value_variance(), oneshot.value_variance(), 1e-12);
  ASSERT_EQ(chunked.bins().size(), oneshot.bins().size());
  for (std::size_t b = 0; b < oneshot.bins().size(); ++b) {
    EXPECT_EQ(chunked.bins()[b].pair_count, oneshot.bins()[b].pair_count);
    EXPECT_NEAR(chunked.bins()[b].distance, oneshot.bins()[b].distance,
                1e-12);
    EXPECT_NEAR(chunked.bins()[b].gamma, oneshot.bins()[b].gamma, 1e-12);
  }
}

TEST(EmpiricalVariogram, ExtendValidatesSizes) {
  k::EmpiricalVariogram ev;
  EXPECT_THROW(ev.extend({{0.0}, {1.0}}, {1.0}), std::invalid_argument);
}

TEST(EmpiricalVariogram, ExtendRejectsNonFiniteWithoutTouchingBins) {
  // Regression guard: one NaN sample used to poison every bin its pairs
  // fell into, silently degrading kriging from then on. Now the batch is
  // validated up front and a bad batch leaves the accumulators untouched.
  k::EmpiricalVariogram ev({{0.0}, {1.0}, {2.0}}, {0.0, 1.0, 4.0});
  const auto bins_before = ev.bins();
  const std::size_t pairs_before = ev.total_pairs();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ev.extend({{3.0}, {4.0}}, {2.0, nan}),
               ace::util::NonFiniteError);
  EXPECT_THROW(ev.extend({{3.0}}, {std::numeric_limits<double>::infinity()}),
               ace::util::NonFiniteError);
  EXPECT_THROW(ev.extend({{nan}}, {1.0}), ace::util::NonFiniteError);

  // Nothing was folded — not even the finite samples of the bad batch.
  EXPECT_EQ(ev.sample_count(), 3u);
  EXPECT_EQ(ev.total_pairs(), pairs_before);
  ASSERT_EQ(ev.bins().size(), bins_before.size());
  for (std::size_t b = 0; b < bins_before.size(); ++b) {
    EXPECT_DOUBLE_EQ(ev.bins()[b].gamma, bins_before[b].gamma);
    EXPECT_EQ(ev.bins()[b].pair_count, bins_before[b].pair_count);
  }

  // A clean batch afterwards still folds normally.
  ev.extend({{3.0}}, {9.0});
  EXPECT_EQ(ev.sample_count(), 4u);
}

}  // namespace
