// Ordinary kriging (paper Eq. 3 and 7-10) through kriging::KrigingSystem
// with the default SystemSpec.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"

namespace {

namespace k = ace::kriging;
using F = k::ModelFamily;

/// One-shot ordinary kriging at `query`.
std::optional<k::KrigingResult> ordinary(
    std::vector<std::vector<double>> points, std::vector<double> values,
    const std::vector<double>& query, const k::VariogramModel& model) {
  return k::KrigingSystem({}, std::move(points), std::move(values), model)
      .query(query);
}

TEST(Krige, Validation) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  EXPECT_THROW((void)ordinary({}, {}, {0.0}, model), std::invalid_argument);
  EXPECT_THROW((void)ordinary({{0.0}}, {1.0, 2.0}, {0.0}, model),
               std::invalid_argument);
  EXPECT_THROW((void)ordinary({{0.0, 0.0}}, {1.0}, {0.0}, model),
               std::invalid_argument);
}

TEST(Krige, SingleSupportPointReturnsItsValue) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const auto r = ordinary({{0.0}}, {7.5}, {3.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 7.5, 1e-9);
  EXPECT_NEAR(r->weights[0], 1.0, 1e-9);
}

TEST(Krige, ExactAtSupportPoints) {
  const k::VariogramModel model(F::kLinear, 0.0, 0.7);
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {5.0}};
  const std::vector<double> vals = {1.0, -2.0, 4.0};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto r = ordinary(pts, vals, pts[i], model);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(r->estimate, vals[i], 1e-8) << "support point " << i;
    EXPECT_NEAR(r->variance, 0.0, 1e-8);
  }
}

TEST(Krige, WeightsSumToOne) {
  const k::VariogramModel model(F::kSpherical, 0.0, 2.0, 8.0);
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {1.0, 2.0}, {3.0, 1.0}, {4.0, 4.0}};
  const std::vector<double> vals = {1.0, 2.0, 0.5, -1.0};
  const auto r = ordinary(pts, vals, {2.0, 2.0}, model);
  ASSERT_TRUE(r.has_value());
  double sum = 0.0;
  for (double w : r->weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);  // Unbiasedness constraint (Eq. 6).
}

TEST(Krige, MidpointOfTwoPointsIsTheirAverage) {
  // With a symmetric variogram, the midpoint weights are (1/2, 1/2).
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const auto r = ordinary({{0.0}, {4.0}}, {2.0, 6.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 4.0, 1e-9);
  EXPECT_NEAR(r->weights[0], 0.5, 1e-9);
  EXPECT_NEAR(r->weights[1], 0.5, 1e-9);
}

TEST(Krige, LinearVariogramInterpolatesLinearly1D) {
  // Classic result: ordinary kriging with a linear variogram between two
  // support points reduces to linear interpolation.
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const auto r = ordinary({{0.0}, {10.0}}, {0.0, 5.0}, {3.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 1.5, 1e-9);
}

TEST(Krige, CloserPointGetsLargerWeight) {
  const k::VariogramModel model(F::kExponential, 0.0, 1.0, 5.0);
  const auto r = ordinary({{1.0}, {9.0}}, {10.0, 20.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->weights[0], r->weights[1]);
  EXPECT_GT(r->estimate, 10.0);
  EXPECT_LT(r->estimate, 20.0);
}

TEST(Krige, DegenerateVariogramFallsBackViaRidge) {
  // γ ≡ 0 makes the core of Γ all-zero: the ridge fallback yields equal
  // weights (the support mean) instead of failing.
  const k::VariogramModel model(F::kLinear, 0.0, 0.0);
  const auto r = ordinary({{0.0}, {1.0}, {2.0}}, {3.0, 6.0, 9.0},
                          {1.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->regularized);
  EXPECT_NEAR(r->estimate, 6.0, 1e-6);
}

TEST(Krige, DuplicateSupportPointsAreHandled) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  // Two identical support points make Γ singular; ridge rescues.
  const auto r =
      ordinary({{0.0}, {0.0}, {4.0}}, {2.0, 2.0, 6.0}, {2.0}, model);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, 4.0, 0.1);
}

TEST(Krige, VarianceGrowsWithDistanceFromSupport) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}};
  const std::vector<double> vals = {1.0, 2.0};
  const auto near = ordinary(pts, vals, {0.5}, model);
  const auto far = ordinary(pts, vals, {10.0}, model);
  ASSERT_TRUE(near.has_value());
  ASSERT_TRUE(far.has_value());
  EXPECT_GT(far->variance, near->variance);
}

// One system answering many queries (factor memoized after the first)
// matches a fresh system per query.
TEST(OrdinaryKriging, ReusableEstimatorMatchesOneShot) {
  const k::VariogramModel model(F::kSpherical, 0.1, 1.0, 6.0);
  const std::vector<std::vector<double>> pts = {{0.0, 1.0}, {2.0, 0.0},
                                                {1.0, 3.0}};
  const std::vector<double> vals = {1.0, 4.0, -2.0};
  k::KrigingSystem estimator({}, pts, vals, model);
  EXPECT_EQ(estimator.support_size(), 3u);
  for (const auto& q : std::vector<std::vector<double>>{
           {1.0, 1.0}, {0.0, 0.0}, {2.0, 2.0}}) {
    const auto a = estimator.query(q);
    const auto b = ordinary(pts, vals, q, model);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NEAR(a->estimate, b->estimate, 1e-12);
  }
}

// The reusable system rejects bad support at construction, before any
// query is made.
TEST(OrdinaryKriging, ConstructorValidation) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  EXPECT_THROW(k::KrigingSystem({}, {}, {}, model), std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({}, {{0.0}}, {1.0, 2.0}, model),
               std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({}, {{0.0}, {1.0, 2.0}}, {1.0, 2.0}, model),
               std::invalid_argument);
}

TEST(Krige, QueryDimensionMismatchThrows) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  EXPECT_THROW((void)ordinary({{0.0, 0.0}}, {1.0}, {0.0}, model),
               std::invalid_argument);
}

}  // namespace
