// Simple kriging (known mean, covariance form) through
// kriging::KrigingSystem with SystemKind::kSimple.
//
// The paper's prose calls its method "a simple kriging technique" while
// its equations (the ones-bordered system, Eq. 9-10) are ordinary
// kriging. Simple kriging solves C·w = c_q with C(d) = max(sill − γ(d), 0)
// and λ̂ = m + Σ w_k (λ_k − m), σ² = C(0) − wᵀc_q: it needs the mean m and
// the sill supplied — the assumptions ordinary kriging removes.
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

/// One-shot simple kriging at `query` with the given sill and mean.
std::optional<k::KrigingResult> simple(
    std::vector<std::vector<double>> points, std::vector<double> values,
    const std::vector<double>& query, const k::VariogramModel& model,
    double sill, double mean) {
  const k::SystemSpec spec{k::SystemKind::kSimple, k::DriftKind::kConstant,
                           sill, mean};
  return k::KrigingSystem(spec, std::move(points), std::move(values), model)
      .query(query);
}

TEST(SimpleKriging, Validation) {
  const k::VariogramModel model(F::kSpherical, 0.0, 1.0, 4.0);
  EXPECT_THROW((void)simple({}, {}, {0.0}, model, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)simple({{0.0}}, {1.0, 2.0}, {0.0}, model, 1.0, 0.0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)simple({{0.0}}, {1.0}, {0.0}, model, 0.0, 0.0),
      std::invalid_argument);
  EXPECT_THROW(
      (void)simple({{0.0, 1.0}}, {1.0}, {0.0}, model, 1.0, 0.0),
      std::invalid_argument);
}

TEST(SimpleKriging, ExactAtSupportPoints) {
  const k::VariogramModel model(F::kSpherical, 0.0, 2.0, 6.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {5.0}};
  const std::vector<double> vals = {1.0, -2.0, 4.0};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto r = simple(pts, vals, pts[i], model, 2.0, 1.0);
    ASSERT_TRUE(r.has_value());
    if (r->regularized) continue;
    EXPECT_NEAR(r->estimate, vals[i], 1e-7) << "support point " << i;
    EXPECT_NEAR(r->variance, 0.0, 1e-7);
  }
}

TEST(SimpleKriging, FarQueryRevertsToTheMean) {
  // Beyond the variogram range the covariance vanishes: the estimate is
  // exactly the supplied mean — the defining property of simple kriging
  // (ordinary kriging reverts to the *local support* average instead).
  const k::VariogramModel model(F::kSpherical, 0.0, 2.0, 3.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}};
  const std::vector<double> vals = {10.0, 12.0};
  const double mean = 4.0;
  const auto r = simple(pts, vals, {100.0}, model, 2.0, mean);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->estimate, mean, 1e-9);
  // Variance reverts to the sill.
  EXPECT_NEAR(r->variance, 2.0, 1e-9);
}

TEST(SimpleKriging, WeightsDoNotNeedToSumToOne) {
  const k::VariogramModel model(F::kExponential, 0.0, 1.5, 4.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {4.0}};
  const std::vector<double> vals = {3.0, 5.0, 2.0};
  const auto r = simple(pts, vals, {6.0}, model, 1.5, 3.0);
  ASSERT_TRUE(r.has_value());
  double sum = 0.0;
  for (double w : r->weights) sum += w;
  EXPECT_LT(sum, 1.0);  // Mass shifts toward the prior mean.
  EXPECT_GT(sum, 0.0);
}

TEST(SimpleKriging, BiasedMeanBiasesTheEstimate) {
  // Same geometry, two different prior means: the far-field estimates
  // differ by exactly the mean difference.
  const k::VariogramModel model(F::kGaussian, 0.0, 1.0, 2.0);
  const std::vector<std::vector<double>> pts = {{0.0}};
  const std::vector<double> vals = {5.0};
  const auto lo = simple(pts, vals, {50.0}, model, 1.0, 0.0);
  const auto hi = simple(pts, vals, {50.0}, model, 1.0, 10.0);
  ASSERT_TRUE(lo.has_value());
  ASSERT_TRUE(hi.has_value());
  EXPECT_NEAR(hi->estimate - lo->estimate, 10.0, 1e-9);
}

TEST(SimpleKriging, MatchesOrdinaryKrigingWhenMeanIsTrue) {
  // With the exact field mean supplied and support close to the query,
  // SK and OK agree closely (they differ only in how the mean is handled).
  const k::VariogramModel model(F::kSpherical, 0.0, 2.0, 8.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<double> vals = {4.0, 6.0, 5.0, 7.0};
  const double mean = (4.0 + 6.0 + 5.0 + 7.0) / 4.0;
  const auto sk = simple(pts, vals, {1.5}, model, 2.0, mean);
  const auto ok = k::KrigingSystem({}, pts, vals, model).query({1.5});
  ASSERT_TRUE(sk.has_value());
  ASSERT_TRUE(ok.has_value());
  EXPECT_NEAR(sk->estimate, ok->estimate, 0.3);
}

}  // namespace
