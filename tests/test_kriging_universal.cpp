// Universal kriging (kriging with a drift) through kriging::KrigingSystem
// with SystemKind::kUniversal — an extension beyond the paper's ordinary
// kriging (see DESIGN.md).
//
// Word-length accuracy surfaces are strongly trending (≈6 dB/bit), which
// violates ordinary kriging's constant-mean assumption when the support
// sits on one side of the query. A linear drift models
// λ(e) = Σ_l β_l f_l(e) + Z(e) with f = [1, e_1, …, e_Nv] and borders the
// system with one unbiasedness row per basis function; the constant basis
// alone reduces exactly to Eq. 9-10.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;
using F = k::ModelFamily;

/// One-shot kriging at `query` under the given system spec.
std::optional<k::KrigingResult> krige_at(
    const k::SystemSpec& spec, std::vector<std::vector<double>> points,
    std::vector<double> values, const std::vector<double>& query,
    const k::VariogramModel& model) {
  return k::KrigingSystem(spec, std::move(points), std::move(values), model)
      .query(query);
}

std::optional<k::KrigingResult> with_drift(
    std::vector<std::vector<double>> points, std::vector<double> values,
    const std::vector<double>& query, const k::VariogramModel& model,
    k::DriftKind drift) {
  return krige_at({k::SystemKind::kUniversal, drift}, std::move(points),
                  std::move(values), query, model);
}

TEST(UniversalKriging, Validation) {
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  EXPECT_THROW((void)with_drift({}, {}, {0.0}, model, k::DriftKind::kLinear),
               std::invalid_argument);
  EXPECT_THROW((void)with_drift({{0.0}}, {1.0, 2.0}, {0.0}, model,
                                k::DriftKind::kLinear),
               std::invalid_argument);
  EXPECT_THROW((void)with_drift({{0.0, 0.0}}, {1.0}, {0.0}, model,
                                k::DriftKind::kLinear),
               std::invalid_argument);
}

TEST(UniversalKriging, ConstantDriftMatchesOrdinaryKriging) {
  const k::VariogramModel model(F::kSpherical, 0.1, 2.0, 6.0);
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {1.0, 2.0}, {3.0, 1.0}, {4.0, 4.0}};
  const std::vector<double> vals = {1.0, 2.0, 0.5, -1.0};
  for (const auto& q : std::vector<std::vector<double>>{
           {2.0, 2.0}, {0.0, 1.0}, {5.0, 5.0}}) {
    const auto ok = krige_at({}, pts, vals, q, model);
    const auto uk = with_drift(pts, vals, q, model, k::DriftKind::kConstant);
    ASSERT_TRUE(ok.has_value());
    ASSERT_TRUE(uk.has_value());
    EXPECT_NEAR(ok->estimate, uk->estimate, 1e-9);
    EXPECT_NEAR(ok->variance, uk->variance, 1e-9);
  }
}

TEST(UniversalKriging, LinearDriftReproducesAffineFieldExactly) {
  // λ(x) = 3 + 2x sampled at a few 1-D points: with a linear drift the
  // trend is captured by the basis, so even an extrapolating query is
  // reproduced exactly — ordinary kriging cannot do that.
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {2.0}, {4.0}};
  std::vector<double> vals;
  for (const auto& p : pts) vals.push_back(3.0 + 2.0 * p[0]);
  const std::vector<double> query = {8.0};  // Far outside the support.

  const auto uk = with_drift(pts, vals, query, model, k::DriftKind::kLinear);
  ASSERT_TRUE(uk.has_value());
  EXPECT_NEAR(uk->estimate, 3.0 + 2.0 * 8.0, 1e-6);

  const auto ok = krige_at({}, pts, vals, query, model);
  ASSERT_TRUE(ok.has_value());
  // Ordinary kriging extrapolates toward the local mean — visibly off.
  EXPECT_GT(std::abs(ok->estimate - 19.0), std::abs(uk->estimate - 19.0));
}

TEST(UniversalKriging, LinearDriftExactInHigherDimensions) {
  const k::VariogramModel model(F::kExponential, 0.0, 1.0, 4.0);
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0, 0.0}, {1.0, 0.0, 2.0}, {2.0, 1.0, 0.0}, {0.0, 2.0, 1.0},
      {3.0, 3.0, 3.0}, {1.0, 2.0, 2.0}};
  auto field = [](const std::vector<double>& x) {
    return 1.0 - 2.0 * x[0] + 0.5 * x[1] + 3.0 * x[2];
  };
  std::vector<double> vals;
  for (const auto& p : pts) vals.push_back(field(p));
  const std::vector<double> query = {4.0, 1.0, 5.0};
  const auto uk = with_drift(pts, vals, query, model, k::DriftKind::kLinear);
  ASSERT_TRUE(uk.has_value());
  EXPECT_NEAR(uk->estimate, field(query), 1e-5);
}

TEST(UniversalKriging, SmallSupportFallsBackToConstantDrift) {
  // 2 points in 3-D cannot identify a linear trend (needs dim + 2 = 5):
  // the call must still succeed via the constant-drift fallback.
  const k::VariogramModel model(F::kLinear, 0.0, 1.0);
  const std::vector<std::vector<double>> pts = {{0.0, 0.0, 0.0},
                                                {2.0, 0.0, 0.0}};
  const std::vector<double> vals = {1.0, 5.0};
  const auto uk = with_drift(pts, vals, {1.0, 0.0, 0.0}, model,
                             k::DriftKind::kLinear);
  ASSERT_TRUE(uk.has_value());
  EXPECT_NEAR(uk->estimate, 3.0, 1e-9);  // Midpoint average.
}

TEST(UniversalKriging, ExactAtSupportPoints) {
  const k::VariogramModel model(F::kLinear, 0.0, 0.5);
  const std::vector<std::vector<double>> pts = {{0.0}, {2.0}, {5.0}, {7.0}};
  const std::vector<double> vals = {1.0, -2.0, 4.0, 0.0};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto r = with_drift(pts, vals, pts[i], model, k::DriftKind::kLinear);
    ASSERT_TRUE(r.has_value());
    if (r->regularized) continue;
    EXPECT_NEAR(r->estimate, vals[i], 1e-7) << "support point " << i;
  }
}

TEST(UniversalKriging, WeightsSumToOneUnderLinearDrift) {
  // The constant basis row enforces Σw = 1 regardless of drift order.
  const k::VariogramModel model(F::kSpherical, 0.0, 1.0, 5.0);
  ace::util::Rng rng(77);
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, 8)),
                   static_cast<double>(rng.uniform_int(0, 8))});
    vals.push_back(rng.uniform(-5.0, 5.0));
  }
  const auto r =
      with_drift(pts, vals, {4.0, 4.0}, model, k::DriftKind::kLinear);
  if (!r) GTEST_SKIP();  // Degenerate random geometry.
  double sum = 0.0;
  for (double w : r->weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
