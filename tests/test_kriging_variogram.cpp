#include "kriging/variogram_model.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/contract.hpp"

namespace {

namespace k = ace::kriging;

TEST(LinearVariogram, ShapeAndValidation) {
  const k::LinearVariogram v(0.1, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);  // γ(0) = 0 by definition.
  EXPECT_DOUBLE_EQ(v.gamma(1.0), 2.1);
  EXPECT_DOUBLE_EQ(v.gamma(3.0), 6.1);
  EXPECT_THROW((void)v.gamma(-1.0), std::invalid_argument);
  // Parameter validity is a numerical contract: checked in Debug builds
  // (ContractViolation derives from invalid_argument), compiled out in
  // Release, where construction silently succeeds.
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::LinearVariogram(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(k::LinearVariogram(0.0, -1.0), std::invalid_argument);
#else
  EXPECT_NO_THROW(k::LinearVariogram(-0.1, 1.0));
  EXPECT_NO_THROW(k::LinearVariogram(0.0, -1.0));
#endif
  EXPECT_EQ(v.name(), "linear");
}

TEST(SphericalVariogram, ReachesSillAtRange) {
  const k::SphericalVariogram v(0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  EXPECT_DOUBLE_EQ(v.gamma(2.0), 4.0);   // At range: sill.
  EXPECT_DOUBLE_EQ(v.gamma(10.0), 4.0);  // Beyond range: flat.
  // Interior value: 1.5·h − 0.5·h³ at h = 0.5 → 0.6875·sill.
  EXPECT_NEAR(v.gamma(1.0), 4.0 * 0.6875, 1e-12);
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::SphericalVariogram(0.0, 1.0, 0.0), std::invalid_argument);
#else
  EXPECT_NO_THROW(k::SphericalVariogram(0.0, 1.0, 0.0));
#endif
}

TEST(ExponentialVariogram, ApproachesSillAsymptotically) {
  const k::ExponentialVariogram v(0.5, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  // At d = range, 1 − e⁻³ ≈ 0.9502.
  EXPECT_NEAR(v.gamma(2.0), 0.5 + 3.0 * 0.950212931, 1e-8);
  EXPECT_LT(v.gamma(100.0), 3.5 + 1e-9);
  EXPECT_GT(v.gamma(100.0), 3.49);
}

TEST(GaussianVariogram, SmoothNearOrigin) {
  const k::GaussianVariogram v(0.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  // Quadratic start: γ(d) ≈ sill·3·(d/a)² for small d.
  const double small = v.gamma(0.1);
  EXPECT_NEAR(small, 2.0 * 3.0 * (0.1 / 4.0) * (0.1 / 4.0), 1e-4);
  EXPECT_NEAR(v.gamma(100.0), 2.0, 1e-9);
}

TEST(PowerVariogram, ExponentBounds) {
  const k::PowerVariogram v(0.0, 1.5, 1.0);
  EXPECT_DOUBLE_EQ(v.gamma(2.0), 3.0);
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::PowerVariogram(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(k::PowerVariogram(0.0, 1.0, 2.0), std::invalid_argument);
#else
  EXPECT_NO_THROW(k::PowerVariogram(0.0, 1.0, 0.0));
  EXPECT_NO_THROW(k::PowerVariogram(0.0, 1.0, 2.0));
#endif
  EXPECT_NO_THROW(k::PowerVariogram(0.0, 1.0, 1.99));
}

/// A model under test. gtest would print the shared_ptr's heap address,
/// and ctest names the discovered tests after that printout; PrintTo gives
/// it the model's description instead.
struct ModelCase {
  std::shared_ptr<k::VariogramModel> model;
};

void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.model->describe();
}

std::string model_name(const ::testing::TestParamInfo<ModelCase>& info) {
  return info.param.model->name() + "_" + std::to_string(info.index);
}

/// Properties common to every model: γ(0) = 0, non-negative, monotone
/// non-decreasing over distance, clone() preserves behaviour.
class VariogramPropertyTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(VariogramPropertyTest, ZeroAtOrigin) {
  EXPECT_DOUBLE_EQ(GetParam().model->gamma(0.0), 0.0);
}

TEST_P(VariogramPropertyTest, NonNegativeAndMonotone) {
  const auto& v = *GetParam().model;
  double prev = v.gamma(0.0);
  for (double d = 0.25; d <= 20.0; d += 0.25) {
    const double g = v.gamma(d);
    EXPECT_GE(g, 0.0);
    EXPECT_GE(g, prev - 1e-12) << "at d = " << d;
    prev = g;
  }
}

TEST_P(VariogramPropertyTest, CloneMatchesOriginal) {
  const auto& v = *GetParam().model;
  const auto copy = v.clone();
  EXPECT_EQ(copy->name(), v.name());
  for (double d : {0.0, 0.5, 1.0, 3.0, 7.5, 19.0})
    EXPECT_DOUBLE_EQ(copy->gamma(d), v.gamma(d));
}

TEST_P(VariogramPropertyTest, DescribeMentionsFamily) {
  const auto& v = *GetParam().model;
  EXPECT_NE(v.describe().find(v.name()), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, VariogramPropertyTest,
    ::testing::Values(
        ModelCase{std::make_shared<k::LinearVariogram>(0.2, 1.3)},
        ModelCase{std::make_shared<k::LinearVariogram>(0.0, 0.0)},
        ModelCase{std::make_shared<k::SphericalVariogram>(0.1, 2.0, 5.0)},
        ModelCase{std::make_shared<k::SphericalVariogram>(0.0, 1.0, 0.5)},
        ModelCase{std::make_shared<k::ExponentialVariogram>(0.3, 4.0, 3.0)},
        ModelCase{std::make_shared<k::GaussianVariogram>(0.05, 1.5, 6.0)},
        ModelCase{std::make_shared<k::PowerVariogram>(0.0, 0.8, 0.5)},
        ModelCase{std::make_shared<k::PowerVariogram>(0.1, 1.2, 1.5)}),
    model_name);

}  // namespace
