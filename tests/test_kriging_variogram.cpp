#include "kriging/variogram_model.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "util/contract.hpp"

namespace ace::kriging {
// gtest prints a parameter through PrintTo (found by ADL); without it the
// discovered ctest names would carry the model's raw bytes.
void PrintTo(const VariogramModel& model, std::ostream* os) {
  *os << model.describe();
}
}  // namespace ace::kriging

namespace {

namespace k = ace::kriging;
using F = k::ModelFamily;

TEST(LinearVariogram, ShapeAndValidation) {
  const k::VariogramModel v(F::kLinear, 0.1, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);  // γ(0) = 0 by definition.
  EXPECT_DOUBLE_EQ(v.gamma(1.0), 2.1);
  EXPECT_DOUBLE_EQ(v.gamma(3.0), 6.1);
  EXPECT_THROW((void)v.gamma(-1.0), std::invalid_argument);
  // Parameter validity is a numerical contract: checked in Debug builds
  // (ContractViolation derives from invalid_argument), compiled out in
  // Release, where construction silently succeeds.
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::VariogramModel(F::kLinear, -0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(k::VariogramModel(F::kLinear, 0.0, -1.0), std::invalid_argument);
#else
  EXPECT_NO_THROW(k::VariogramModel(F::kLinear, -0.1, 1.0));
  EXPECT_NO_THROW(k::VariogramModel(F::kLinear, 0.0, -1.0));
#endif
  EXPECT_EQ(v.describe(), "linear(nugget=0.1, slope=2)");
}

TEST(SphericalVariogram, ReachesSillAtRange) {
  const k::VariogramModel v(F::kSpherical, 0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  EXPECT_DOUBLE_EQ(v.gamma(2.0), 4.0);   // At range: sill.
  EXPECT_DOUBLE_EQ(v.gamma(10.0), 4.0);  // Beyond range: flat.
  // Interior value: 1.5·h − 0.5·h³ at h = 0.5 → 0.6875·sill.
  EXPECT_NEAR(v.gamma(1.0), 4.0 * 0.6875, 1e-12);
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::VariogramModel(F::kSpherical, 0.0, 1.0, 0.0),
               std::invalid_argument);
#else
  EXPECT_NO_THROW(k::VariogramModel(F::kSpherical, 0.0, 1.0, 0.0));
#endif
}

TEST(ExponentialVariogram, ApproachesSillAsymptotically) {
  const k::VariogramModel v(F::kExponential, 0.5, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  // At d = range, 1 − e⁻³ ≈ 0.9502.
  EXPECT_NEAR(v.gamma(2.0), 0.5 + 3.0 * 0.950212931, 1e-8);
  EXPECT_LT(v.gamma(100.0), 3.5 + 1e-9);
  EXPECT_GT(v.gamma(100.0), 3.49);
}

TEST(GaussianVariogram, SmoothNearOrigin) {
  const k::VariogramModel v(F::kGaussian, 0.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(v.gamma(0.0), 0.0);
  // Quadratic start: γ(d) ≈ sill·3·(d/a)² for small d.
  const double small = v.gamma(0.1);
  EXPECT_NEAR(small, 2.0 * 3.0 * (0.1 / 4.0) * (0.1 / 4.0), 1e-4);
  EXPECT_NEAR(v.gamma(100.0), 2.0, 1e-9);
}

TEST(PowerVariogram, ExponentBounds) {
  const k::VariogramModel v(F::kPower, 0.0, 1.5, 1.0);
  EXPECT_DOUBLE_EQ(v.gamma(2.0), 3.0);
#if ACE_CONTRACTS_ENABLED
  EXPECT_THROW(k::VariogramModel(F::kPower, 0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(k::VariogramModel(F::kPower, 0.0, 1.0, 2.0),
               std::invalid_argument);
#else
  EXPECT_NO_THROW(k::VariogramModel(F::kPower, 0.0, 1.0, 0.0));
  EXPECT_NO_THROW(k::VariogramModel(F::kPower, 0.0, 1.0, 2.0));
#endif
  EXPECT_NO_THROW(k::VariogramModel(F::kPower, 0.0, 1.0, 1.99));
}

TEST(VariogramModel, GammaIsNuggetPlusScaledUnitBasis) {
  // Off the origin every family is nugget + scale·unit_basis, bit for bit.
  for (const auto& m :
       {k::VariogramModel(F::kLinear, 0.2, 1.3),
        k::VariogramModel(F::kSpherical, 0.1, 2.0, 5.0),
        k::VariogramModel(F::kExponential, 0.3, 4.0, 3.0),
        k::VariogramModel(F::kGaussian, 0.05, 1.5, 6.0),
        k::VariogramModel(F::kPower, 0.1, 1.2, 1.5)})
    for (const double d : {0.25, 1.0, 4.0, 5.0, 17.5})
      EXPECT_EQ(m.gamma(d),
                m.nugget + m.scale * k::unit_basis(m.family, m.shape, d))
          << m.describe() << " at d = " << d;
}

TEST(VariogramModel, DescribeNamesEveryParameter) {
  EXPECT_EQ(k::VariogramModel(F::kSpherical, 0.1, 2.0, 8.0).describe(),
            "spherical(nugget=0.1, sill=2, range=8)");
  EXPECT_EQ(k::VariogramModel(F::kExponential, 0.0, 1.5, 6.0).describe(),
            "exponential(nugget=0, sill=1.5, range=6)");
  EXPECT_EQ(k::VariogramModel(F::kGaussian, 0.05, 3.0, 7.0).describe(),
            "gaussian(nugget=0.05, sill=3, range=7)");
  EXPECT_EQ(k::VariogramModel(F::kPower, 0.0, 1.0, 1.2).describe(),
            "power(nugget=0, scale=1, exponent=1.2)");
}

TEST(VariogramModel, EqualityComparesEveryField) {
  const k::VariogramModel base(F::kSpherical, 0.1, 2.0, 8.0);
  EXPECT_EQ(base, k::VariogramModel(F::kSpherical, 0.1, 2.0, 8.0));
  EXPECT_NE(base, k::VariogramModel(F::kExponential, 0.1, 2.0, 8.0));
  EXPECT_NE(base, k::VariogramModel(F::kSpherical, 0.2, 2.0, 8.0));
  EXPECT_NE(base, k::VariogramModel(F::kSpherical, 0.1, 2.5, 8.0));
  EXPECT_NE(base, k::VariogramModel(F::kSpherical, 0.1, 2.0, 9.0));
}

/// Properties common to every model: γ(0) = 0, non-negative, monotone
/// non-decreasing over distance, a copy is the same model.
class VariogramPropertyTest
    : public ::testing::TestWithParam<k::VariogramModel> {};

std::string model_name(
    const ::testing::TestParamInfo<k::VariogramModel>& info) {
  return k::family_name(info.param.family) + "_" + std::to_string(info.index);
}

TEST_P(VariogramPropertyTest, ZeroAtOrigin) {
  EXPECT_DOUBLE_EQ(GetParam().gamma(0.0), 0.0);
}

TEST_P(VariogramPropertyTest, NonNegativeAndMonotone) {
  const auto& v = GetParam();
  double prev = v.gamma(0.0);
  for (double d = 0.25; d <= 20.0; d += 0.25) {
    const double g = v.gamma(d);
    EXPECT_GE(g, 0.0);
    EXPECT_GE(g, prev - 1e-12) << "at d = " << d;
    prev = g;
  }
}

TEST_P(VariogramPropertyTest, CloneMatchesOriginal) {
  const auto& v = GetParam();
  const k::VariogramModel copy = v;
  EXPECT_EQ(copy, v);
  for (double d : {0.0, 0.5, 1.0, 3.0, 7.5, 19.0})
    EXPECT_EQ(copy.gamma(d), v.gamma(d));
}

TEST_P(VariogramPropertyTest, DescribeMentionsFamily) {
  const auto& v = GetParam();
  EXPECT_NE(v.describe().find(k::family_name(v.family)), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, VariogramPropertyTest,
    ::testing::Values(k::VariogramModel(F::kLinear, 0.2, 1.3),
                      k::VariogramModel(F::kLinear, 0.0, 0.0),
                      k::VariogramModel(F::kSpherical, 0.1, 2.0, 5.0),
                      k::VariogramModel(F::kSpherical, 0.0, 1.0, 0.5),
                      k::VariogramModel(F::kExponential, 0.3, 4.0, 3.0),
                      k::VariogramModel(F::kGaussian, 0.05, 1.5, 6.0),
                      k::VariogramModel(F::kPower, 0.0, 0.8, 0.5),
                      k::VariogramModel(F::kPower, 0.1, 1.2, 1.5)),
    model_name);

}  // namespace
