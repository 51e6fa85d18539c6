#include "kriging/fit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

/// Builds an empirical variogram from 1-D samples of a function.
k::EmpiricalVariogram variogram_of(const std::function<double(double)>& f,
                                   int n_points) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  for (int i = 0; i < n_points; ++i) {
    pts.push_back({static_cast<double>(i)});
    vals.push_back(f(static_cast<double>(i)));
  }
  return k::EmpiricalVariogram(pts, vals);
}

TEST(FamilyName, CoversAllFamilies) {
  EXPECT_EQ(k::family_name(k::ModelFamily::kLinear), "linear");
  EXPECT_EQ(k::family_name(k::ModelFamily::kSpherical), "spherical");
  EXPECT_EQ(k::family_name(k::ModelFamily::kExponential), "exponential");
  EXPECT_EQ(k::family_name(k::ModelFamily::kGaussian), "gaussian");
  EXPECT_EQ(k::family_name(k::ModelFamily::kPower), "power");
}

TEST(FitLinear, RecoversLinearTrendVariogram) {
  // λ(x) = 2x gives γ̂(d) = 2d² — convex growth the linear model tracks
  // with a positive slope.
  const auto ev = variogram_of([](double x) { return 2.0 * x; }, 12);
  const auto fit = k::fit_family(ev, k::ModelFamily::kLinear);
  EXPECT_EQ(fit.model.family, k::ModelFamily::kLinear);
  // γ̂(d) = (2d)²/2 = 2d²: convex, so the linear fit has positive slope.
  EXPECT_GT(fit.model.scale, 0.0);
}

TEST(FitFlatField, AllFamiliesDegradeGracefully) {
  const auto ev = variogram_of([](double) { return 5.0; }, 10);
  for (const auto family :
       {k::ModelFamily::kLinear, k::ModelFamily::kSpherical,
        k::ModelFamily::kExponential, k::ModelFamily::kGaussian,
        k::ModelFamily::kPower}) {
    const auto fit = k::fit_family(ev, family);
    EXPECT_EQ(fit.model.family, family) << k::family_name(family);
    EXPECT_DOUBLE_EQ(fit.weighted_sse, 0.0);
    // Fitted model must be identically ~0.
    for (double d : {1.0, 3.0, 7.0})
      EXPECT_NEAR(fit.model.gamma(d), 0.0, 1e-9);
  }
}

TEST(FitBounded, RecoversSphericalSill) {
  // Synthesize an empirical variogram directly from a spherical model by
  // sampling a function whose increments follow it approximately: easier —
  // fit against bins manufactured from the model itself via a field with
  // matching structure is noisy; instead check SSE ordering below.
  const k::VariogramModel truth(k::ModelFamily::kSpherical, 0.0, 2.0, 6.0);
  // Build bins by hand: points on a line, values via a deterministic
  // profile whose variogram equals the model at small lags is hard; use
  // the fitter's own objective: generate bins from the true model.
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  // Trick: for a *strictly increasing* 1-D profile v(x), γ̂(d) over a long
  // line approaches the average of (v(x+d)−v(x))²/2. Choose v so this
  // matches the spherical shape loosely; the test then only asserts that
  // the bounded families with a sill fit better than linear when the
  // empirical variogram saturates.
  const int n = 40;
  ace::util::Rng rng(11);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i)});
    // Bounded random walk saturates the variogram.
    acc = 0.7 * acc + rng.normal(0.0, 1.0);
    vals.push_back(acc);
  }
  k::EmpiricalVariogram ev(pts, vals);
  const auto all = k::fit_all(ev);
  ASSERT_FALSE(all.empty());
  // Results are sorted by SSE.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].weighted_sse, all[i].weighted_sse);
  // A saturating (AR(1)) field: exponential/spherical/gaussian should beat
  // the unbounded linear model.
  const auto best = k::fit_best(ev);
  EXPECT_NE(best.model.family, k::ModelFamily::kLinear);
}

TEST(FitAll, ReturnsEveryRequestedFamily) {
  const auto ev = variogram_of([](double x) { return std::sqrt(x); }, 15);
  k::FitOptions options;
  const auto all = k::fit_all(ev, options);
  ASSERT_EQ(all.size(), options.families.size());
  // Each requested family exactly once.
  for (const auto family : options.families)
    EXPECT_EQ(std::count_if(all.begin(), all.end(),
                            [family](const k::FitResult& fit) {
                              return fit.model.family == family;
                            }),
              1)
        << k::family_name(family);
}

TEST(FitPower, NeverWorseThanLinear) {
  // The power family's exponent grid includes p = 1.0, which spans the
  // linear model — so its weighted SSE can never exceed linear's.
  for (int profile = 0; profile < 3; ++profile) {
    const auto ev = variogram_of(
        [profile](double x) {
          switch (profile) {
            case 0: return std::sqrt(x + 1.0);
            case 1: return 0.3 * x;
            default: return 0.05 * x * x;
          }
        },
        18);
    const auto power = k::fit_family(ev, k::ModelFamily::kPower);
    const auto linear = k::fit_family(ev, k::ModelFamily::kLinear);
    EXPECT_LE(power.weighted_sse, linear.weighted_sse + 1e-9)
        << "profile " << profile;
  }
}

TEST(Fit, ThrowsOnEmptyVariogram) {
  // Cannot construct an EmpiricalVariogram with < 2 points, so build one
  // and steal its type via a direct call with zero bins is impossible —
  // the validation happens in fit_family via the bin check. Validate the
  // EmpiricalVariogram precondition instead.
  EXPECT_THROW(k::EmpiricalVariogram({{0.0}}, {1.0}), std::invalid_argument);
}

TEST(FitBest, PrefersLowestSse) {
  const auto ev = variogram_of([](double x) { return x * x * 0.1; }, 12);
  const auto all = k::fit_all(ev);
  const auto best = k::fit_best(ev);
  EXPECT_DOUBLE_EQ(best.weighted_sse, all.front().weighted_sse);
}

// ------------------------------------------------------------ golden fits
// Every fitted parameter and weighted SSE of fit_all / fit_best on fixed
// empirical variograms, pinned bit-exactly in hexfloat: a refactor of the
// model or the fitter must leave each one unchanged (the values were
// captured from the build before the variogram-model port).

/// Deterministic jitter in [-0.5, 0.5): an integer hash, so the fixtures
/// depend on no library distribution.
double jitter(std::uint32_t i) {
  const std::uint32_t x = (i + 1u) * 2654435761u;
  return static_cast<double>(x >> 8) / 16777216.0 - 0.5;
}

/// The fixed empirical variograms the golden fits are pinned on.
k::EmpiricalVariogram golden_variogram(int which) {
  std::vector<std::vector<double>> pts;
  std::vector<double> vals;
  switch (which) {
    case 0:  // 1-D sqrt profile, L1: concave growth.
      for (int i = 0; i < 15; ++i) {
        pts.push_back({static_cast<double>(i)});
        vals.push_back(std::sqrt(static_cast<double>(i)));
      }
      return k::EmpiricalVariogram(pts, vals);
    case 1:  // 1-D quadratic profile, L1: convex growth.
      for (int i = 0; i < 12; ++i) {
        pts.push_back({static_cast<double>(i)});
        vals.push_back(0.1 * i * i);
      }
      return k::EmpiricalVariogram(pts, vals);
    case 2:  // 1-D AR(1)-like field, L1: saturating.
    {
      double acc = 0.0;
      for (int i = 0; i < 60; ++i) {
        acc = 0.85 * acc + jitter(static_cast<std::uint32_t>(i));
        pts.push_back({static_cast<double>(i)});
        vals.push_back(acc);
      }
      return k::EmpiricalVariogram(pts, vals);
    }
    case 3:  // 2-D periodic field, L2, half-unit bins: saturating.
      for (int x = 0; x < 7; ++x)
        for (int y = 0; y < 7; ++y) {
          pts.push_back({static_cast<double>(x), static_cast<double>(y)});
          vals.push_back(std::sin(1.3 * x) + std::cos(1.1 * y) +
                         0.3 * jitter(static_cast<std::uint32_t>(7 * x + y)));
        }
      return k::EmpiricalVariogram(pts, vals, k::l2_distance, 0.5);
    case 4:  // 1-D random walk, L1: the exponent sweep is interior.
    {
      double acc = 0.0;
      for (int i = 0; i < 30; ++i) {
        acc += jitter(static_cast<std::uint32_t>(3 * i + 1));
        pts.push_back({static_cast<double>(i)});
        vals.push_back(acc);
      }
      return k::EmpiricalVariogram(pts, vals);
    }
    default:  // 2-D tilted plane plus jitter, L2.
      for (int x = 0; x < 5; ++x)
        for (int y = 0; y < 5; ++y) {
          pts.push_back({static_cast<double>(x), static_cast<double>(y)});
          vals.push_back(0.8 * x - 0.5 * y +
                         jitter(static_cast<std::uint32_t>(5 * x + y)));
        }
      return k::EmpiricalVariogram(pts, vals, k::l2_distance);
  }
}

/// One fitted candidate as plain numbers: shape is the range of a bounded
/// family, the exponent of the power family and 0 for the linear family.
struct GoldenRow {
  k::ModelFamily family;
  double nugget;
  double scale;
  double shape;
  double weighted_sse;
};

GoldenRow row_of(const k::FitResult& fit) {
  const k::VariogramModel& m = fit.model;
  return {m.family, m.nugget, m.scale, m.shape, fit.weighted_sse};
}

void expect_row(const k::FitResult& fit, const GoldenRow& want) {
  const GoldenRow got = row_of(fit);
  SCOPED_TRACE(k::family_name(want.family));
  EXPECT_EQ(got.family, want.family);
  EXPECT_EQ(got.nugget, want.nugget);
  EXPECT_EQ(got.scale, want.scale);
  EXPECT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.weighted_sse, want.weighted_sse);
}

/// fit_all's whole ascending-SSE order, and fit_best as its head.
void expect_golden(int which, const std::vector<GoldenRow>& want) {
  const auto ev = golden_variogram(which);
  const auto all = k::fit_all(ev);
  ASSERT_EQ(all.size(), want.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE("fit_all[" + std::to_string(i) + "]");
    expect_row(all[i], want[i]);
  }
  SCOPED_TRACE("fit_best");
  expect_row(k::fit_best(ev), want.front());
}

using F = k::ModelFamily;

TEST(GoldenFit, SqrtProfileL1) {
  expect_golden(0, {
      {F::kGaussian, 0x0p+0, 0x1.24439b8f4bbadp+4,
       0x1.5p+5, 0x1.6060c2119a38cp+2},
      {F::kPower, 0x0p+0, 0x1.6f1195a9d2ebap-5,
       0x1.ccccccccccccdp+0, 0x1.6da2ff4a0b215p+2},
      {F::kLinear, 0x0p+0, 0x1.010ee16af3e4fp-2,
       0x0p+0, 0x1.359dbe57d326fp+5},
      {F::kSpherical, 0x0p+0, 0x1.c7d1063eced2ap+2,
       0x1.5p+5, 0x1.45b6e47d15d28p+5},
      {F::kExponential, 0x0p+0, 0x1.2153fbfc1607p+2,
       0x1.5p+5, 0x1.da033700dede8p+5},
  });
}

TEST(GoldenFit, QuadraticProfileL1) {
  expect_golden(1, {
      {F::kPower, 0x0p+0, 0x1.eab91b8e1496cp-1,
       0x1.ccccccccccccdp+0, 0x1.72dc6c8862602p+2},
      {F::kGaussian, 0x1.2cca608c510cp-2, 0x1.f5b527e66fd46p+7,
       0x1.08p+5, 0x1.c39b3cf836f48p+2},
      {F::kLinear, 0x0p+0, 0x1.24a3d70a3d70bp+2,
       0x0p+0, 0x1.7104e3886594dp+11},
      {F::kSpherical, 0x0p+0, 0x1.984f3bc5db547p+6,
       0x1.08p+5, 0x1.8b2279789697dp+11},
      {F::kExponential, 0x0p+0, 0x1.05b9a895aac1fp+6,
       0x1.08p+5, 0x1.4a2387a858ca5p+12},
  });
}

TEST(GoldenFit, SaturatingFieldL1) {
  expect_golden(2, {
      {F::kExponential, 0x1.d4dab9be11628p-5, 0x1.89431be97c432p-8,
       0x1.582aaaaaaaaaap+4, 0x1.c54662ced3663p-2},
      {F::kSpherical, 0x1.e38fa25f5f3cp-5, 0x1.0141f08085919p-8,
       0x1.582aaaaaaaaaap+4, 0x1.c6999cdaad10ep-2},
      {F::kPower, 0x1.b907ae15fae44p-5, 0x1.9a447629dba69p-8,
       0x1.999999999999ap-4, 0x1.c81a4ca071bb6p-2},
      {F::kGaussian, 0x1.f28fad50153d9p-5, 0x1.c5843f0dd3e21p-10,
       0x1.582aaaaaaaaaap+4, 0x1.c87195e39854dp-2},
      {F::kLinear, 0x1.fc4d97bf70e3p-5, 0x0p+0,
       0x0p+0, 0x1.c92281a79817dp-2},
  });
}

TEST(GoldenFit, SphericalFieldL2) {
  expect_golden(3, {
      {F::kSpherical, 0x0p+0, 0x1.2a7f231cf86c7p+0,
       0x1.8bfad401b2967p+1, 0x1.2b8e14b4ad066p+7},
      {F::kGaussian, 0x1.19a23818da6fdp-2, 0x1.d363c2d033112p-1,
       0x1.8bfad401b2967p+1, 0x1.3ed02dc67eb7ap+7},
      {F::kExponential, 0x0p+0, 0x1.293255ef6b6f3p+0,
       0x1.8bfad401b2967p+1, 0x1.5935daf88b539p+7},
      {F::kPower, 0x1.68b201289562cp-7, 0x1.dec23d7f3adc1p-1,
       0x1.999999999999ap-4, 0x1.91eaf78512912p+7},
      {F::kLinear, 0x1.10a2b6786dccbp+0, 0x0p+0,
       0x0p+0, 0x1.98cbf8ea36093p+7},
  });
}

TEST(GoldenFit, PowerSweepRandomWalkL1) {
  expect_golden(4, {
      {F::kPower, 0x1.85c035e9533ddp-4, 0x1.d088e31267da1p-11,
       0x1.b333333333334p+0, 0x1.85b101080933bp+0},
      {F::kGaussian, 0x1.95b6e8740e17ep-4, 0x1.6dc86cf037abfp-1,
       0x1.26d5555555555p+6, 0x1.8600a7ca7ee97p+0},
      {F::kLinear, 0x1.11715145d4c95p-4, 0x1.16a5649928f3ep-7,
       0x0p+0, 0x1.96e980ccec95ep+0},
      {F::kSpherical, 0x1.0dd9ffe57613p-4, 0x1.021bfe8b24d71p-1,
       0x1.5cp+6, 0x1.992993b39b199p+0},
      {F::kExponential, 0x1.c3d2e92ddbfbdp-5, 0x1.6b50d0f452a66p-2,
       0x1.5cp+6, 0x1.afb913b10e1e2p+0},
  });
}

TEST(GoldenFit, TiltedPlaneL2) {
  expect_golden(5, {
      {F::kGaussian, 0x0p+0, 0x1.c18a076385026p+4,
       0x1.0f876ccdf6cdap+4, 0x1.2dabdb785dee9p+4},
      {F::kPower, 0x0p+0, 0x1.6859b54faa8cfp-2,
       0x1.ccccccccccccdp+0, 0x1.716d3e907091ep+4},
      {F::kLinear, 0x0p+0, 0x1.dd8d5c59359eep-1,
       0x0p+0, 0x1.bcf4f5e6cd7dep+7},
      {F::kSpherical, 0x0p+0, 0x1.5601261479fe4p+3,
       0x1.0f876ccdf6cdap+4, 0x1.d3320d9fb161ap+7},
      {F::kExponential, 0x0p+0, 0x1.b458389dcb73dp+2,
       0x1.0f876ccdf6cdap+4, 0x1.564f73bc87326p+8},
  });
}

}  // namespace
