// KrigingSystem: the library's one kriging solve path. It must agree with
// an independent dense reference solve of the full bordered system —
// weights and variance within 1e-10 — across random support sets, all
// three estimator kinds, the ridge-fallback path, the Lagrange/drift
// border, and coincident-point dedupe. The per-rung factor memo must
// answer like a fresh system, and per-estimator properties (exact
// interpolation, value-independent weights, zero-weight duplicates,
// translation invariance) hold for every kind. The RobustSolve
// cases pin what each rung of the ridge ladder reports on small systems
// known in closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kriging/system.hpp"
#include "kriging/variogram_model.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace {

namespace k = ace::kriging;

struct Instance {
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  std::vector<double> query;
};

Instance make_instance(std::size_t dim, std::size_t n, std::uint64_t seed) {
  ace::util::Rng rng(seed);
  Instance inst;
  while (inst.points.size() < n) {
    std::vector<double> p(dim);
    for (auto& x : p) x = rng.uniform_int(0, 9);
    if (std::find(inst.points.begin(), inst.points.end(), p) ==
        inst.points.end())
      inst.points.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < n; ++i)
    inst.values.push_back(rng.uniform(-10.0, 10.0));
  inst.query.resize(dim);
  for (auto& x : inst.query) x = rng.uniform(0.0, 9.0);
  return inst;
}

std::vector<k::SystemSpec> all_specs() {
  k::SystemSpec ordinary{k::SystemKind::kOrdinary, k::DriftKind::kConstant,
                         0.0, 0.0};
  k::SystemSpec simple{k::SystemKind::kSimple, k::DriftKind::kConstant, 25.0,
                       0.5};
  k::SystemSpec universal{k::SystemKind::kUniversal, k::DriftKind::kLinear,
                          0.0, 0.0};
  return {ordinary, simple, universal};
}

/// What one plain dense solve says about a system.
struct DenseSolve {
  bool regularized = true;  ///< Singular or unacceptable without a ridge.
  double estimate = 0.0;
  double variance = 0.0;
  std::vector<double> weights;
};

/// Independent reference: hand-assemble the full system for `spec` in
/// textbook form — the ones-border (ordinary), the covariance form
/// C(d) = max(sill − γ(d), 0) (simple), the [1, x] drift border
/// (universal, linear drift) — and solve it once with a pivoted LU. No
/// dedupe, no layouts, no ladder: a solve that is singular, non-finite or
/// beyond 1e6 in max-abs is reported as needing regularization. The
/// support must be distinct and, for a linear drift, hold at least
/// dim + 2 points.
DenseSolve dense_reference(const k::SystemSpec& spec, const Instance& inst,
                           const k::VariogramModel& model,
                           const k::DistanceFn& distance = k::l1_distance) {
  const bool simple = spec.kind == k::SystemKind::kSimple;
  const auto entry = [&](double d) {
    return simple ? std::max(spec.sill - model.gamma(d), 0.0)
                  : model.gamma(d);
  };
  const auto basis = [&](const std::vector<double>& x) {
    std::vector<double> f;
    if (simple) return f;
    f.push_back(1.0);
    if (spec.kind == k::SystemKind::kUniversal &&
        spec.drift == k::DriftKind::kLinear)
      f.insert(f.end(), x.begin(), x.end());
    return f;
  };
  const std::size_t n = inst.points.size();
  const std::vector<double> fq = basis(inst.query);
  const std::size_t m = n + fq.size();
  ace::linalg::Matrix a(m, m);
  ace::linalg::Vector rhs(m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = entry(distance(inst.points[i], inst.points[j]));
    const std::vector<double> fi = basis(inst.points[i]);
    for (std::size_t l = 0; l < fi.size(); ++l) {
      a(i, n + l) = fi[l];
      a(n + l, i) = fi[l];
    }
    rhs[i] = entry(distance(inst.query, inst.points[i]));
  }
  for (std::size_t l = 0; l < fq.size(); ++l) rhs[n + l] = fq[l];

  DenseSolve out;
  const ace::linalg::LuDecomposition lu(a);
  if (lu.singular()) return out;
  const ace::linalg::Vector x = lu.solve(rhs);
  for (std::size_t i = 0; i < m; ++i)
    if (!std::isfinite(x[i]) || std::abs(x[i]) > 1e6) return out;
  out.regularized = false;
  double estimate = simple ? spec.mean : 0.0;
  double variance = simple ? entry(0.0) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.weights.push_back(x[i]);
    if (simple) {
      estimate += x[i] * (inst.values[i] - spec.mean);
      variance -= x[i] * rhs[i];
    } else {
      estimate += x[i] * inst.values[i];
      variance += x[i] * rhs[i];
    }
  }
  for (std::size_t l = 0; l < fq.size(); ++l) variance += x[n + l] * fq[l];
  out.estimate = estimate;
  out.variance = std::max(variance, 0.0);
  return out;
}

void expect_matches_reference(
    const k::SystemSpec& spec, const Instance& inst,
    const k::VariogramModel& model,
    const k::DistanceFn& distance = k::l1_distance) {
  k::KrigingSystem sys(spec, inst.points, inst.values, model, distance);
  const auto got = sys.query(inst.query);
  const DenseSolve expect = dense_reference(spec, inst, model, distance);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->regularized, expect.regularized);
  if (got->regularized || expect.regularized) return;
  EXPECT_NEAR(got->estimate, expect.estimate, 1e-10);
  EXPECT_NEAR(got->variance, expect.variance, 1e-10);
  ASSERT_EQ(got->weights.size(), expect.weights.size());
  for (std::size_t i = 0; i < expect.weights.size(); ++i)
    EXPECT_NEAR(got->weights[i], expect.weights[i], 1e-10) << "weight " << i;
}

TEST(KrigingSystem, MatchesDenseReferenceSolve) {
  const k::SphericalVariogram spherical(0.1, 2.0, 8.0);
  const k::ExponentialVariogram exponential(0.0, 1.5, 6.0);
  const k::GaussianVariogram gaussian(0.05, 3.0, 7.0);
  const std::vector<const k::VariogramModel*> models = {
      &spherical, &exponential, &gaussian};
  std::uint64_t seed = 100;
  for (std::size_t dim = 1; dim <= 3; ++dim) {
    for (std::size_t n = dim + 2; n <= 8; n += 2) {
      const auto inst = make_instance(dim, n, ++seed);
      for (const auto* model : models)
        for (const auto& spec : all_specs()) {
          SCOPED_TRACE(::testing::Message()
                       << "dim " << dim << " n " << n << " model "
                       << model->name() << " kind "
                       << static_cast<int>(spec.kind));
          expect_matches_reference(spec, inst, *model);
        }
    }
  }
}

// Two support points 1e-9 apart under a nugget-free Gaussian variogram
// (smooth at the origin, so the condition number grows like 1/δ²): the
// plain solve is singular or blows past the 1e6 acceptability bound on
// both paths, so both must report the ridge fallback.
TEST(KrigingSystem, MatchesDenseReferenceOnNearSingularSystem) {
  const k::GaussianVariogram model(0.0, 1.0, 4.0);
  Instance inst;
  inst.points = {{0.0, 0.0}, {1e-9, 0.0}, {3.0, 1.0}, {1.0, 4.0}};
  inst.values = {1.0, 1.5, -2.0, 3.0};
  inst.query = {2.0, 2.0};
  for (const auto& spec : all_specs()) {
    SCOPED_TRACE(::testing::Message()
                 << "kind " << static_cast<int>(spec.kind));
    EXPECT_TRUE(dense_reference(spec, inst, model).regularized);
    expect_matches_reference(spec, inst, model);
  }
}

// Unbiasedness survives the border: ordinary/universal weights sum to 1
// (the Lagrange/drift border enforces it exactly).
TEST(KrigingSystem, BorderKeepsWeightsUnbiased) {
  const k::SphericalVariogram model(0.0, 1.0, 5.0);
  for (const auto kind :
       {k::SystemKind::kOrdinary, k::SystemKind::kUniversal}) {
    const auto inst = make_instance(2, 7, 42);
    k::KrigingSystem sys({kind, k::DriftKind::kLinear}, inst.points,
                         inst.values, model);
    const auto r = sys.query(inst.query);
    ASSERT_TRUE(r);
    double sum = 0.0;
    for (double w : r->weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-8);
  }
}

TEST(KrigingSystem, CoincidentSupportIsDeduplicated) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 5, 21);
  // Duplicate two points (same value: the duplicate carries no new info).
  auto points = inst.points;
  auto values = inst.values;
  points.push_back(points[1]);
  values.push_back(values[1]);
  points.insert(points.begin() + 3, points[0]);
  values.insert(values.begin() + 3, values[0]);

  k::KrigingSystem sys({k::SystemKind::kOrdinary}, points, values, model);
  EXPECT_EQ(sys.support_size(), 7u);
  EXPECT_EQ(sys.unique_size(), 5u);

  const auto got = sys.query(inst.query);
  const auto expect = k::KrigingSystem({k::SystemKind::kOrdinary}, inst.points,
                                       inst.values, model)
                          .query(inst.query);
  ASSERT_TRUE(got && expect);
  EXPECT_EQ(got->estimate, expect->estimate);
  ASSERT_EQ(got->weights.size(), 7u);
  EXPECT_EQ(got->weights[3], 0.0);  // duplicate of points[0]
  EXPECT_EQ(got->weights[6], 0.0);  // duplicate of points[1]
}

// Repeated queries against one support set reuse the factorization.
TEST(KrigingSystem, FactorIsReusedAcrossQueries) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 6, 33);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, inst.points, inst.values,
                       model);
  ASSERT_TRUE(sys.query(inst.query));
  const std::size_t after_first = sys.stats().full_factorizations;
  EXPECT_GE(after_first, 1u);
  std::vector<double> q2 = inst.query;
  q2[0] += 0.5;
  ASSERT_TRUE(sys.query(q2));
  EXPECT_EQ(sys.stats().full_factorizations, after_first);
  EXPECT_EQ(sys.stats().solves, 2u);
}

// Every factor memo answers like a fresh system: one system fed several
// queries, and one fed the LOO report first, must agree bit for bit with
// a system built for each query alone.
TEST(KrigingSystem, LooReusesTheQueryFactor) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  const auto inst = make_instance(2, 6, 34);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, inst.points, inst.values,
                       model);
  ASSERT_TRUE(sys.loo_residuals());
  EXPECT_EQ(sys.stats().full_factorizations, 1u);
  const auto got = sys.query(inst.query);
  EXPECT_EQ(sys.stats().full_factorizations, 1u);
  const auto fresh = k::KrigingSystem({k::SystemKind::kOrdinary}, inst.points,
                                      inst.values, model)
                         .query(inst.query);
  ASSERT_TRUE(got && fresh);
  EXPECT_EQ(got->estimate, fresh->estimate);
  EXPECT_EQ(got->variance, fresh->variance);
  EXPECT_EQ(got->weights, fresh->weights);
}

TEST(KrigingSystem, UniversalDriftDegradesOnTinySupport) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  // 3 points in 2-D: fewer than dim + 2, so the drift degrades to the
  // constant border — the very system ordinary kriging assembles.
  const auto inst = make_instance(2, 3, 55);
  k::KrigingSystem sys({k::SystemKind::kUniversal, k::DriftKind::kLinear},
                       inst.points, inst.values, model);
  const auto got = sys.query(inst.query);
  const auto expect = k::KrigingSystem({k::SystemKind::kOrdinary}, inst.points,
                                       inst.values, model)
                          .query(inst.query);
  ASSERT_EQ(got.has_value(), expect.has_value());
  ASSERT_TRUE(got);
  EXPECT_EQ(got->estimate, expect->estimate);
}

// --- the ridge-fallback ladder, rung by rung ------------------------------
//
// Each case assembles a small system whose matrix is known in closed form
// and checks what the ladder reports for it: no ridge on a regular
// system, a ridge (scaled to the matrix) on a singular one, a border left
// unshifted, and nullopt when no rung can help.

// Two support points beyond the range under simple kriging: C = 2·I, a
// regular diagonal system the plain rung solves exactly.
TEST(RobustSolve, PlainSolveNeedsNoRegularization) {
  const k::SphericalVariogram model(0.0, 2.0, 1.0);
  k::KrigingSystem sys({k::SystemKind::kSimple, k::DriftKind::kConstant, 2.0,
                        0.0},
                       {{0.0}, {5.0}}, {1.0, 3.0}, model);
  // c_q = [C(0.5), 0] = [2 − γ(0.5), 0], so w = [1 − γ(0.5)/2, 0].
  const auto r = sys.query({0.5});
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->regularized);
  EXPECT_EQ(r->ridge, 0.0);
  EXPECT_GT(r->rcond, 0.0);
  EXPECT_NEAR(r->weights[0], 1.0 - model.gamma(0.5) / 2.0, 1e-12);
  EXPECT_NEAR(r->weights[1], 0.0, 1e-12);
}

// The all-zero variogram under simple kriging gives C = J (rank 1) and
// c_q = 1: the plain rung is singular and a ridge rescues it.
TEST(RobustSolve, RidgeRescuesSingularSystem) {
  const k::LinearVariogram flat(0.0, 0.0);
  k::KrigingSystem sys({k::SystemKind::kSimple, k::DriftKind::kConstant, 1.0,
                        0.0},
                       {{0.0}, {1.0}}, {2.0, 2.0}, flat);
  const auto r = sys.query({0.5});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->regularized);
  EXPECT_GT(r->ridge, 0.0);
  // The regularized solution distributes the weight evenly.
  EXPECT_NEAR(r->weights[0], r->weights[1], 1e-9);
  EXPECT_NEAR(r->weights[0] + r->weights[1], 1.0, 1e-4);
}

// Ordinary kriging under the all-zero variogram assembles exactly
// [[0 0 1] [0 0 1] [1 1 0]]: the core is all zero, and the Lagrange border
// must stay intact so Σ weights = 1 is still enforced.
TEST(RobustSolve, BorderRowsAreNotRegularized) {
  const k::LinearVariogram flat(0.0, 0.0);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, {{0.0}, {1.0}},
                       {0.0, 0.0}, flat);
  const auto r = sys.query({0.5});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->regularized);
  // Weights must sum to ~1 (the border constraint).
  EXPECT_NEAR(r->weights[0] + r->weights[1], 1.0, 1e-6);
  // Symmetric system: equal weights.
  EXPECT_NEAR(r->weights[0], 0.5, 1e-6);
}

// A linear drift over support that never leaves the line y = 0: the
// drift column for y is all zero, so a border row is all zero and no
// ridge on the core can make the system regular.
TEST(RobustSolve, GivesUpOnHopelessSystem) {
  const k::SphericalVariogram model(0.0, 1.0, 5.0);
  k::KrigingSystem sys({k::SystemKind::kUniversal, k::DriftKind::kLinear},
                       {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}},
                       {1.0, 2.0, 3.0, 4.0}, model);
  EXPECT_FALSE(sys.query({1.5, 0.0}).has_value());
  EXPECT_FALSE(sys.query({0.5, 1.0}).has_value());
}

// C = 100·J: the first ridge rung is 1e-10 times max |A| = 100.
TEST(RobustSolve, ReportsRidgeMagnitudeScaledToMatrix) {
  const k::LinearVariogram flat(0.0, 0.0);
  k::KrigingSystem sys({k::SystemKind::kSimple, k::DriftKind::kConstant,
                        100.0, 0.0},
                       {{0.0}, {1.0}}, {200.0, 200.0}, flat);
  const auto r = sys.query({0.5});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->regularized);
  EXPECT_GE(r->ridge, 1e-10 * 100.0);  // Scaled by max |a|.
}

// The all-zero variogram makes every Γ entry 0: the plain rung is
// singular and the ladder must climb to a ridge. The answer must be the
// solve of the hand-assembled matrix at exactly the reported shift.
TEST(KrigingSystem, RidgeFallbackPathMatchesScratch) {
  const k::LinearVariogram flat(0.0, 0.0);
  const auto inst = make_instance(2, 5, 7);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, inst.points, inst.values,
                       flat);
  const auto r = sys.query(inst.query);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->regularized);
  // First rung: 1e-10 times max(|A|, 1) = 1 for the ones-bordered matrix.
  EXPECT_EQ(r->ridge, 1e-10);

  const std::size_t n = inst.points.size();
  ace::linalg::Matrix a(n + 1, n + 1);
  ace::linalg::Vector rhs(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = r->ridge;
    a(i, n) = 1.0;
    a(n, i) = 1.0;
  }
  rhs[n] = 1.0;
  const ace::linalg::Vector x = ace::linalg::LuDecomposition(a).solve(rhs);
  double estimate = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r->weights[i], x[i], 1e-12) << "weight " << i;
    estimate += x[i] * inst.values[i];
  }
  EXPECT_NEAR(r->estimate, estimate, 1e-12);
}

// One factor build per ladder rung tried, memoized for every later query:
// the singular plain rung is remembered, not refactored.
TEST(KrigingSystem, FactorCountsOneBuildPerLadderRung) {
  const k::LinearVariogram flat(0.0, 0.0);
  const auto inst = make_instance(2, 5, 8);
  k::KrigingSystem sys({k::SystemKind::kOrdinary}, inst.points, inst.values,
                       flat);
  const auto first = sys.query(inst.query);
  ASSERT_TRUE(first && first->regularized);
  EXPECT_EQ(sys.stats().full_factorizations, 2u);  // plain + first rung
  std::vector<double> q2 = inst.query;
  q2[1] += 1.0;
  const auto second = sys.query(q2);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->ridge, first->ridge);
  EXPECT_EQ(sys.stats().full_factorizations, 2u);
  EXPECT_EQ(sys.stats().solves, 2u);
}

// --- per-estimator properties ----------------------------------------------
//
// Each case runs once per estimator kind (ordinary, simple, universal with
// a linear drift) on a regular 7-point support in 2-D.

class KrigingSystemKindTest : public ::testing::TestWithParam<k::SystemSpec> {
 protected:
  const k::SphericalVariogram model_{0.0, 2.0, 8.0};
  const Instance inst_ = make_instance(2, 7, 77);

  k::KrigingSystem make(const std::vector<std::vector<double>>& points,
                        const std::vector<double>& values) const {
    return k::KrigingSystem(GetParam(), points, values, model_);
  }
};

std::string kind_name(const ::testing::TestParamInfo<k::SystemSpec>& info) {
  switch (info.param.kind) {
    case k::SystemKind::kOrdinary:
      return "Ordinary";
    case k::SystemKind::kSimple:
      return "Simple";
    case k::SystemKind::kUniversal:
      return "Universal";
  }
  return "Unknown";
}

TEST_P(KrigingSystemKindTest, InterpolatesSupportExactly) {
  k::KrigingSystem sys = make(inst_.points, inst_.values);
  for (std::size_t i = 0; i < inst_.points.size(); ++i) {
    const auto r = sys.query(inst_.points[i]);
    ASSERT_TRUE(r) << "support " << i;
    EXPECT_FALSE(r->regularized) << "support " << i;
    EXPECT_NEAR(r->estimate, inst_.values[i], 1e-8) << "support " << i;
    EXPECT_NEAR(r->variance, 0.0, 1e-8) << "support " << i;
    EXPECT_NEAR(r->weights[i], 1.0, 1e-8) << "support " << i;
  }
}

TEST_P(KrigingSystemKindTest, WeightsDoNotDependOnValues) {
  std::vector<double> other = inst_.values;
  for (double& v : other) v = 3.0 * v - 7.0;
  const auto a = make(inst_.points, inst_.values).query(inst_.query);
  const auto b = make(inst_.points, other).query(inst_.query);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->weights, b->weights);
  EXPECT_EQ(a->variance, b->variance);
  EXPECT_EQ(a->ridge, b->ridge);
}

TEST_P(KrigingSystemKindTest, DuplicateSlotsCarryZeroWeight) {
  auto points = inst_.points;
  auto values = inst_.values;
  points.push_back(points[2]);
  values.push_back(values[2]);
  k::KrigingSystem sys = make(points, values);
  EXPECT_EQ(sys.support_size(), 8u);
  EXPECT_EQ(sys.unique_size(), 7u);
  const auto got = sys.query(inst_.query);
  const auto expect = make(inst_.points, inst_.values).query(inst_.query);
  ASSERT_TRUE(got && expect);
  EXPECT_EQ(got->estimate, expect->estimate);
  EXPECT_EQ(got->variance, expect->variance);
  ASSERT_EQ(got->weights.size(), 8u);
  EXPECT_EQ(got->weights.back(), 0.0);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(got->weights[i], expect->weights[i]) << "weight " << i;
}

TEST_P(KrigingSystemKindTest, FactorIsReusedAcrossQueries) {
  k::KrigingSystem sys = make(inst_.points, inst_.values);
  ASSERT_TRUE(sys.query(inst_.query));
  const std::size_t after_first = sys.stats().full_factorizations;
  EXPECT_EQ(after_first, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> q = inst_.query;
    q[i % 2] += 0.5 * static_cast<double>(i + 1);
    ASSERT_TRUE(sys.query(q));
  }
  EXPECT_EQ(sys.stats().full_factorizations, after_first);
  EXPECT_EQ(sys.stats().solves, 4u);
}

// L1 distances and the constant/linear drift are translation-invariant,
// so moving support and query together leaves the estimator unchanged.
TEST_P(KrigingSystemKindTest, TranslationLeavesTheEstimatorUnchanged) {
  const std::vector<double> offset = {3.0, -2.0};
  auto moved = inst_.points;
  for (auto& p : moved)
    for (std::size_t d = 0; d < p.size(); ++d) p[d] += offset[d];
  std::vector<double> q = inst_.query;
  for (std::size_t d = 0; d < q.size(); ++d) q[d] += offset[d];
  const auto a = make(inst_.points, inst_.values).query(inst_.query);
  const auto b = make(moved, inst_.values).query(q);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(a->estimate, b->estimate, 1e-9);
  EXPECT_NEAR(a->variance, b->variance, 1e-9);
  for (std::size_t i = 0; i < a->weights.size(); ++i)
    EXPECT_NEAR(a->weights[i], b->weights[i], 1e-9) << "weight " << i;
}

TEST_P(KrigingSystemKindTest, VarianceGrowsAwayFromSupport) {
  k::KrigingSystem sys = make(inst_.points, inst_.values);
  const auto at_support = sys.query(inst_.points[0]);
  const auto far = sys.query({40.0, 40.0});
  ASSERT_TRUE(at_support && far);
  EXPECT_GE(at_support->variance, 0.0);
  EXPECT_GT(far->variance, 0.1);
  EXPECT_GT(far->variance, at_support->variance);
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, KrigingSystemKindTest,
                         ::testing::ValuesIn(all_specs()), kind_name);

void expect_same_result(const std::optional<k::KrigingResult>& a,
                        const std::optional<k::KrigingResult>& b,
                        std::size_t i) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "query " << i;
  if (!a) return;
  EXPECT_EQ(a->estimate, b->estimate) << "query " << i;
  EXPECT_EQ(a->variance, b->variance) << "query " << i;
  EXPECT_EQ(a->regularized, b->regularized) << "query " << i;
  EXPECT_EQ(a->ridge, b->ridge) << "query " << i;
  EXPECT_EQ(a->rcond, b->rcond) << "query " << i;
  ASSERT_EQ(a->weights.size(), b->weights.size()) << "query " << i;
  for (std::size_t w = 0; w < a->weights.size(); ++w)
    EXPECT_EQ(a->weights[w], b->weights[w]) << "query " << i << " w" << w;
}

/// Random integer-lattice support in `dim` dimensions plus real-valued
/// queries over the same box.
struct KrigingCase {
  std::vector<std::vector<double>> points;
  std::vector<double> values;
  std::vector<std::vector<double>> queries;
};

KrigingCase make_kriging_case(std::uint64_t seed, std::size_t support,
                              std::size_t dim, std::size_t nq) {
  ace::util::Rng rng(seed);
  KrigingCase c;
  for (std::size_t i = 0; i < support; ++i) {
    std::vector<double> p(dim);
    for (auto& x : p) x = static_cast<double>(rng.uniform_int(0, 10));
    c.points.push_back(std::move(p));
    c.values.push_back(rng.uniform(-60.0, -20.0));
  }
  for (std::size_t q = 0; q < nq; ++q) {
    std::vector<double> x(dim);
    for (auto& v : x) v = rng.uniform(0.0, 10.0);
    c.queries.push_back(std::move(x));
  }
  return c;
}

k::KrigingSystem make_system(const KrigingCase& c,
                             const k::VariogramModel& model,
                             k::DistanceFn distance = k::l1_distance) {
  return k::KrigingSystem(k::SystemSpec{k::SystemKind::kOrdinary}, c.points,
                          c.values, model, std::move(distance));
}

// One system answering a stream of queries from its memoized factor must
// agree exactly with a fresh system per query, for both built-in
// distances.
TEST(FactorReuse, MatchesFreshSystemsExactly) {
  const k::SphericalVariogram model(0.0, 10.0, 12.0);
  const KrigingCase c = make_kriging_case(51, 12, 6, 24);
  for (const auto& distance : {k::DistanceFn(k::l1_distance),
                               k::DistanceFn(k::l2_distance)}) {
    k::KrigingSystem reused = make_system(c, model, distance);
    for (std::size_t i = 0; i < c.queries.size(); ++i)
      expect_same_result(reused.query(c.queries[i]),
                         make_system(c, model, distance).query(c.queries[i]),
                         i);
    EXPECT_EQ(reused.stats().solves, c.queries.size());
  }
}

// The flat variogram makes the plain rung singular: the reused system
// must climb to the same rung and answer exactly as a fresh one does.
TEST(FactorReuse, MatchesFreshSystemsOnRidgeLadderPath) {
  const k::LinearVariogram flat(0.0, 0.0);
  const KrigingCase c = make_kriging_case(52, 5, 2, 6);
  k::KrigingSystem reused = make_system(c, flat);
  for (std::size_t i = 0; i < c.queries.size(); ++i) {
    const auto got = reused.query(c.queries[i]);
    ASSERT_TRUE(got);
    EXPECT_TRUE(got->regularized);
    expect_same_result(got, make_system(c, flat).query(c.queries[i]), i);
  }
}

TEST(FactorReuse, QueryOrderDoesNotChangeAnswers) {
  const k::ExponentialVariogram model(0.05, 1.5, 6.0);
  const KrigingCase c = make_kriging_case(53, 9, 3, 12);
  k::KrigingSystem forward = make_system(c, model);
  k::KrigingSystem backward = make_system(c, model);
  std::vector<std::optional<k::KrigingResult>> back(c.queries.size());
  for (std::size_t i = c.queries.size(); i-- > 0;)
    back[i] = backward.query(c.queries[i]);
  for (std::size_t i = 0; i < c.queries.size(); ++i)
    expect_same_result(forward.query(c.queries[i]), back[i], i);
}

// The per-pair assembly is the only distance path: an L2 system must
// match the dense reference assembled with l2_distance, for every
// estimator kind, just as the L1 systems above do.
TEST(KrigingAssembly, L2DistanceMatchesDenseReferenceSolve) {
  const k::SphericalVariogram spherical(0.1, 2.0, 8.0);
  const k::GaussianVariogram gaussian(0.05, 3.0, 7.0);
  std::uint64_t seed = 300;
  for (std::size_t dim = 1; dim <= 4; ++dim) {
    for (std::size_t n = dim + 2; n <= 9; n += 3) {
      const auto inst = make_instance(dim, n, ++seed);
      for (const k::VariogramModel* model :
           {static_cast<const k::VariogramModel*>(&spherical),
            static_cast<const k::VariogramModel*>(&gaussian)})
        for (const auto& spec : all_specs()) {
          SCOPED_TRACE(::testing::Message()
                       << "dim " << dim << " n " << n << " model "
                       << model->name() << " kind "
                       << static_cast<int>(spec.kind));
          expect_matches_reference(spec, inst, *model, k::l2_distance);
        }
    }
  }
}

// Built-in and user-supplied distances take the same assembly: a
// DistanceFn that merely wraps l1_distance / l2_distance answers bit for
// bit like the helper itself.
TEST(KrigingAssembly, WrappedDistanceMatchesBuiltInBitExactly) {
  const k::GaussianVariogram model(0.05, 3.0, 9.0);
  const KrigingCase c = make_kriging_case(54, 10, 5, 8);
  const k::DistanceFn wrapped_l1 = [](const std::vector<double>& a,
                                      const std::vector<double>& b) {
    return k::l1_distance(a, b);
  };
  const k::DistanceFn wrapped_l2 = [](const std::vector<double>& a,
                                      const std::vector<double>& b) {
    return k::l2_distance(a, b);
  };
  for (const auto& [builtin, wrapped] :
       {std::pair{k::DistanceFn(k::l1_distance), wrapped_l1},
        std::pair{k::DistanceFn(k::l2_distance), wrapped_l2}}) {
    k::KrigingSystem a = make_system(c, model, builtin);
    k::KrigingSystem b = make_system(c, model, wrapped);
    for (std::size_t i = 0; i < c.queries.size(); ++i)
      expect_same_result(a.query(c.queries[i]), b.query(c.queries[i]), i);
  }
}

TEST(KrigingSystem, ValidatesInput) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary}, {}, {}, model),
               std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary}, {{1.0, 2.0}},
                                {1.0, 2.0}, model),
               std::invalid_argument);
  EXPECT_THROW(k::KrigingSystem({k::SystemKind::kOrdinary},
                                {{1.0, 2.0}, {1.0}}, {1.0, 2.0}, model),
               std::invalid_argument);
  EXPECT_THROW(
      k::KrigingSystem({k::SystemKind::kSimple, k::DriftKind::kConstant, 0.0,
                        0.0},
                       {{1.0}}, {1.0}, model),
      std::invalid_argument);
}

}  // namespace
