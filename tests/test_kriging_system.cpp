// KrigingSystem: the library's one kriging solve path. Two properties are
// at stake: the all-in-base system agrees with an independent dense
// reference solve of the full bordered system, and a system grown or
// shrunk incrementally answers queries like a system built from scratch
// on the same support — weights and variance within 1e-10 — across random
// support sets, all three estimator kinds, the ridge-fallback path, the
// Lagrange/drift border, and coincident-point dedupe. The RobustSolve
// cases pin what each rung of the ridge ladder reports on small systems
// known in closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
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

void expect_same_result(const std::optional<k::KrigingResult>& a,
                        const std::optional<k::KrigingResult>& b,
                        double tol) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_NEAR(a->estimate, b->estimate, tol);
  EXPECT_NEAR(a->variance, b->variance, tol);
  EXPECT_EQ(a->regularized, b->regularized);
  ASSERT_EQ(a->weights.size(), b->weights.size());
  for (std::size_t i = 0; i < a->weights.size(); ++i)
    EXPECT_NEAR(a->weights[i], b->weights[i], tol) << "weight " << i;
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
                           const k::VariogramModel& model) {
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
      a(i, j) = entry(k::l1_distance(inst.points[i], inst.points[j]));
    const std::vector<double> fi = basis(inst.points[i]);
    for (std::size_t l = 0; l < fi.size(); ++l) {
      a(i, n + l) = fi[l];
      a(n + l, i) = fi[l];
    }
    rhs[i] = entry(k::l1_distance(inst.query, inst.points[i]));
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

void expect_matches_reference(const k::SystemSpec& spec, const Instance& inst,
                              const k::VariogramModel& model) {
  k::KrigingSystem sys(spec, inst.points, inst.values, model);
  const auto got = sys.query(inst.query);
  const DenseSolve expect = dense_reference(spec, inst, model);
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

// The property test proper: grow a kIncremental system point by point and
// compare every intermediate state against a from-scratch system on the
// same prefix, for every estimator kind.
TEST(KrigingSystem, IncrementalExtendMatchesScratchAcrossEstimators) {
  const k::ExponentialVariogram model(0.05, 1.5, 6.0);
  for (const auto& spec : all_specs()) {
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
      const auto inst = make_instance(2, 8, seed);
      const std::size_t start = 3;
      k::KrigingSystem grown(
          spec,
          {inst.points.begin(), inst.points.begin() + start},
          {inst.values.begin(), inst.values.begin() + start}, model,
          k::l1_distance, k::KrigingSystem::Layout::kIncremental);
      for (std::size_t n = start; n <= inst.points.size(); ++n) {
        if (n > start)
          grown.append_point(inst.points[n - 1], inst.values[n - 1]);
        k::KrigingSystem scratch(
            spec, {inst.points.begin(), inst.points.begin() + n},
            {inst.values.begin(), inst.values.begin() + n}, model);
        expect_same_result(grown.query(inst.query),
                           scratch.query(inst.query), 1e-10);
      }
    }
  }
}

TEST(KrigingSystem, DowndateMatchesScratchAcrossEstimators) {
  const k::SphericalVariogram model(0.1, 2.0, 8.0);
  for (const auto& spec : all_specs()) {
    const auto inst = make_instance(2, 8, 99);
    k::KrigingSystem sys(spec, inst.points, inst.values, model,
                         k::l1_distance,
                         k::KrigingSystem::Layout::kIncremental);
    // Remove two removable slots (from the back, where appended rows live).
    std::vector<std::vector<double>> points = inst.points;
    std::vector<double> values = inst.values;
    std::size_t removed = 0;
    for (std::size_t slot = sys.support_size(); slot-- > 0 && removed < 2;) {
      if (!sys.removable(slot)) continue;
      ASSERT_TRUE(sys.remove_point(slot));
      points.erase(points.begin() + static_cast<std::ptrdiff_t>(slot));
      values.erase(values.begin() + static_cast<std::ptrdiff_t>(slot));
      ++removed;
      k::KrigingSystem scratch(spec, points, values, model);
      expect_same_result(sys.query(inst.query), scratch.query(inst.query),
                         1e-10);
    }
    EXPECT_EQ(removed, 2u);
  }
}

// The all-zero variogram makes every Γ entry 0: the plain rung is
// singular and the ladder must climb to a ridge — on the incremental
// path exactly as on the direct one.
TEST(KrigingSystem, RidgeFallbackPathMatchesScratch) {
  const k::LinearVariogram flat(0.0, 0.0);
  const auto inst = make_instance(2, 5, 7);
  k::KrigingSystem grown(
      {k::SystemKind::kOrdinary}, {inst.points.begin(), inst.points.begin() + 3},
      {inst.values.begin(), inst.values.begin() + 3}, flat, k::l1_distance,
      k::KrigingSystem::Layout::kIncremental);
  grown.append_point(inst.points[3], inst.values[3]);
  grown.append_point(inst.points[4], inst.values[4]);
  k::KrigingSystem scratch({k::SystemKind::kOrdinary}, inst.points,
                           inst.values, flat);
  const auto a = grown.query(inst.query);
  const auto b = scratch.query(inst.query);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(a->regularized);
  EXPECT_TRUE(b->regularized);
  EXPECT_EQ(a->ridge, b->ridge);  // same ladder rung, bit-equal shift
  EXPECT_NEAR(a->estimate, b->estimate, 1e-10);
  for (std::size_t i = 0; i < a->weights.size(); ++i)
    EXPECT_NEAR(a->weights[i], b->weights[i], 1e-10);
}

// Unbiasedness survives the border on both layouts: ordinary/universal
// weights sum to 1 (the Lagrange/drift border enforces it exactly).
TEST(KrigingSystem, BorderKeepsWeightsUnbiased) {
  const k::SphericalVariogram model(0.0, 1.0, 5.0);
  for (const auto layout : {k::KrigingSystem::Layout::kAllInBase,
                            k::KrigingSystem::Layout::kIncremental}) {
    for (const auto kind :
         {k::SystemKind::kOrdinary, k::SystemKind::kUniversal}) {
      const auto inst = make_instance(2, 7, 42);
      k::KrigingSystem sys({kind, k::DriftKind::kLinear}, inst.points,
                           inst.values, model, k::l1_distance, layout);
      const auto r = sys.query(inst.query);
      ASSERT_TRUE(r);
      double sum = 0.0;
      for (double w : r->weights) sum += w;
      EXPECT_NEAR(sum, 1.0, 1e-8);
    }
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

  // Appending another coincident point is a zero-weight slot, not a
  // support change.
  sys.append_point(inst.points[2], inst.values[2]);
  EXPECT_EQ(sys.unique_size(), 5u);
  const auto again = sys.query(inst.query);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->estimate, expect->estimate);
  EXPECT_EQ(again->weights.back(), 0.0);
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
  const auto batch = sys.query_batch({{1.5, 0.0}, {0.5, 1.0}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].has_value());
  EXPECT_FALSE(batch[1].has_value());
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
