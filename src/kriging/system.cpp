#include "kriging/system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contract.hpp"

namespace ace::kriging {

namespace {

constexpr double kInitialRidge = 1e-10;
constexpr double kMaxRidge = 1e-2;
constexpr double kMaxSolutionNorm = 1e6;

/// Ladder acceptability test: finite and norm-bounded.
bool acceptable(const linalg::Vector& x) {
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!std::isfinite(x[i]) || std::abs(x[i]) > kMaxSolutionNorm)
      return false;
  return true;
}

}  // namespace

KrigingSystem::KrigingSystem(SystemSpec spec,
                             std::vector<std::vector<double>> support_points,
                             std::vector<double> support_values,
                             const VariogramModel& model, DistanceFn distance)
    : spec_(spec), model_(model), distance_(std::move(distance)) {
  if (support_points.empty())
    throw std::invalid_argument("KrigingSystem: empty support set");
  if (support_points.size() != support_values.size())
    throw std::invalid_argument("KrigingSystem: points/values mismatch");
  dim_ = support_points.front().size();
  for (const auto& p : support_points)
    if (p.size() != dim_)
      throw std::invalid_argument("KrigingSystem: ragged support set");
  if (spec_.kind == SystemKind::kSimple &&
      (spec_.sill <= 0.0 || !std::isfinite(spec_.sill)))
    throw std::invalid_argument("KrigingSystem: sill must be positive");
  if (spec_.noise_nugget < 0.0 || !std::isfinite(spec_.noise_nugget))
    throw std::invalid_argument(
        "KrigingSystem: noise nugget must be finite and non-negative");

  // Dedupe coincident support points: duplicates make the variogram block
  // rank deficient (two identical rows), which used to push every solve
  // into the ridge fallback. The first occurrence carries the weight;
  // later copies become zero-weight slots.
  for (std::size_t s = 0; s < support_points.size(); ++s) {
    auto& p = support_points[s];
    std::size_t u = points_.size();
    for (std::size_t i = 0; i < points_.size(); ++i)
      if (points_[i] == p) {
        u = i;
        break;
      }
    if (u == points_.size()) {
      points_.push_back(std::move(p));
      values_.push_back(support_values[s]);
      slots_.push_back({u, true});
    } else {
      slots_.push_back({u, false});
    }
  }
  init_border();
}

void KrigingSystem::distances_to(const std::vector<double>& x,
                                 std::size_t first, double* out) const {
  for (std::size_t k = first; k < points_.size(); ++k)
    out[k - first] = distance_(x, points_[k]);
}

void KrigingSystem::init_border() {
  effective_drift_ = spec_.drift;
  switch (spec_.kind) {
    case SystemKind::kOrdinary:
      border_ = 1;
      break;
    case SystemKind::kSimple:
      border_ = 0;
      break;
    case SystemKind::kUniversal:
      // A linear drift adds dim + 1 constraints; identifying it needs at
      // least dim + 2 support points — otherwise degrade gracefully to the
      // constant drift (= ordinary kriging).
      if (effective_drift_ == DriftKind::kLinear && points_.size() < dim_ + 2)
        effective_drift_ = DriftKind::kConstant;
      border_ = effective_drift_ == DriftKind::kConstant ? 1 : dim_ + 1;
      break;
  }
}

double KrigingSystem::entry_of(double d) const {
  if (spec_.kind == SystemKind::kSimple)
    return std::max(spec_.sill - model_.gamma(d), 0.0);
  return model_.gamma(d);
}

double KrigingSystem::diagonal_entry() const {
  // Guard the zero case exactly: τ² = 0 must assemble bit-identically to
  // the pre-nugget system (the policy's default-gate identity contract).
  if (spec_.noise_nugget == 0.0)  // ace-lint: allow(float-equality)
    return entry_of(0.0);
  return spec_.kind == SystemKind::kSimple
             ? entry_of(0.0) + spec_.noise_nugget
             : entry_of(0.0) - spec_.noise_nugget;
}

std::vector<double> KrigingSystem::drift_basis(
    const std::vector<double>& x) const {
  switch (spec_.kind) {
    case SystemKind::kSimple:
      return {};
    case SystemKind::kOrdinary:
      return {1.0};
    case SystemKind::kUniversal:
      break;
  }
  if (effective_drift_ == DriftKind::kConstant) return {1.0};
  std::vector<double> f;
  f.reserve(x.size() + 1);
  f.push_back(1.0);
  f.insert(f.end(), x.begin(), x.end());
  return f;
}

linalg::Matrix KrigingSystem::assemble(double shift) const {
  const std::size_t n = points_.size();
  const std::size_t m = system_size();
  linalg::Matrix a(m, m);
  // Variogram block, one row at a time: distances from point j to the
  // tail j..n-1 fill the upper triangle and its mirror.
  std::vector<double> dists(n);
  for (std::size_t j = 0; j < n; ++j) {
    distances_to(points_[j], j, dists.data());
    for (std::size_t k = j; k < n; ++k) {
      const double g = k == j ? diagonal_entry() : entry_of(dists[k - j]);
      a(j, k) = g;
      a(k, j) = g;
    }
    const auto fj = drift_basis(points_[j]);
    for (std::size_t l = 0; l < border_; ++l) {
      a(j, n + l) = fj[l];
      a(n + l, j) = fj[l];
    }
    a(j, j) += shift;
  }
  return a;
}

linalg::Vector KrigingSystem::assemble_rhs(const std::vector<double>& q) const {
  linalg::Vector rhs(system_size());
  const std::size_t n = points_.size();
  // γ-vector: all query→support distances.
  std::vector<double> dists(n);
  distances_to(q, 0, dists.data());
  for (std::size_t k = 0; k < n; ++k) rhs[k] = entry_of(dists[k]);
  const auto fq = drift_basis(q);
  for (std::size_t l = 0; l < border_; ++l) rhs[n + l] = fq[l];
  return rhs;
}

double KrigingSystem::ladder_scale() {
  // max(|A|, 1) over the *unshifted* matrix, memoized by factor_at(0.0)'s
  // assembly (the ladder always tries the plain solve first).
  if (!scale_) scale_ = std::max(assemble(0.0).max_abs(), 1.0);
  return *scale_;
}

const linalg::LuDecomposition* KrigingSystem::factor_at(double shift) {
  // Shifts are recomputed identically per query (ridge · scale over the
  // same matrix), so exact comparison is the correct memo key.
  for (const Factor& f : factors_)
    if (f.shift == shift)  // ace-lint: allow(float-equality)
      return &f.lu;
  for (double s : singular_shifts_)
    if (s == shift)  // ace-lint: allow(float-equality)
      return nullptr;

  ++stats_.full_factorizations;
  linalg::Matrix a = assemble(shift);
  if (shift == 0.0)  // ace-lint: allow(float-equality)
    scale_ = std::max(a.max_abs(), 1.0);
  linalg::LuDecomposition lu(std::move(a));
  if (lu.singular()) {
    singular_shifts_.push_back(shift);
    return nullptr;
  }
  factors_.push_back(Factor{shift, std::move(lu)});
  return &factors_.back().lu;
}

std::optional<KrigingResult> KrigingSystem::query(
    const std::vector<double>& q) {
  if (q.size() != dim_)
    throw std::invalid_argument("KrigingSystem: dimension mismatch");
  ++stats_.solves;
  const linalg::Vector rhs = assemble_rhs(q);

  // The ridge ladder: plain solve first, then growing ridge on the
  // non-border diagonal. Factor construction (and its singularity)
  // depends only on the matrix, so factors and singularity verdicts are
  // memoized across queries; the acceptability test depends on the
  // right-hand side and is re-run per query.
  double shift = 0.0;
  std::optional<linalg::Vector> solution;
  double rcond = 0.0;
  if (const linalg::LuDecomposition* f = factor_at(0.0)) {
    linalg::Vector x = f->solve(rhs);
    if (acceptable(x)) {
      solution = std::move(x);
      rcond = f->rcond_estimate();
    }
  }
  if (!solution) {
    const double scale = ladder_scale();
    for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0) {
      shift = ridge * scale;
      const linalg::LuDecomposition* f = factor_at(shift);
      if (!f) continue;
      linalg::Vector x = f->solve(rhs);
      if (acceptable(x)) {
        solution = std::move(x);
        rcond = f->rcond_estimate();
        break;
      }
    }
    if (!solution) return std::nullopt;
  }
  return finalize(q, rhs, *solution, shift, rcond);
}

std::optional<KrigingSystem::LooReport> KrigingSystem::loo_residuals() {
  const std::size_t n = points_.size();
  // One point leaves nothing to predict from; universal kriging further
  // needs the LOO subsets to keep the same effective drift as the full
  // system for Dubrule's identity to describe a real scratch refit.
  if (n < 2) return std::nullopt;
  if (spec_.kind == SystemKind::kUniversal &&
      effective_drift_ == DriftKind::kLinear && n < dim_ + 3)
    return std::nullopt;
  const std::size_t m = system_size();

  // z̃: (centred) values on data rows, zeros on the border.
  linalg::Vector z(m);
  for (std::size_t k = 0; k < n; ++k)
    z[k] = spec_.kind == SystemKind::kSimple ? values_[k] - spec_.mean
                                             : values_[k];

  // Dubrule's identity on whichever shifted matrix actually factors: with
  // B = A⁻¹, u = B·z̃, e_i = u_i / B_ii and σ²₍ᵢ₎ = 1/B_ii (covariance
  // form). The γ-form bordered matrix is A_γ = −S·A_cov·S for the sign
  // flip S = diag(I, −I_border), so its data-block inverse diagonal is the
  // negated covariance one: the residual ratio is unchanged and the LOO
  // variance becomes −1/B_ii.
  const auto attempt = [&](double shift) -> std::optional<LooReport> {
    const linalg::LuDecomposition* f = factor_at(shift);
    if (!f) return std::nullopt;
    const linalg::Vector u = f->solve(z);
    const linalg::Vector diag = f->inverse_diagonal();
    LooReport report;
    report.shift = shift;
    report.regularized = shift > 0.0;
    report.residuals.resize(n);
    report.variances.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double d = diag[k];
      if (!std::isfinite(d) || d == 0.0 ||  // ace-lint: allow(float-equality)
          !std::isfinite(u[k]))
        return std::nullopt;
      const double e = u[k] / d;
      if (!std::isfinite(e) || std::abs(e) > kMaxSolutionNorm)
        return std::nullopt;
      report.residuals[k] = e;
      const double var =
          spec_.kind == SystemKind::kSimple ? 1.0 / d : -1.0 / d;
      report.variances[k] = std::max(var, 0.0);
    }
    return report;
  };

  // The same ladder as query(): plain solve first, then growing ridge.
  if (auto report = attempt(0.0)) return report;
  const double scale = ladder_scale();
  for (double ridge = kInitialRidge; ridge <= kMaxRidge; ridge *= 100.0)
    if (auto report = attempt(ridge * scale)) return report;
  return std::nullopt;
}

std::optional<KrigingResult> KrigingSystem::finalize(
    const std::vector<double>& q, const linalg::Vector& rhs,
    const linalg::Vector& x, double shift, double rcond) const {
  const std::size_t n = points_.size();
  KrigingResult result;
  result.regularized = shift > 0.0;
  result.ridge = shift;
  result.rcond = rcond;

  double estimate = spec_.kind == SystemKind::kSimple ? spec_.mean : 0.0;
  double variance =
      spec_.kind == SystemKind::kSimple
          ? std::max(spec_.sill - model_.gamma(0.0), 0.0)
          : 0.0;
  std::vector<double> unique_weights(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double w = x[k];
    unique_weights[k] = w;
    switch (spec_.kind) {
      case SystemKind::kOrdinary:
      case SystemKind::kUniversal:
        estimate += w * values_[k];
        variance += w * rhs[k];
        break;
      case SystemKind::kSimple:
        estimate += w * (values_[k] - spec_.mean);
        variance -= w * rhs[k];
        break;
    }
  }
  // Lagrange / drift multiplier terms of the kriging variance.
  if (spec_.kind != SystemKind::kSimple) {
    const auto fq = drift_basis(q);
    for (std::size_t l = 0; l < border_; ++l)
      variance += x[n + l] * fq[l];
  }
  if (!std::isfinite(estimate)) return std::nullopt;
  result.estimate = estimate;
  result.variance = std::max(variance, 0.0);
  result.weights.resize(slots_.size(), 0.0);
  for (std::size_t s = 0; s < slots_.size(); ++s)
    result.weights[s] = slots_[s].owner ? unique_weights[slots_[s].unique] : 0.0;

#if ACE_CONTRACTS_ENABLED
  // The first border row (Σ w_k = 1, unbiasedness) is an *exact* equation
  // of the solved system — the ridge fallback shifts only the non-border
  // diagonal, never the border — so the solved weights must honour it to
  // solver precision. Simple kriging has no such constraint (known mean).
  if (spec_.kind != SystemKind::kSimple) {
    double weight_sum = 0.0;
    double abs_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      weight_sum += unique_weights[k];
      abs_sum += std::abs(unique_weights[k]);
    }
    ACE_ENSURE(std::abs(weight_sum - 1.0) <= 1e-8 * std::max(1.0, abs_sum),
               "kriging weights must sum to 1 (unbiasedness)");
  }
#endif
  ACE_ENSURE(std::isfinite(result.variance) && result.variance >= 0.0,
             "kriging variance must be finite and non-negative");
  return result;
}

}  // namespace ace::kriging
