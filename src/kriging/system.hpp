// The kriging system: the library's one estimator path (paper Eq. 3 and
// 7-10, plus the simple- and universal-kriging variants).
//
// Given support configurations e_0..e_{N-1} with measured metric values
// λ_0..λ_{N-1} and a semi-variogram model γ, the ordinary-kriging estimate
// at query e_i is λ̂(e_i) = γ_i · Γ⁻¹ · λ (Eq. 10), with Γ the bordered
// matrix of Eq. 9 (pairwise semi-variances plus a Lagrange row enforcing
// Σμ = 1). KrigingSystem owns every part of that solve:
//
//   * assembly — variogram block (γ for ordinary/universal, the
//     covariance C(d) = max(sill − γ(d), 0) for simple), the Lagrange
//     ones-border (ordinary), and the drift columns F (universal);
//   * the ridge-fallback ladder: plain solve, then ridge = 1e-10 … 1e-2
//     ×100 on the non-border diagonal, acceptability = finite and
//     max-abs <= 1e6;
//   * coincident-support dedupe — the first occurrence wins, duplicates
//     get weight 0, so a repeated point never degenerates the system.
//
// Every factor is one pivoted linalg::LuDecomposition of the whole
// assembled matrix (DESIGN.md §9). The support is fixed at construction,
// so a factor built at some ladder rung is kept and re-solved for later
// queries (the matrix — hence its singularity and its factorization —
// does not depend on the query, only the acceptability check does), and
// repeated queries against one support set skip the refactorization.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/variogram_model.hpp"
#include "linalg/lu.hpp"

namespace ace::kriging {

/// Result of one kriging interpolation.
struct KrigingResult {
  double estimate = 0.0;       ///< λ̂(e_i).
  double variance = 0.0;       ///< Kriging variance (>= 0 up to round-off).
  bool regularized = false;    ///< Ridge fallback was used on Γ.
  double ridge = 0.0;          ///< Diagonal shift used (0 when unregularized).
  double rcond = 0.0;          ///< Pivot-ratio condition estimate of the solve.
  std::vector<double> weights; ///< The μ_k of Eq. 3 (size N).
};

/// Drift (trend) models for universal kriging.
enum class DriftKind {
  kConstant,  ///< f = [1]: identical to ordinary kriging.
  kLinear,    ///< f = [1, e_1, …, e_Nv]: linear trend per coordinate.
};

/// Which estimator's system to assemble.
enum class SystemKind {
  kOrdinary,   ///< Bordered Γ of paper Eq. 9 (ones-border, Lagrange).
  /// Covariance system C·w = c_q (no border), λ̂ = m + Σ w_k (λ_k − m):
  /// the caller supplies the mean m and the sill of C(d) = sill − γ(d).
  kSimple,
  /// Drift-bordered [Γ F; Fᵀ 0] system. A linear drift needs at least
  /// dim + 2 unique support points and degrades to the constant drift
  /// (= ordinary kriging) below that.
  kUniversal,
};

/// Full description of one kriging system's estimator.
struct SystemSpec {
  SystemKind kind = SystemKind::kOrdinary;
  DriftKind drift = DriftKind::kConstant;  ///< Universal kriging only.
  double sill = 0.0;                       ///< Simple kriging only.
  double mean = 0.0;                       ///< Simple kriging only.
  /// Stochastic-kriging measurement-noise variance τ² (Wang & Haaland,
  /// PAPERS.md) for intrinsically noisy metrics. Applied to the system
  /// diagonal only: covariance form gains C_ii + τ², and by the constant-
  /// shift invariance of the constrained γ-form (Γ + c·J leaves the
  /// weights unchanged under Σw = 1) the equivalent variogram-form move is
  /// γ_ii − τ². Off-diagonals and query right-hand sides are untouched, so
  /// τ² = 0 assembles bit-identically to the pre-nugget system. The
  /// predictor then smooths instead of honouring noisy support exactly.
  double noise_nugget = 0.0;
};

/// Factorization-work counters, harvested by KrigingPolicy into
/// PolicyStats.
struct SystemStats {
  std::size_t full_factorizations = 0;  ///< Whole-system factor builds.
  std::size_t solves = 0;               ///< Queries answered.
};

/// A reusable kriging system over one support set.
class KrigingSystem {
 public:
  /// Builds (but does not yet factor) the system. Coincident support
  /// points are deduplicated — the first occurrence becomes the support
  /// point, later copies are recorded as zero-weight slots. Throws
  /// std::invalid_argument on empty/ragged support, size mismatches, or
  /// (simple kriging) a non-positive sill.
  KrigingSystem(SystemSpec spec,
                std::vector<std::vector<double>> support_points,
                std::vector<double> support_values,
                const VariogramModel& model,
                DistanceFn distance = l1_distance);

  KrigingSystem(const KrigingSystem&) = delete;
  KrigingSystem& operator=(const KrigingSystem&) = delete;

  /// Estimate at `query` (paper Eq. 8-10 for ordinary kriging). Returns
  /// nullopt when no ladder rung produces an acceptable solution — the
  /// caller falls back to simulation. The result's weights are indexed by
  /// support *slot* (construction order; deduplicated slots hold 0).
  std::optional<KrigingResult> query(const std::vector<double>& q);

  /// Leave-one-out cross-validation over the unique support, from one
  /// factorization. Entry i describes the system with unique point i
  /// deleted, predicting at that point's location.
  struct LooReport {
    std::vector<double> residuals;  ///< z_i − ẑ₍ᵢ₎ per unique point.
    std::vector<double> variances;  ///< LOO kriging variance σ²₍ᵢ₎.
    double shift = 0.0;             ///< Ladder rung the factor used.
    bool regularized = false;       ///< shift > 0.
  };

  /// All unique-support LOO residuals via Dubrule's identity: with
  /// B = A⁻¹ of the assembled system and z̃ the (centred) values padded
  /// with border zeros, e_i = [B·z̃]_i / B_ii and σ²₍ᵢ₎ = ±1/B_ii — each
  /// residual costs one O(n²) solve against the already-built factor
  /// instead of the O(n³) scratch refit it is provably equal to
  /// (tests/test_kriging_loo.cpp pins the match at 1e-10). Climbs the same
  /// ridge ladder as query(); the identity is exact for whichever shifted
  /// matrix actually factored, and the report records that shift. Returns
  /// nullopt below 2 unique points or when no rung yields finite,
  /// non-degenerate diagonals.
  std::optional<LooReport> loo_residuals();

  std::size_t support_size() const { return slots_.size(); }
  /// Unique support points actually in the system (dedupe applied).
  std::size_t unique_size() const { return points_.size(); }
  std::size_t dimension() const { return dim_; }
  const SystemSpec& spec() const { return spec_; }
  const SystemStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::size_t unique = 0;  ///< Index into points_/values_.
    bool owner = false;      ///< First occurrence: carries the weight.
  };

  /// One cached factorization at one ridge shift.
  struct Factor {
    double shift = 0.0;  ///< Absolute diagonal shift (ridge · scale).
    linalg::LuDecomposition lu;
  };

  /// Matrix/rhs entry (γ or covariance) as a function of a distance.
  double entry_of(double d) const;
  /// Diagonal entry of a support point: entry_of(0) with the noise nugget
  /// folded in (+τ² covariance form, −τ² variogram form; exact no-op at 0).
  double diagonal_entry() const;
  /// Distances from x to unique points [first, n), written to out.
  void distances_to(const std::vector<double>& x, std::size_t first,
                    double* out) const;
  /// Drift basis f(x) under the effective drift.
  std::vector<double> drift_basis(const std::vector<double>& x) const;

  std::size_t system_size() const { return points_.size() + border_; }

  /// Assemble the full system matrix — unique points first, then the
  /// border — with `shift` on every non-border diagonal.
  linalg::Matrix assemble(double shift) const;
  /// Assemble the right-hand side for a query, in the same order.
  linalg::Vector assemble_rhs(const std::vector<double>& q) const;

  /// Turn one accepted ladder solution into a KrigingResult (estimate,
  /// variance, slot-indexed weights, contracts).
  std::optional<KrigingResult> finalize(const std::vector<double>& q,
                                        const linalg::Vector& rhs,
                                        const linalg::Vector& x, double shift,
                                        double rcond) const;

  /// Find or build the factor at `shift`; nullptr when singular there.
  /// The pointer is valid until the next factor_at() call.
  const linalg::LuDecomposition* factor_at(double shift);
  /// Set the effective drift and border width from the unique count.
  void init_border();

  /// Scale for the ridge ladder: max(|A|, 1) of the unshifted matrix —
  /// the ridge is relative to the matrix magnitude.
  double ladder_scale();

  SystemSpec spec_;
  DriftKind effective_drift_ = DriftKind::kConstant;
  std::unique_ptr<VariogramModel> model_;
  DistanceFn distance_;
  std::size_t dim_ = 0;

  std::vector<std::vector<double>> points_;  ///< Unique, insertion order.
  std::vector<double> values_;               ///< Values of unique points.
  std::vector<Slot> slots_;                  ///< Caller-visible order.

  std::size_t border_ = 0;  ///< Lagrange/drift columns.

  std::vector<Factor> factors_;          ///< Plain + ladder-rung factors.
  std::vector<double> singular_shifts_;  ///< Shifts known to be singular.
  /// ladder_scale() memo, recorded by the first unshifted assembly.
  std::optional<double> scale_;
  SystemStats stats_;
};

}  // namespace ace::kriging
