// Weighted least-squares identification of a parametric semi-variogram
// model from an empirical one ("the identification of the semi-variogram
// has to be done once for a particular metric and application", paper
// Sec. III-A).
//
// Bounded families (spherical / exponential / gaussian) are fitted by a
// grid search over the range parameter with a closed-form weighted linear
// solve for (nugget, sill) at each candidate; the power family grids the
// exponent likewise. Bins are weighted by their pair count |N(d)|.
#pragma once

#include <vector>

#include "kriging/empirical_variogram.hpp"
#include "kriging/variogram_model.hpp"

namespace ace::kriging {

/// One fitted candidate.
struct FitResult {
  VariogramModel model;
  double weighted_sse = 0.0;  ///< Σ |N(d)|·(γ̂(d) − γ(d))² over bins.
};

/// Fitting knobs.
struct FitOptions {
  std::vector<ModelFamily> families = {
      ModelFamily::kLinear, ModelFamily::kSpherical, ModelFamily::kExponential,
      ModelFamily::kGaussian, ModelFamily::kPower};
  int range_grid = 24;  ///< Candidates per bounded-family range sweep.
};

/// Fit a single family to the empirical variogram.
/// Throws std::invalid_argument if the variogram has no bins.
FitResult fit_family(const EmpiricalVariogram& ev, ModelFamily family,
                     const FitOptions& options = {});

/// Fit every requested family; results sorted by ascending weighted SSE.
std::vector<FitResult> fit_all(const EmpiricalVariogram& ev,
                               const FitOptions& options = {});

/// Fit all families and return the best (lowest weighted SSE).
FitResult fit_best(const EmpiricalVariogram& ev,
                   const FitOptions& options = {});

}  // namespace ace::kriging
