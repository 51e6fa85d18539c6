#include "kriging/fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/contract.hpp"

namespace ace::kriging {

namespace {

struct WeightedFit {
  double nugget = 0.0;
  double scale = 0.0;  // sill or slope, depending on basis.
  double sse = std::numeric_limits<double>::infinity();
};

/// Weighted LS of γ̂ ≈ nugget + scale·unit_basis(family, shape, d) with
/// both coefficients clamped to >= 0 (a variogram must be non-negative and
/// non-decreasing for our basis choices). Solves the 2x2 normal equations
/// directly and falls back to the boundary solutions when a coefficient
/// goes negative. Calls unit_basis, not VariogramModel::gamma: bins sit at
/// d > 0, and the basis is the same formula gamma evaluates there.
WeightedFit fit_basis(const std::vector<VariogramBin>& bins,
                      ModelFamily family, double shape) {
  const auto basis = [&](double d) { return unit_basis(family, shape, d); };
  double sw = 0.0, sb = 0.0, sbb = 0.0, sg = 0.0, sbg = 0.0;
  for (const auto& bin : bins) {
    const double w = static_cast<double>(bin.pair_count);
    const double b = basis(bin.distance);
    sw += w;
    sb += w * b;
    sbb += w * b * b;
    sg += w * bin.gamma;
    sbg += w * b * bin.gamma;
  }
  auto sse_for = [&](double nugget, double scale) {
    double acc = 0.0;
    for (const auto& bin : bins) {
      const double r = bin.gamma - (nugget + scale * basis(bin.distance));
      acc += static_cast<double>(bin.pair_count) * r * r;
    }
    return acc;
  };

  WeightedFit best;
  const double det = sw * sbb - sb * sb;
  if (std::abs(det) > 1e-30) {
    const double nugget = (sg * sbb - sb * sbg) / det;
    const double scale = (sw * sbg - sb * sg) / det;
    if (nugget >= 0.0 && scale >= 0.0) {
      best = {nugget, scale, sse_for(nugget, scale)};
      return best;
    }
  }
  // Boundary: nugget = 0.
  if (sbb > 0.0) {
    const double scale = std::max(0.0, sbg / sbb);
    const double sse = sse_for(0.0, scale);
    if (sse < best.sse) best = {0.0, scale, sse};
  }
  // Boundary: scale = 0 (flat).
  if (sw > 0.0) {
    const double nugget = std::max(0.0, sg / sw);
    const double sse = sse_for(nugget, 0.0);
    if (sse < best.sse) best = {nugget, 0.0, sse};
  }
  if (!std::isfinite(best.sse)) best = {0.0, 0.0, sse_for(0.0, 0.0)};
  return best;
}

FitResult make_result(const VariogramModel& model, double sse) {
  const FitResult r{model, sse};
  ACE_ENSURE(std::isfinite(r.weighted_sse) && r.weighted_sse >= 0.0,
             "weighted SSE is a sum of weighted squares");
#if ACE_CONTRACTS_ENABLED
  // Monotonicity spot-check: every family we fit (non-negative nugget +
  // non-negative scale on a non-decreasing basis) must yield a
  // non-decreasing γ — a decreasing variogram would claim that far-apart
  // samples agree better than close ones.
  {
    double prev = r.model.gamma(0.0);
    for (const double d : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
      const double g = r.model.gamma(d);
      ACE_ENSURE(g >= prev - 1e-12, "fitted variogram must be non-decreasing");
      prev = g;
    }
  }
#endif
  return r;
}

}  // namespace

FitResult fit_family(const EmpiricalVariogram& ev, ModelFamily family,
                     const FitOptions& options) {
  const auto& bins = ev.bins();
  if (bins.empty())
    throw std::invalid_argument("fit_family: empirical variogram has no bins");

  const double dmax = std::max(ev.max_distance(), 1e-12);

  // Candidate shapes: none (0) for linear, the exponent grid 0.1 .. 1.8
  // for power, and for the bounded families ranges from a fraction of the
  // max lag to well past it.
  std::vector<double> shapes;
  switch (family) {
    case ModelFamily::kLinear:
      shapes = {0.0};
      break;
    case ModelFamily::kPower:
      for (int i = 1; i <= 18; ++i)
        shapes.push_back(0.1 * static_cast<double>(i));
      break;
    case ModelFamily::kSpherical:
    case ModelFamily::kExponential:
    case ModelFamily::kGaussian: {
      const int grid = std::max(options.range_grid, 2);
      for (int i = 1; i <= grid; ++i)
        shapes.push_back(dmax * (0.25 + 2.75 * static_cast<double>(i) /
                                            static_cast<double>(grid)));
      break;
    }
  }
  WeightedFit best;
  double best_shape = shapes.front();
  for (const double shape : shapes) {
    const auto fit = fit_basis(bins, family, shape);
    if (fit.sse < best.sse) {
      best = fit;
      best_shape = shape;
    }
  }
  return make_result({family, best.nugget, best.scale, best_shape}, best.sse);
}

std::vector<FitResult> fit_all(const EmpiricalVariogram& ev,
                               const FitOptions& options) {
  std::vector<FitResult> results;
  results.reserve(options.families.size());
  for (const auto family : options.families)
    results.push_back(fit_family(ev, family, options));
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.weighted_sse < b.weighted_sse;
            });
  return results;
}

FitResult fit_best(const EmpiricalVariogram& ev, const FitOptions& options) {
  auto all = fit_all(ev, options);
  if (all.empty()) throw std::invalid_argument("fit_best: no families");
  return std::move(all.front());
}

}  // namespace ace::kriging
