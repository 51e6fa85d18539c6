// Parametric semi-variogram models γ(d).
//
// The paper (Sec. III-A) identifies the empirical semi-variogram with "a
// particular type of semi-variogram [19]"; the classical catalogue from
// Wackernagel's Geostatistics is implemented here: linear, spherical,
// exponential, gaussian and power models, all with an optional nugget.
// A model is a value: a family tag plus at most three numbers, with
//
//   γ(0) = 0,   γ(d) = nugget + scale·unit_basis(family, shape, d)  (d > 0),
//
// non-decreasing for the parameter ranges the constructor enforces.
#pragma once

#include <string>

namespace ace::kriging {

/// The classical families.
enum class ModelFamily { kLinear, kSpherical, kExponential, kGaussian, kPower };

std::string family_name(ModelFamily family);

/// The family's unit-scale basis b(d), the one place each formula lives
/// (VariogramModel::gamma and the fitter both call it):
///   linear       d
///   spherical    1.5·h − 0.5·h³ for h = d/shape < 1, else 1
///   exponential  1 − exp(−3d/shape)
///   gaussian     1 − exp(−3(d/shape)²)
///   power        d^shape
double unit_basis(ModelFamily family, double shape, double d);

/// A fitted semi-variogram model.
class VariogramModel final {
 public:
  /// Parameter contracts (Debug-checked, compiled out in Release): nugget
  /// and scale finite and >= 0; for the bounded families (spherical,
  /// exponential, gaussian) the range `shape` finite and > 0; for the
  /// power family the exponent `shape` in (0, 2). `shape` is unused by
  /// the linear family (0 by convention).
  VariogramModel(ModelFamily family, double nugget, double scale,
                 double shape = 0.0);

  /// Semi-variance at distance d >= 0 (callers pass non-negative d;
  /// negative input throws std::invalid_argument). γ(0) = 0 by
  /// definition: the nugget is the discontinuity just off the origin.
  double gamma(double d) const;

  /// Human-readable description with parameter values, e.g.
  /// "spherical(nugget=0.1, sill=2, range=8)".
  std::string describe() const;

  bool operator==(const VariogramModel&) const = default;

  ModelFamily family;
  /// The discontinuity just off the origin. The stochastic-kriging policy
  /// reads it as its measurement-noise estimate τ² when
  /// `PolicyOptions::nugget_from_fit` is set (see SystemSpec::noise_nugget).
  double nugget;
  double scale;  ///< Slope (linear), sill (bounded) or power-law scale.
  double shape;  ///< Range (bounded), exponent (power), 0 (linear).
};

}  // namespace ace::kriging
