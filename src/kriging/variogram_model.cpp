#include "kriging/variogram_model.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/contract.hpp"

namespace ace::kriging {

std::string family_name(ModelFamily family) {
  switch (family) {
    case ModelFamily::kLinear: return "linear";
    case ModelFamily::kSpherical: return "spherical";
    case ModelFamily::kExponential: return "exponential";
    case ModelFamily::kGaussian: return "gaussian";
    case ModelFamily::kPower: return "power";
  }
  return "unknown";
}

double unit_basis(ModelFamily family, double shape, double d) {
  switch (family) {
    case ModelFamily::kLinear: return d;
    case ModelFamily::kSpherical: {
      const double h = d / shape;
      return h >= 1.0 ? 1.0 : 1.5 * h - 0.5 * h * h * h;
    }
    case ModelFamily::kExponential: return 1.0 - std::exp(-3.0 * d / shape);
    case ModelFamily::kGaussian: {
      const double h = d / shape;
      return 1.0 - std::exp(-3.0 * h * h);
    }
    case ModelFamily::kPower: return std::pow(d, shape);
  }
  throw std::logic_error("unit_basis: unknown family");
}

namespace {
// Parameter validity is a numerical contract (Debug-checked, compiled out
// in Release): a negative nugget/sill makes γ non-monotone and the kriging
// system indefinite, which surfaces later as an unsolvable factorization.
void check_nonneg(double v, const char* what) {
  ACE_REQUIRE(std::isfinite(v) && v >= 0.0,
              std::string("Variogram: ") + what + " must be finite and >= 0");
}
void check_pos(double v, const char* what) {
  ACE_REQUIRE(std::isfinite(v) && v > 0.0,
              std::string("Variogram: ") + what + " must be finite and > 0");
}
}  // namespace

VariogramModel::VariogramModel(ModelFamily family_tag, double nugget_value,
                               double scale_value, double shape_value)
    : family(family_tag),
      nugget(nugget_value),
      scale(scale_value),
      shape(shape_value) {
  check_nonneg(nugget, "nugget");
  switch (family) {
    case ModelFamily::kLinear:
      check_nonneg(scale, "slope");
      break;
    case ModelFamily::kPower:
      check_nonneg(scale, "scale");
      ACE_REQUIRE(shape > 0.0 && shape < 2.0,
                  "Variogram: power exponent must be in (0, 2) for a valid "
                  "(conditionally negative definite) variogram");
      break;
    case ModelFamily::kSpherical:
    case ModelFamily::kExponential:
    case ModelFamily::kGaussian:
      check_nonneg(scale, "sill");
      check_pos(shape, "range");
      break;
  }
}

double VariogramModel::gamma(double d) const {
  if (d < 0.0)
    throw std::invalid_argument("VariogramModel: negative distance");
  // γ(0) = 0 by definition; the nugget applies only to d > 0.
  if (d == 0.0) return 0.0;  // ace-lint: allow(float-equality)
  return nugget + scale * unit_basis(family, shape, d);
}

std::string VariogramModel::describe() const {
  std::ostringstream ss;
  ss << family_name(family) << "(nugget=" << nugget;
  switch (family) {
    case ModelFamily::kLinear: ss << ", slope=" << scale; break;
    case ModelFamily::kPower:
      ss << ", scale=" << scale << ", exponent=" << shape;
      break;
    case ModelFamily::kSpherical:
    case ModelFamily::kExponential:
    case ModelFamily::kGaussian:
      ss << ", sill=" << scale << ", range=" << shape;
      break;
  }
  ss << ")";
  return ss.str();
}

}  // namespace ace::kriging
