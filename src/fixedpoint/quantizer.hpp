// Quantizers: map a real value onto a fixed-point grid with a selectable
// rounding mode and overflow policy. These emulate the finite-precision
// arithmetic the paper's word-length benchmarks simulate (its refs [12][13]
// are the Mentor AC datatypes and SystemC fixed-point types).
#pragma once

#include <cfloat>
#include <cmath>

#include "fixedpoint/format.hpp"

// Floating-point environment. round_half_even() below rounds in the
// current rounding mode, as std::nearbyint does, and so assumes
// FE_TONEAREST, the C++ default: nothing here calls fesetround(), and a
// caller that changes the mode must restore it before simulating. Its 2^52
// trick also needs every double operation rounded once, exactly as
// written. -ffast-math (or -fassociative-math) may fold (|s| + 2^52) - 2^52
// back to |s|, and x87 excess precision skips the rounding step, so both
// are rejected at compile time (-fassociative-math alone defines no macro
// and cannot be detected).
#if defined(__FAST_MATH__)
#error "fixedpoint/quantizer.hpp: round_half_even() is incorrect under -ffast-math"
#endif
#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0
#error "fixedpoint/quantizer.hpp: round_half_even() needs FLT_EVAL_METHOD == 0"
#endif

namespace ace::fixedpoint {

/// Round to the nearest integer, ties to even, bit-identical to
/// std::nearbyint under FE_TONEAREST (signed zeros included) but with no
/// libm call. Below 2^52, adding 2^52 pushes the fraction bits out of the
/// mantissa, so the addition itself rounds half to even; subtracting 2^52
/// again is exact. copysign restores the sign, so -0.3 gives -0.0 like
/// nearbyint. Values with |s| >= 2^52 are already integers and ±inf and
/// NaN come back unchanged (the comparison is false for NaN).
inline double round_half_even(double s) {
  constexpr double kTwo52 = 0x1p52;
  const double magnitude = std::fabs(s);
  if (!(magnitude < kTwo52)) return s;
  return std::copysign((magnitude + kTwo52) - kTwo52, s);
}

/// How values are mapped onto the grid.
enum class RoundingMode {
  kTruncate,         ///< Floor toward -inf (cheapest hardware).
  kRoundNearest,     ///< Round half up (adds +q/2 bias under double rounding).
  kRoundConvergent,  ///< Round half to even (bias-free; SystemC SC_RND_CONV).
};

/// What happens outside the representable range.
enum class OverflowMode {
  kSaturate,  ///< Clamp to [min_value, max_value].
  kWrap,      ///< Two's-complement wrap-around.
};

/// A quantizer bound to a format + modes. Stateless and cheap to copy; the
/// hot path is quantize(), defined inline below so the simulator kernels'
/// inner loops compile it in place.
class Quantizer {
 public:
  /// Defaults to convergent rounding: cascaded quantizers (multiplier grid
  /// feeding a coarser adder grid) hit exact halfway ties systematically,
  /// and half-up rounding would turn those ties into a DC bias that
  /// dominates the output noise floor.
  explicit Quantizer(Format format,
                     RoundingMode rounding = RoundingMode::kRoundConvergent,
                     OverflowMode overflow = OverflowMode::kSaturate);

  /// Quantize one value onto the grid.
  inline double quantize(double x) const;

  /// Convenience call operator.
  double operator()(double x) const { return quantize(x); }

  const Format& format() const { return format_; }
  RoundingMode rounding() const { return rounding_; }
  OverflowMode overflow() const { return overflow_; }

 private:
  Format format_;
  RoundingMode rounding_;
  OverflowMode overflow_;
  double step_;
  double inv_step_;
  double min_;
  double max_;
  double span_;  // 2^(iwl+1): wrap period in value units.
};

double Quantizer::quantize(double x) const {
  const double scaled = x * inv_step_;
  double grid;
  switch (rounding_) {
    case RoundingMode::kTruncate:
      grid = std::floor(scaled);
      break;
    case RoundingMode::kRoundNearest:
      grid = std::floor(scaled + 0.5);
      break;
    case RoundingMode::kRoundConvergent:
    default:
      grid = round_half_even(scaled);
      break;
  }
  const double value = grid * step_;
  if (value >= min_ && value <= max_) return value;
  if (overflow_ == OverflowMode::kSaturate)
    return value < min_ ? min_ : max_;
  // Two's-complement wrap: shift into [min, min + span).
  const double offset = value - min_;
  const double wrapped = offset - span_ * std::floor(offset / span_);
  return min_ + wrapped;
}

}  // namespace ace::fixedpoint
