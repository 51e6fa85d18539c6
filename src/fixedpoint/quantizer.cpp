#include "fixedpoint/quantizer.hpp"

namespace ace::fixedpoint {

Quantizer::Quantizer(Format format, RoundingMode rounding,
                     OverflowMode overflow)
    : format_(format),
      rounding_(rounding),
      overflow_(overflow),
      step_(format.step()),
      inv_step_(1.0 / format.step()),
      min_(format.min_value()),
      max_(format.max_value()),
      span_(max_ - min_ + format.step()) {}

}  // namespace ace::fixedpoint
