// Luma sample patches for the HEVC motion-compensation benchmark.
// Samples are normalized doubles in [0, 1) (8-bit video mapped to x/256).
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace ace::video {

/// A small 2-D luma patch with checked access.
class Frame {
 public:
  Frame(std::size_t width, std::size_t height, double fill = 0.0);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }

  /// Checked sample access; throws std::out_of_range. Inline, with the
  /// throw kept out of line, so the check costs one compare per access.
  double& at(std::size_t x, std::size_t y) {
    if (x >= width_ || y >= height_) throw_out_of_range();
    return data_[y * width_ + x];
  }
  double at(std::size_t x, std::size_t y) const {
    if (x >= width_ || y >= height_) throw_out_of_range();
    return data_[y * width_ + x];
  }

 private:
  [[noreturn]] static void throw_out_of_range();

  std::size_t width_;
  std::size_t height_;
  std::vector<double> data_;
};

/// Synthetic video-like content: smooth gradient + directional texture +
/// mild noise, quantized to the 8-bit grid (x/256) like decoded video.
Frame synthetic_patch(util::Rng& rng, std::size_t width, std::size_t height);

}  // namespace ace::video
