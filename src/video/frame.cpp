#include "video/frame.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ace::video {

Frame::Frame(std::size_t width, std::size_t height, double fill)
    : width_(width), height_(height), data_(width * height, fill) {
  if (width == 0 || height == 0)
    throw std::invalid_argument("Frame: dimensions must be positive");
}

void Frame::throw_out_of_range() {
  throw std::out_of_range("Frame::at: out of range");
}

Frame synthetic_patch(util::Rng& rng, std::size_t width, std::size_t height) {
  Frame f(width, height);
  const double gx = rng.uniform(-0.3, 0.3);
  const double gy = rng.uniform(-0.3, 0.3);
  const double base = rng.uniform(0.2, 0.7);
  const double tex_freq = rng.uniform(0.05, 0.45);
  const double tex_angle = rng.uniform(0.0, std::numbers::pi);
  const double tex_amp = rng.uniform(0.02, 0.15);
  const double ca = std::cos(tex_angle);
  const double sa = std::sin(tex_angle);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const double fx = static_cast<double>(x) / static_cast<double>(width);
      const double fy = static_cast<double>(y) / static_cast<double>(height);
      double v = base + gx * fx + gy * fy;
      v += tex_amp * std::sin(2.0 * std::numbers::pi * tex_freq *
                              (ca * static_cast<double>(x) +
                               sa * static_cast<double>(y)));
      v += rng.uniform(-0.01, 0.01);
      v = std::clamp(v, 0.0, 255.0 / 256.0);
      // Decoded video is 8-bit: snap to the x/256 grid.
      f.at(x, y) = std::floor(v * 256.0) / 256.0;
    }
  }
  return f;
}

}  // namespace ace::video
