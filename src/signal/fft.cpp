#include "signal/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fixedpoint/quantizer.hpp"
#include "fixedpoint/range_tracker.hpp"

namespace ace::signal {

namespace {

bool is_power_of_two(std::size_t n) { return n >= 2 && (n & (n - 1)) == 0; }

std::size_t log2_size(std::size_t n) {
  std::size_t s = 0;
  while ((std::size_t{1} << s) < n) ++s;
  return s;
}

void bit_reverse_permute(std::vector<std::complex<double>>& data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < j) std::swap(data[i], data[j]);
    std::size_t mask = n >> 1;
    while (mask >= 1 && (j & mask)) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
}

std::complex<double> twiddle(std::size_t k, std::size_t span) {
  const double angle = -std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(span);
  return {std::cos(angle), std::sin(angle)};
}

/// Stage-major twiddle table for an n-point transform: entry span − 1 + k
/// holds twiddle(k, span) for span = 1, 2, …, n/2 (n − 1 entries in all).
std::vector<std::complex<double>> twiddle_table(std::size_t n) {
  std::vector<std::complex<double>> table;
  table.reserve(n - 1);
  for (std::size_t span = 1; span < n; span <<= 1)
    for (std::size_t k = 0; k < span; ++k) table.push_back(twiddle(k, span));
  return table;
}

/// Shared DIT stage loop over a twiddle_table(data.size()); the hooks are
/// called as hook(stage, value) and must return the (possibly quantized)
/// value to keep. Inlined per caller.
template <typename ProductHook, typename SumHook>
void dit_transform(std::vector<std::complex<double>>& data,
                   const std::vector<std::complex<double>>& twiddles,
                   ProductHook&& on_product, SumHook&& on_sum) {
  const std::size_t n = data.size();
  bit_reverse_permute(data);
  std::size_t stage = 0;
  for (std::size_t span = 1; span < n; span <<= 1, ++stage) {
    // The butterflies of one stage touch disjoint pairs and every hook is
    // pure or records a running max, so walking them twiddle-major (one
    // table read per twiddle per stage, not per block) changes no value.
    for (std::size_t k = 0; k < span; ++k) {
      const std::complex<double> w = twiddles[span - 1 + k];
      for (std::size_t block = 0; block < n; block += span << 1) {
        const std::size_t top = block + k;
        const std::size_t bot = top + span;
        const std::complex<double> product = on_product(stage, w * data[bot]);
        data[bot] = on_sum(stage, data[top] - product);
        data[top] = on_sum(stage, data[top] + product);
      }
    }
  }
}

}  // namespace

void fft(std::vector<std::complex<double>>& data) {
  if (!is_power_of_two(data.size()))
    throw std::invalid_argument("fft: size must be a power of two >= 2");
  dit_transform(
      data, twiddle_table(data.size()),
      [](std::size_t, std::complex<double> p) { return p; },
      [](std::size_t, std::complex<double> s) { return s; });
}

void ifft(std::vector<std::complex<double>>& data) {
  if (!is_power_of_two(data.size()))
    throw std::invalid_argument("ifft: size must be a power of two >= 2");
  for (auto& x : data) x = std::conj(x);
  fft(data);
  const double scale = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x = std::conj(x) * scale;
}

QuantizedFft::QuantizedFft(
    std::size_t size,
    const std::vector<std::vector<std::complex<double>>>& calibration_frames,
    int margin_bits)
    : size_(size), stages_(log2_size(size)) {
  if (!is_power_of_two(size) || size < 4)
    throw std::invalid_argument("QuantizedFft: size must be a power of two >= 4");
  if (calibration_frames.empty())
    throw std::invalid_argument("QuantizedFft: need calibration frames");
  twiddles_ = twiddle_table(size);

  // Track max |re|,|im| of products and sums per stage.
  fixedpoint::RangeTracker products(stages_);
  fixedpoint::RangeTracker sums(stages_);
  for (const auto& frame : calibration_frames) {
    if (frame.size() != size)
      throw std::invalid_argument("QuantizedFft: calibration frame size");
    auto data = frame;
    dit_transform(
        data, twiddles_,
        [&](std::size_t s, std::complex<double> p) {
          products.observe(s, p.real());
          products.observe(s, p.imag());
          return p;
        },
        [&](std::size_t s, std::complex<double> v) {
          sums.observe(s, v.real());
          sums.observe(s, v.imag());
          return v;
        });
  }
  mult_iwl_.resize(stages_ - 1);
  add_iwl_.resize(stages_ - 1);
  for (std::size_t s = 1; s < stages_; ++s) {
    mult_iwl_[s - 1] = products.integer_bits(s, margin_bits);
    add_iwl_[s - 1] = sums.integer_bits(s, margin_bits);
  }
}

std::vector<std::complex<double>> QuantizedFft::transform(
    const std::vector<std::complex<double>>& input,
    const std::vector<int>& w) const {
  if (input.size() != size_)
    throw std::invalid_argument("QuantizedFft: wrong frame size");
  if (w.size() != variable_count())
    throw std::invalid_argument("QuantizedFft: wrong word-length count");
  for (int wl : w)
    if (wl < 2 || wl > 52)
      throw std::invalid_argument("QuantizedFft: word length out of [2, 52]");

  std::vector<fixedpoint::Quantizer> qmul;
  std::vector<fixedpoint::Quantizer> qadd;
  qmul.reserve(stages_ - 1);
  qadd.reserve(stages_ - 1);
  for (std::size_t s = 1; s < stages_; ++s) {
    qmul.emplace_back(fixedpoint::Format::with_clamped_integer_bits(w[2 * (s - 1)], mult_iwl_[s - 1]));
    qadd.emplace_back(fixedpoint::Format::with_clamped_integer_bits(w[2 * (s - 1) + 1], add_iwl_[s - 1]));
  }

  auto data = input;
  dit_transform(
      data, twiddles_,
      [&](std::size_t s, std::complex<double> p) {
        if (s == 0) return p;  // Stage 0 twiddle is 1: nothing to quantize.
        const auto& q = qmul[s - 1];
        return std::complex<double>(q(p.real()), q(p.imag()));
      },
      [&](std::size_t s, std::complex<double> v) {
        if (s == 0) return v;
        const auto& q = qadd[s - 1];
        return std::complex<double>(q(v.real()), q(v.imag()));
      });
  return data;
}

}  // namespace ace::signal
