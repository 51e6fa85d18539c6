// 64-point radix-2 DIT FFT benchmark (Nv = 10).
//
// A 64-point decimation-in-time FFT has 6 butterfly stages; stage 0 uses
// only the trivial twiddle W⁰ = 1, so stages 1..5 carry the word-length
// variables (DESIGN.md): for stage s in 1..5,
//   w[2(s-1)]:     twiddle-multiplier output word-length,
//   w[2(s-1)+1]:   butterfly (add/sub) output word-length.
// Integer bits per stage are calibrated from reference transforms.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ace::signal {

/// In-place iterative radix-2 DIT FFT (double precision reference).
/// Size must be a power of two >= 2; throws std::invalid_argument.
void fft(std::vector<std::complex<double>>& data);

/// Inverse transform (scaled by 1/N).
void ifft(std::vector<std::complex<double>>& data);

/// Fixed-point FFT emulation.
class QuantizedFft {
 public:
  /// `size` must be a power of two >= 4. Integer bits are calibrated from
  /// reference transforms of every frame in `calibration_frames`.
  QuantizedFft(std::size_t size,
               const std::vector<std::vector<std::complex<double>>>&
                   calibration_frames,
               int margin_bits = 1);

  std::size_t size() const { return size_; }
  std::size_t stage_count() const { return stages_; }
  /// Number of word-length variables: 2 × (stage_count − 1).
  std::size_t variable_count() const { return 2 * (stages_ - 1); }

  /// Transform one frame with word lengths w (size variable_count()).
  /// Throws std::invalid_argument on bad frame size or word lengths.
  std::vector<std::complex<double>> transform(
      const std::vector<std::complex<double>>& input,
      const std::vector<int>& w) const;

 private:
  std::size_t size_;
  std::size_t stages_;
  std::vector<int> mult_iwl_;  ///< Per quantized stage (1..stages-1).
  std::vector<int> add_iwl_;
  /// Stage-major twiddle factors, built once: the W of span s and index k
  /// at [s − 1 + k].
  std::vector<std::complex<double>> twiddles_;
};

}  // namespace ace::signal
