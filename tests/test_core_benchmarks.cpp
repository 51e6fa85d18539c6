#include "core/benchmarks.hpp"

#include <gtest/gtest.h>

#include <ios>
#include <vector>

namespace {

namespace c = ace::core;
namespace d = ace::dse;

c::SignalBenchOptions tiny_signal() {
  c::SignalBenchOptions o;
  o.samples = 128;
  return o;
}

TEST(FirBenchmark, ShapeAndDeterminism) {
  const auto bench = c::make_fir_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "FIR");
  EXPECT_EQ(bench.nv, 2u);
  EXPECT_EQ(bench.metric, d::MetricKind::kAccuracyDb);
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kMinPlusOne);
  const d::Config w = {10, 10};
  EXPECT_DOUBLE_EQ(bench.simulate(w), bench.simulate(w));
}

TEST(FirBenchmark, AccuracyImprovesWithWiderWords) {
  const auto bench = c::make_fir_benchmark(tiny_signal());
  EXPECT_LT(bench.simulate({6, 6}), bench.simulate({12, 12}));
  EXPECT_LT(bench.simulate({8, 8}), bench.simulate({14, 14}));
}

TEST(FirBenchmark, IndependentInstancesAgree) {
  // Same seed -> same simulator behaviour (cross-instance determinism).
  const auto a = c::make_fir_benchmark(tiny_signal());
  const auto b = c::make_fir_benchmark(tiny_signal());
  EXPECT_DOUBLE_EQ(a.simulate({9, 11}), b.simulate({9, 11}));
}

TEST(IirBenchmark, ShapeAndMonotonicity) {
  const auto bench = c::make_iir_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "IIR");
  EXPECT_EQ(bench.nv, 5u);
  const d::Config narrow(5, 8), wide(5, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(FftBenchmark, ShapeAndMonotonicity) {
  const auto bench = c::make_fft_benchmark(tiny_signal());
  EXPECT_EQ(bench.name, "FFT");
  EXPECT_EQ(bench.nv, 10u);
  const d::Config narrow(10, 8), wide(10, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(HevcBenchmark, ShapeAndMonotonicity) {
  c::HevcBenchOptions o;
  o.jobs = 4;
  const auto bench = c::make_hevc_benchmark(o);
  EXPECT_EQ(bench.name, "HEVC");
  EXPECT_EQ(bench.nv, 23u);
  const d::Config narrow(23, 8), wide(23, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
  EXPECT_DOUBLE_EQ(bench.simulate(narrow), bench.simulate(narrow));
}

TEST(SqueezeNetBenchmark, ShapeAndQualitySemantics) {
  c::CnnBenchOptions o;
  o.images = 30;
  o.classes = 5;
  const auto bench = c::make_squeezenet_benchmark(o);
  EXPECT_EQ(bench.name, "SqueezeNet");
  EXPECT_EQ(bench.nv, 10u);
  EXPECT_EQ(bench.metric, d::MetricKind::kQualityRate);
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kSensitivity);

  // Near-silent sources: agreement ~1. Loud sources: lower agreement.
  const d::Config quiet(10, o.level_max);
  const d::Config loud(10, 0);
  const double q_quiet = bench.simulate(quiet);
  const double q_loud = bench.simulate(loud);
  EXPECT_GT(q_quiet, 0.9);
  EXPECT_LE(q_quiet, 1.0);
  EXPECT_LT(q_loud, q_quiet);
  // Deterministic.
  EXPECT_DOUBLE_EQ(bench.simulate(loud), q_loud);
}

TEST(IirSensitivityBenchmark, ShapeAndMonotonicity) {
  c::IirSensitivityOptions o;
  o.samples = 128;
  const auto bench = c::make_iir_sensitivity_benchmark(o);
  EXPECT_EQ(bench.name, "IIR-sens");
  EXPECT_EQ(bench.nv, 5u);  // 4 sections + input source.
  EXPECT_EQ(bench.optimizer, c::OptimizerKind::kSensitivity);
  // Quieter sources (higher level) -> higher accuracy.
  const d::Config quiet(5, 20), loud(5, 4);
  EXPECT_GT(bench.simulate(quiet), bench.simulate(loud));
  EXPECT_DOUBLE_EQ(bench.simulate(loud), bench.simulate(loud));
}

TEST(ApproxFirBenchmark, ShapeAndMonotonicity) {
  c::ApproxFirBenchOptions o;
  o.samples = 128;
  const auto bench = c::make_approx_fir_benchmark(o);
  EXPECT_EQ(bench.name, "ApproxFIR");
  EXPECT_EQ(bench.nv, 4u);
  // More precise operators (higher v) -> higher accuracy.
  const d::Config rough(4, 4), fine(4, 12);
  EXPECT_LT(bench.simulate(rough), bench.simulate(fine));
  EXPECT_DOUBLE_EQ(bench.simulate(rough), bench.simulate(rough));
  // Validation.
  c::ApproxFirBenchOptions bad;
  bad.taps = 3;
  EXPECT_THROW((void)c::make_approx_fir_benchmark(bad),
               std::invalid_argument);
  bad = {};
  bad.v_min = 14;
  EXPECT_THROW((void)c::make_approx_fir_benchmark(bad),
               std::invalid_argument);
}

TEST(DctBenchmark, ShapeAndMonotonicity) {
  c::DctBenchOptions o;
  o.blocks = 6;
  const auto bench = c::make_dct_benchmark(o);
  EXPECT_EQ(bench.name, "DCT");
  EXPECT_EQ(bench.nv, 6u);
  const d::Config narrow(6, 8), wide(6, 14);
  EXPECT_LT(bench.simulate(narrow), bench.simulate(wide));
}

TEST(FftBenchmark, RejectsTooFewSamples) {
  c::SignalBenchOptions o;
  o.samples = 32;
  EXPECT_THROW((void)c::make_fft_benchmark(o), std::invalid_argument);
}

// Golden λ pinned as hexfloat: the fixed-point simulators must reproduce
// these bit for bit at the default benchmark options, so any change to the
// quantizer or a kernel that moves a single rounding shows up here. Each
// table mixes saturating w = 2 corners, uneven per-site words and wide
// words (up to 52 bits, where the scaled value approaches 2^51).
struct Golden {
  d::Config w;
  double lambda;
};

void expect_golden(const c::ApplicationBenchmark& bench,
                   const std::vector<Golden>& table) {
  for (std::size_t row = 0; row < table.size(); ++row) {
    const auto& g = table[row];
    ASSERT_EQ(g.w.size(), bench.nv);
    const double lambda = bench.simulate(g.w);
    EXPECT_EQ(lambda, g.lambda) << bench.name << " row " << row << ": got "
                                << std::hexfloat << lambda << ", want "
                                << g.lambda;
  }
}

TEST(GoldenLambda, Fir) {
  expect_golden(c::make_fir_benchmark({}), {
      {{2, 2}, 0x1.60f885547695bp+3},
      {{2, 16}, 0x1.863cb10b39a46p+3},
      {{16, 2}, 0x1.60f885547695bp+3},
      {{3, 5}, 0x1.1079be65a8c35p+4},
      {{6, 9}, 0x1.cd70f0ac78573p+4},
      {{8, 8}, 0x1.005c0ab57d10ap+5},
      {{11, 13}, 0x1.aa8e0f2a6f228p+5},
      {{16, 16}, 0x1.2c8e3680929d3p+6},
      {{24, 30}, 0x1.7a059eab383b3p+6},
      {{40, 52}, 0x1.7a0536aaf0538p+6},
  });
}

TEST(GoldenLambda, Iir) {
  expect_golden(c::make_iir_benchmark({}), {
      {{2, 2, 2, 2, 2}, 0x1.740f76c37d965p+3},
      {{16, 16, 16, 16, 2}, 0x1.740f76c37d965p+3},
      {{2, 16, 16, 16, 16}, 0x1.740f76c37d965p+3},
      {{5, 7, 9, 11, 13}, 0x1.7ef3372216f63p+4},
      {{8, 8, 8, 8, 8}, 0x1.059730ea3d927p+5},
      {{10, 12, 9, 14, 11}, 0x1.832b1dbb3ab26p+5},
      {{12, 12, 12, 12, 12}, 0x1.cd3c37f2f964ap+5},
      {{16, 16, 16, 16, 16}, 0x1.442fa22de4ee2p+6},
      {{6, 16, 16, 16, 16}, 0x1.f456929410928p+4},
      {{24, 28, 32, 36, 40}, 0x1.16be0d3ffe54ep+7},
  });
}

TEST(GoldenLambda, Fft) {
  expect_golden(c::make_fft_benchmark({}), {
      {{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, -0x1.c3991a6919a82p+2},
      {{16, 16, 16, 16, 16, 2, 16, 16, 16, 16}, -0x1.0ab2145505893p+1},
      {{2, 16, 16, 16, 16, 16, 16, 16, 16, 16}, -0x1.5ffb103577b84p+0},
      {{4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 0x1.c31ac6e32b50bp+0},
      {{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, 0x1.a09b6cfc2e89bp+3},
      {{12, 10, 14, 9, 11, 13, 8, 15, 10, 12}, 0x1.57bff03c3bf3dp+4},
      {{12, 12, 12, 12, 12, 12, 12, 12, 12, 12}, 0x1.28d22ff94d378p+5},
      {{16, 16, 16, 16, 16, 16, 16, 16, 16, 16}, 0x1.e621b919124efp+5},
      {{24, 24, 24, 24, 24, 24, 24, 24, 24, 52}, 0x1.b9e74d3c0487ep+6},
  });
}

TEST(GoldenLambda, Hevc) {
  const auto uniform = [](int w) { return d::Config(23, w); };
  d::Config input_starved = uniform(16);  // Pixel read (site 0) at w = 2.
  input_starved[0] = 2;
  d::Config output_starved = uniform(16);  // Row and output storage.
  output_starved[10] = 3;
  output_starved[22] = 2;
  d::Config ramp, alternating, scattered;
  for (int i = 0; i < 23; ++i) {
    ramp.push_back(4 + i / 2);
    alternating.push_back(i % 2 != 0 ? 14 : 9);
    scattered.push_back(6 + (i * 7) % 11);
  }
  expect_golden(c::make_hevc_benchmark({}), {
      {uniform(2), 0x1.255fa5ff6220cp+3},
      {input_starved, 0x1.4a0ff182ac76dp+3},
      {output_starved, 0x1.ca92e6d7bf1dfp+2},
      {ramp, 0x1.656de4a72a02ap+4},
      {uniform(8), 0x1.11ca81b38f97ap+5},
      {alternating, 0x1.6ffd20af2085p+5},
      {scattered, 0x1.ceb85291c1978p+4},
      {uniform(12), 0x1.da7c4267b54eap+5},
      {uniform(16), 0x1.5daa0964a36d9p+6},
      {uniform(20), 0x1.c7336363e5e6dp+6},
  });
}

}  // namespace
