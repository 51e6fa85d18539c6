// Randomized invariant sweep over the simulate-or-interpolate policy:
// for arbitrary smooth surfaces, dimensionalities and policy knobs, the
// bookkeeping identities and the paper's structural rules must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include "dse/kriging_policy.hpp"
#include "util/rng.hpp"

namespace {

namespace d = ace::dse;

struct Scenario {
  std::size_t dimensions;
  int distance;
  std::size_t nn_min;
  std::uint64_t seed;
};

/// gtest would print the struct's raw bytes, padding included, and ctest
/// names the discovered tests after that printout; print the fields.
void PrintTo(const Scenario& s, std::ostream* os) {
  *os << "dim=" << s.dimensions << " L" << s.distance
      << " nn_min=" << s.nn_min << " seed=" << s.seed;
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "dim" + std::to_string(s.dimensions) + "_L" +
         std::to_string(s.distance) + "_nn" + std::to_string(s.nn_min) +
         "_seed" + std::to_string(s.seed);
}

class PolicyInvariantTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(PolicyInvariantTest, BookkeepingAndStructuralRulesHold) {
  const auto param = GetParam();
  ace::util::Rng rng(param.seed);

  // Random smooth separable surface.
  std::vector<double> slope(param.dimensions);
  for (auto& s : slope) s = rng.uniform(1.0, 8.0);
  auto surface = [&](const d::Config& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      acc += slope[i] * std::sqrt(static_cast<double>(c[i]) + 1.0);
    return acc;
  };

  d::PolicyOptions options;
  options.distance = param.distance;
  options.nn_min = param.nn_min;
  options.min_fit_points = 8;
  d::KrigingPolicy policy(options);

  std::size_t simulator_calls = 0;
  auto counted = [&](const d::Config& c) {
    ++simulator_calls;
    return surface(c);
  };

  // Random-walk evaluation pattern (mimics an optimizer's locality).
  d::Config current(param.dimensions, 8);
  for (int step = 0; step < 120; ++step) {
    const auto outcome = policy.evaluate(current, counted);

    // Invariant: interpolation never happens below the neighbour gate.
    if (outcome.interpolated) EXPECT_GT(outcome.neighbors, param.nn_min);

    // Invariant: an exact store hit is never also an interpolation, and
    // it reproduces the simulated surface value exactly.
    if (outcome.cached) {
      EXPECT_FALSE(outcome.interpolated);
      EXPECT_DOUBLE_EQ(outcome.value, surface(current));
    }

    // Invariant: value is finite.
    EXPECT_TRUE(std::isfinite(outcome.value));

    auto& coord = current[rng.index(param.dimensions)];
    coord = std::clamp(coord + (rng.bernoulli(0.5) ? 1 : -1), 2, 16);
  }

  const auto& stats = policy.stats();
  // Identity: every evaluation is simulated, interpolated, or an exact
  // store hit (the random walk does revisit configurations).
  EXPECT_EQ(stats.total,
            stats.simulated + stats.interpolated + stats.exact_hits);
  EXPECT_EQ(stats.total, 120u);
  // Identity: the store holds exactly the simulated configurations.
  EXPECT_EQ(policy.store().size(), stats.simulated);
  // Identity: the simulator ran exactly once per simulated entry.
  EXPECT_EQ(simulator_calls, stats.simulated);
  // Every stored value equals the surface at its configuration (no
  // interpolated value ever leaks into the support set).
  for (std::size_t i = 0; i < policy.store().size(); ++i)
    EXPECT_DOUBLE_EQ(policy.store().value(i),
                     surface(policy.store().config(i)));
}

TEST_P(PolicyInvariantTest, DeterministicAcrossIdenticalRuns) {
  const auto param = GetParam();
  auto run = [&]() {
    ace::util::Rng rng(param.seed);
    d::PolicyOptions options;
    options.distance = param.distance;
    options.nn_min = param.nn_min;
    options.min_fit_points = 8;
    d::KrigingPolicy policy(options);
    auto surface = [](const d::Config& c) {
      double acc = 0.0;
      for (int v : c) acc += 3.0 * v;
      return acc;
    };
    std::vector<double> values;
    d::Config current(param.dimensions, 8);
    for (int step = 0; step < 60; ++step) {
      values.push_back(policy.evaluate(current, surface).value);
      auto& coord = current[rng.index(param.dimensions)];
      coord = std::clamp(coord + (rng.bernoulli(0.5) ? 1 : -1), 2, 16);
    }
    return values;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    RandomWalks, PolicyInvariantTest,
    ::testing::Values(Scenario{2, 2, 1, 1001}, Scenario{2, 4, 1, 1002},
                      Scenario{3, 3, 1, 1003}, Scenario{3, 3, 2, 1004},
                      Scenario{5, 2, 1, 1005}, Scenario{5, 4, 2, 1006},
                      Scenario{8, 3, 1, 1007}, Scenario{10, 2, 1, 1008},
                      Scenario{10, 5, 3, 1009}, Scenario{23, 3, 1, 1010}),
    scenario_name);

}  // namespace
