// Tests of the benchmark's own arithmetic (perf_arith.hpp).
#include "perf_arith.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace {

using perfbench::highest_supported;
using perfbench::percentile;
using perfbench::quartile_spread;
using perfbench::samples_beyond;
using perfbench::self_times;
using perfbench::Span;

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported(19).tail, 0u);  // median leaves only 9 above
  EXPECT_EQ(highest_supported(20).tail, perfbench::kP50.tail);
  EXPECT_EQ(highest_supported(99).tail, perfbench::kP50.tail);
  EXPECT_EQ(highest_supported(100).tail, perfbench::kP90.tail);
  EXPECT_EQ(highest_supported(999).tail, perfbench::kP90.tail);
  EXPECT_EQ(highest_supported(1000).tail, perfbench::kP99.tail);
  EXPECT_EQ(highest_supported(99999).tail, perfbench::kP999.tail);
  EXPECT_EQ(highest_supported(100000).tail, perfbench::kP9999.tail);
  EXPECT_EQ(highest_supported(50000000).tail, perfbench::kP9999.tail);
}

TEST(Percentile, SamplesBeyondIsExact) {
  // 99.99 % of 100000 is rank 99990: exactly 10 samples lie above it, a
  // count floating-point ceil(0.9999 * 100000) would get wrong.
  EXPECT_EQ(samples_beyond(100000, perfbench::kP9999), 10u);
  EXPECT_EQ(samples_beyond(1000, perfbench::kP99), 10u);
  EXPECT_EQ(samples_beyond(5, perfbench::kP50), 2u);
}

TEST(Percentile, NearestRankLeavesTheCountedSamplesAbove) {
  std::vector<double> xs = iota_values(1000);
  std::vector<double> shuffled(xs.rbegin(), xs.rend());
  EXPECT_EQ(percentile(shuffled, perfbench::kP99), 990.0);
  EXPECT_EQ(percentile(shuffled, perfbench::kP50), 500.0);
  std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_EQ(percentile(odd, perfbench::kP50), 3.0);
  std::vector<double> none;
  EXPECT_THROW(percentile(none, perfbench::kP50), std::invalid_argument);
}

TEST(QuartileSpread, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
  EXPECT_DOUBLE_EQ(quartile_spread(iota_values(10)), (8.25 - 2.75) / 5.5);
  // quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]; median 3.0.
  EXPECT_DOUBLE_EQ(quartile_spread({8.0, 1.0, 4.0, 2.0}), (7.0 - 1.25) / 3.0);
  // Two points clamp to the ends: quantiles([2, 4]) == [1.5, 3.0, 4.5].
  EXPECT_DOUBLE_EQ(quartile_spread({2.0, 4.0}), (4.5 - 1.5) / 3.0);
  EXPECT_DOUBLE_EQ(quartile_spread({7.0, 7.0, 7.0}), 0.0);
  EXPECT_THROW(quartile_spread({1.0}), std::invalid_argument);
  EXPECT_THROW(quartile_spread({-1.0, 0.0, 1.0}), std::invalid_argument);
}

TEST(Windows, CloseOnTimeAndTailSamplesAndDropAShortTail) {
  // p90 needs 100 samples; a window needs 1 s as well.
  perfbench::Windows windows(1.0, perfbench::kP90);
  for (int pass = 0; pass < 5; ++pass) {
    for (int i = 1; i <= 50; ++i)
      windows.samples().push_back(static_cast<double>(i + 100 * pass));
    windows.add_pass(0.5, 7);
  }
  // Passes 0-1 close window 1 (1 s, 100 samples), passes 2-3 window 2;
  // pass 4 never fills and is dropped.
  const std::vector<perfbench::WindowTiming> closed = windows.finish();
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_DOUBLE_EQ(closed[0].pass_median_s, 0.5);
  EXPECT_DOUBLE_EQ(closed[0].evals_per_s, 14.0);
  EXPECT_EQ(closed[0].p50, 50.0);   // samples 1..50 and 101..150
  EXPECT_EQ(closed[0].tail, 140.0);  // 10 samples above it
  EXPECT_EQ(closed[0].samples, 100u);
  EXPECT_EQ(closed[1].p50, 250.0);

  const perfbench::WindowTiming best = perfbench::best_window(
      {{2.0, 10.0, 5.0, 9.0, 300}, {3.0, 20.0, 4.0, 8.0, 200},
       {1.0, 5.0, 6.0, 7.0, 400}});
  EXPECT_EQ(best.pass_median_s, 1.0);
  EXPECT_EQ(best.evals_per_s, 20.0);
  EXPECT_EQ(best.p50, 4.0);
  EXPECT_EQ(best.tail, 7.0);
  EXPECT_EQ(best.samples, 200u);
}

TEST(Windows, AShortRunIsOneWindowOrAnError) {
  perfbench::Windows enough(10.0, perfbench::kP50);
  for (int i = 0; i < 20; ++i) enough.samples().push_back(i);
  enough.add_pass(1.0, 1);
  EXPECT_EQ(enough.finish().size(), 1u);

  perfbench::Windows too_few(10.0, perfbench::kP90);
  for (int i = 0; i < 20; ++i) too_few.samples().push_back(i);
  too_few.add_pass(1.0, 1);
  EXPECT_THROW(too_few.finish(), std::runtime_error);
  EXPECT_THROW(perfbench::best_window({}), std::invalid_argument);
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      {"root", 1, 0, 1, 0, 100},
      {"a", 2, 1, 1, 10, 40},
      {"b", 3, 1, 1, 30, 50},   // overlaps a: 10..50 counted once
      {"c", 4, 1, 1, 90, 120},  // clipped to the parent's end at 100
      {"grandchild", 5, 2, 1, 15, 25},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);  // children cover 10..50 and 90..100
  EXPECT_EQ(self[1], 30 - 10);        // only the grandchild, not b
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
}

TEST(SelfTime, UnknownParentLeavesTheSpanWhole) {
  const std::vector<Span> spans = {{"orphan", 7, 99, 1, 5, 8}};
  EXPECT_EQ(self_times(spans).at(0), 3);
}

}  // namespace
