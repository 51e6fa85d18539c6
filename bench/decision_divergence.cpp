// Reproduces the Sec. IV observation that kriging-in-the-loop changes
// roughly 10% of the optimizer's greedy decisions while converging to a
// similar final configuration.
#include <iostream>

#include "core/benchmarks.hpp"
#include "core/table1.hpp"
#include "dse/config.hpp"
#include "util/table.hpp"

namespace {

void report(const ace::core::ApplicationBenchmark& bench, int distance,
            ace::util::TablePrinter& table) {
  ace::dse::PolicyOptions options;
  options.distance = distance;
  const auto r = ace::core::run_decision_divergence(bench, options);

  table.add_row({bench.name, std::to_string(distance),
                 std::to_string(r.exact_steps),
                 std::to_string(r.kriging_steps),
                 ace::util::fmt(r.diverging_percent, 1),
                 std::to_string(r.result_l1_gap)});
}

}  // namespace

int main() {
  std::cout << "=== Sec. IV: optimizer decision divergence with kriging ===\n";
  ace::util::TablePrinter table({"benchmark", "d", "steps(exact)",
                                 "steps(kriging)", "diverging (%)",
                                 "final L1 gap"});
  for (int d = 2; d <= 4; ++d)
    report(ace::core::make_fir_benchmark(), d, table);
  for (int d = 2; d <= 3; ++d)
    report(ace::core::make_iir_benchmark(), d, table);
  {
    ace::core::SignalBenchOptions o;
    o.samples = 256;
    report(ace::core::make_fft_benchmark(o), 2, table);
  }
  table.print(std::cout);
  std::cout << "\npaper: ~10% of decisions differ; the greedy search\n"
               "compensates and lands on a similar result (small L1 gap)\n";
}
