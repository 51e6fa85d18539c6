// Methodological bench (Sec. III-A): quality of the semi-variogram
// identification per benchmark. Builds the exact-run trajectory, computes
// the empirical semi-variogram of the accuracy field over the explored
// configurations, fits every parametric family, and reports the weighted
// SSE of each, flagging the model the policy would select.
#include <iostream>

#include "core/benchmarks.hpp"
#include "core/table1.hpp"
#include "dse/config.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "util/table.hpp"

namespace {

void analyze(const ace::core::ApplicationBenchmark& bench,
             ace::util::TablePrinter& table) {
  const auto result = ace::core::run_table1(bench, {3});
  std::vector<std::vector<double>> points;
  points.reserve(result.trajectory.size());
  for (const auto& c : result.trajectory.configs)
    points.push_back(ace::dse::to_real(c));
  const ace::kriging::EmpiricalVariogram ev(points, result.trajectory.values,
                                            ace::kriging::l1_distance);
  const auto fits = ace::kriging::fit_all(ev);
  for (std::size_t i = 0; i < fits.size(); ++i) {
    table.add_row({bench.name, ace::kriging::family_name(fits[i].model.family),
                   ace::util::fmt(fits[i].weighted_sse, 3),
                   i == 0 ? "<- selected" : ""});
  }
}

}  // namespace

int main() {
  std::cout << "=== Sec. III-A: semi-variogram identification ===\n";
  ace::util::TablePrinter table({"benchmark", "family", "weighted SSE", ""});
  {
    ace::core::SignalBenchOptions o;
    o.samples = 256;
    analyze(ace::core::make_fir_benchmark(o), table);
    analyze(ace::core::make_iir_benchmark(o), table);
    analyze(ace::core::make_fft_benchmark(o), table);
  }
  {
    ace::core::CnnBenchOptions o;
    o.images = 60;
    analyze(ace::core::make_squeezenet_benchmark(o), table);
  }
  table.print(std::cout);
  std::cout << "\nlower SSE = better fit of γ̂(d); the policy picks the\n"
               "lowest-SSE family once per application (paper Sec. III-A)\n";
  return 0;
}
