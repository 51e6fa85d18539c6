// Extension ablation: ordinary kriging (the paper's estimator, constant
// unknown mean) vs universal kriging with a linear drift. Word-length
// accuracy surfaces trend strongly (≈6 dB per bit), so modelling the trend
// should cut the interpolation error — especially at larger d where the
// support sits farther from the query.
#include <iostream>
#include <optional>

#include "core/benchmarks.hpp"
#include "core/table1.hpp"
#include "dse/sim_store.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

void compare(const ace::core::ApplicationBenchmark& bench, int distance,
             ace::util::TablePrinter& table) {
  const auto with_drift = [&](ace::kriging::DriftKind drift) {
    ace::dse::PolicyOptions base;
    base.drift = drift;
    return ace::core::run_table1(bench, {distance}, base).rows.front();
  };
  const auto ok = with_drift(ace::kriging::DriftKind::kConstant);
  const auto uk = with_drift(ace::kriging::DriftKind::kLinear);
  table.add_row({bench.name, std::to_string(distance),
                 ace::util::fmt(ok.p_percent, 1), ace::util::fmt(ok.eps_mean, 2),
                 ace::util::fmt(ok.eps_max, 2), ace::util::fmt(uk.p_percent, 1),
                 ace::util::fmt(uk.eps_mean, 2),
                 ace::util::fmt(uk.eps_max, 2)});
}

/// Head-to-head OK vs *simple* kriging (the paper's prose says "simple
/// kriging" while its equations are ordinary kriging): replay the
/// trajectory once, and on every configuration both estimators can
/// serve, score both against the truth.
void simple_vs_ordinary(const ace::core::ApplicationBenchmark& bench,
                        int distance, ace::util::TablePrinter& table) {
  namespace k = ace::kriging;
  namespace d = ace::dse;
  const auto result = ace::core::run_table1(bench, {distance});
  const auto& trajectory = result.trajectory;

  d::SimulationStore store;
  ace::util::RunningStats ok_eps, sk_eps;
  std::optional<k::VariogramModel> model;
  double sill = 1.0;
  double mean = 0.0;

  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const auto& config = trajectory.configs[i];
    const double truth = trajectory.values[i];
    const auto hood = store.neighbors_within(config, distance);

    bool interpolated = false;
    if (hood.count() > 1 && store.size() >= 10) {
      if (!model) {
        std::vector<std::vector<double>> pts;
        for (const auto& c : store.configs()) pts.push_back(d::to_real(c));
        const k::EmpiricalVariogram ev(pts, store.values());
        model = k::fit_best(ev).model;
        sill = std::max(ev.value_variance(), 1e-9);
        mean = ace::util::mean(store.values());
      }
      std::vector<std::vector<double>> pts;
      std::vector<double> vals;
      store.gather(hood, pts, vals);
      const auto query = d::to_real(config);
      const auto ok = k::KrigingSystem({}, pts, vals, *model).query(query);
      const auto sk = k::KrigingSystem({k::SystemKind::kSimple,
                                        k::DriftKind::kConstant, sill, mean},
                                       pts, vals, *model)
                          .query(query);
      if (ok && sk) {
        interpolated = true;
        ok_eps.add(d::interpolation_epsilon(ok->estimate, truth,
                                            bench.metric));
        sk_eps.add(d::interpolation_epsilon(sk->estimate, truth,
                                            bench.metric));
      }
    }
    if (!interpolated) store.add(config, truth);
  }
  if (ok_eps.count() == 0) return;
  table.add_row({bench.name, std::to_string(distance),
                 std::to_string(ok_eps.count()),
                 ace::util::fmt(ok_eps.mean(), 2),
                 ace::util::fmt(sk_eps.mean(), 2)});
}

}  // namespace

int main() {
  std::cout << "=== Extension ablation: ordinary vs universal kriging ===\n";
  ace::util::TablePrinter table({"benchmark", "d", "OK p(%)", "OK mu",
                                 "OK max", "UK p(%)", "UK mu", "UK max"});
  ace::core::SignalBenchOptions signal_opt;
  signal_opt.w_max = 20;
  for (int d : {3, 5}) {
    compare(ace::core::make_fir_benchmark(signal_opt), d, table);
    compare(ace::core::make_iir_benchmark(signal_opt), d, table);
    compare(ace::core::make_fft_benchmark(), d, table);
    compare(ace::core::make_dct_benchmark(), d, table);
  }
  {
    ace::core::HevcBenchOptions o;
    o.jobs = 12;
    compare(ace::core::make_hevc_benchmark(o), 3, table);
  }
  table.print(std::cout);

  std::cout << "\n--- ordinary vs simple kriging (same served configs) ---\n";
  ace::util::TablePrinter sk_table(
      {"benchmark", "d", "configs", "OK mu eps", "SK mu eps"});
  simple_vs_ordinary(ace::core::make_fir_benchmark(signal_opt), 3, sk_table);
  simple_vs_ordinary(ace::core::make_iir_benchmark(signal_opt), 3, sk_table);
  simple_vs_ordinary(ace::core::make_fft_benchmark(), 3, sk_table);
  sk_table.print(std::cout);
  std::cout << "\nSK pins the mean to the store average (the paper's prose\n"
               "says 'simple kriging'; its equations are OK) — the pinned\n"
               "mean drags trending-surface estimates toward it\n";

  std::cout << "\neps in equivalent bits (Eq. 11). UK = regression kriging\n"
               "with a globally fitted linear trend. Finding: the trend\n"
               "rarely helps — word-length accuracy surfaces are only\n"
               "piecewise-trending (per-variable slopes until one source\n"
               "dominates, then a plateau), so the global fit misjudges\n"
               "local structure and the paper's constant-mean ordinary\n"
               "kriging is the more robust default\n";
  return 0;
}
