// Micro-benchmarks (google-benchmark): the per-call costs behind the
// paper's 10⁻⁶-second interpolation claim — the kriging solve as a
// function of support size, neighbour search, variogram fitting, and the
// bit-accurate simulations it replaces (FIR, FFT, HEVC). CI regenerates
// BENCH_micro.json from this binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "build_info.hpp"
#include "dse/sim_store.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "signal/fft.hpp"
#include "signal/fir.hpp"
#include "signal/generator.hpp"
#include "util/rng.hpp"
#include "video/hevc_mc.hpp"

namespace {

std::vector<std::vector<double>> lattice_points(ace::util::Rng& rng,
                                                std::size_t n,
                                                std::size_t dim) {
  // Hash-set dedupe: the previous std::find made this setup O(n²) in the
  // number of points, which dominated the large-n benchmark setups.
  std::vector<std::vector<double>> pts;
  pts.reserve(n);
  std::unordered_set<ace::dse::Config, ace::dse::ConfigHash> seen;
  while (pts.size() < n) {
    ace::dse::Config c(dim);
    for (auto& x : c) x = rng.uniform_int(0, 16);
    if (!seen.insert(c).second) continue;
    pts.push_back(ace::dse::to_real(c));
  }
  return pts;
}

void BM_KrigingSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::util::Rng rng(1);
  const auto pts = lattice_points(rng, n, 10);
  const auto vals = rng.uniform_vector(n, -60.0, -20.0);
  const ace::kriging::VariogramModel model(
      ace::kriging::ModelFamily::kSpherical, 0.0, 10.0, 12.0);
  const std::vector<double> query(10, 8.0);
  // One-shot: build the system and factor it for a single query.
  for (auto _ : state) {
    ace::kriging::KrigingSystem system(
        ace::kriging::SystemSpec{ace::kriging::SystemKind::kOrdinary}, pts,
        vals, model);
    auto r = system.query(query);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KrigingSolve)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void fill_store(ace::dse::SimulationStore& store, std::size_t n,
                std::size_t dim, unsigned seed) {
  ace::util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ace::dse::Config c(dim);
    for (auto& x : c) x = rng.uniform_int(2, 16);
    store.add(std::move(c), rng.uniform());
  }
}

void BM_NeighborSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::dse::SimulationStore store;
  fill_store(store, n, 10, 2);
  const ace::dse::Config query(10, 9);
  for (auto _ : state) {
    auto hits = store.neighbors_within(query, 3);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_NeighborSearch)->Arg(64)->Arg(512)->Arg(4096);

// The unindexed linear scan — the baseline that shows what the
// coordinate-sum buckets actually buy.
void BM_NeighborSearchLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::dse::SimulationStore store;
  fill_store(store, n, 10, 2);
  const ace::dse::Config query(10, 9);
  for (auto _ : state) {
    auto hits = store.neighbors_within_linear(query, 3);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_NeighborSearchLinear)->Arg(64)->Arg(512)->Arg(4096);

// Wide-radius search: the coordinate-sum band covers the whole store, so
// the bucket walk degenerates into a full scan plus the ascending-index
// sort — the worst case of the indexed path.
void BM_NeighborSearchWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::dse::SimulationStore store;
  fill_store(store, n, 10, 2);
  const ace::dse::Config query(10, 9);
  for (auto _ : state) {
    auto hits = store.neighbors_within(query, 60);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NeighborSearchWide)->Arg(4096);

void BM_VariogramFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ace::util::Rng rng(3);
  const auto pts = lattice_points(rng, n, 5);
  std::vector<double> vals;
  for (const auto& p : pts) {
    double s = 0.0;
    for (double x : p) s += x;
    vals.push_back(-3.0 * s + rng.normal(0.0, 0.5));
  }
  const ace::kriging::EmpiricalVariogram ev(pts, vals);
  for (auto _ : state) {
    auto fit = ace::kriging::fit_best(ev);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_VariogramFit)->Arg(16)->Arg(64)->Arg(128);

void BM_FirSimulation(benchmark::State& state) {
  ace::util::Rng rng(4);
  const auto input = ace::signal::noisy_multitone(rng, 512);
  const ace::signal::FirFilter fir(ace::signal::design_lowpass_fir(64, 0.18));
  const ace::signal::QuantizedFirFilter q(fir);
  const std::vector<int> w = {10, 12};
  for (auto _ : state) {
    auto out = q.filter(input, w);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FirSimulation);

void BM_QuantizedFft64(benchmark::State& state) {
  ace::util::Rng rng(5);
  std::vector<std::complex<double>> frame(64);
  for (auto& v : frame)
    v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const ace::signal::QuantizedFft q(64, {frame});
  const std::vector<int> w(10, 12);
  for (auto _ : state) {
    auto out = q.transform(frame, w);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QuantizedFft64);

/// One HEVC simulation as the Table I DSE runs it: 24 motion-compensation
/// jobs through the 23-site fixed-point kernel at a mid-range word length.
void BM_HevcSimulation(benchmark::State& state) {
  ace::util::Rng rng(7);
  const auto jobs = ace::video::synthetic_jobs(rng, 24);
  const ace::video::QuantizedMotionCompensation q(jobs);
  const std::vector<int> w(ace::video::kMcSites, 10);
  for (auto _ : state) {
    auto out = q.interpolate(jobs, w);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HevcSimulation);

}  // namespace

// BENCHMARK_MAIN plus build provenance in the JSON "context" block, so a
// committed snapshot says which build type and commit produced it.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", ACE_BUILD_TYPE);
  benchmark::AddCustomContext("commit", ace::bench::commit_id());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
