// ace_perf — the measuring program of the repository benchmark.
//
//   ace_perf --workload dse|serve --seed N --seconds S --trace 0|1
//            [--commit ID] [--trace-file PATH]
//
// Every workload runs a fixed set of DSE runs, built from --seed, over and
// over for --seconds ("passes"), on the library's public API only:
//
//   dse     kriged ErrorEvaluationEngine DSE runs with the real simulators.
//           The simulators do most of the work; a surrogate-only speed-up
//           should not show here, saved simulations should. Its exact twins
//           are the paper's Table I runs (core::run_table1), which this
//           file replays itself as a check and, traced, with probes into
//           the store, kriging and fit layers.
//   serve   FIR/IIR/FFT min+1 sessions through serve::SessionManager (two
//           service threads, inline simulation), far more sessions than
//           resident slots, so nearly every slice parks and resumes.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 untraced and traced passes alternate and it carries the
// per-layer metrics, measured by spans this file records around calls into
// the library. The line before it is the run context (host, build, sample
// counts). Any output that disagrees with its reference counts as a failed
// operation; an operation is one DSE run (a kriged DSE or a session) or
// one reference check.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/benchmarks.hpp"
#include "core/engine.hpp"
#include "core/table1.hpp"
#include "dse/checkpoint.hpp"
#include "dse/kriging_policy.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "dse/steepest_descent.hpp"
#include "dse/trajectory.hpp"
#include "kriging/empirical_variogram.hpp"
#include "kriging/fit.hpp"
#include "kriging/system.hpp"
#include "perf_arith.hpp"
#include "serve/session.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace core = ace::core;
namespace dse = ace::dse;
namespace kriging = ace::kriging;
namespace serve = ace::serve;
using perfbench::Percentile;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// splitmix64 over (seed, a, b): the input seed of one generated case.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Records spans at the boundaries of calls into the library. Single-
/// threaded: only the thread that drives a workload records. Spans of one
/// pass are folded into per-name statistics at the end of the pass (so
/// memory stays bounded); the first traced pass is kept for the trace file.
class Tracer {
 public:
  struct Open {
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
  };

  Open open() {
    const Open o{++next_id_, now_ns()};
    stack_.push_back(o.id);
    return o;
  }

  void close(const Open& o, const char* name) {
    const std::int64_t end = now_ns();
    stack_.pop_back();
    spans_.push_back(perfbench::Span{name, o.id,
                                     stack_.empty() ? 0 : stack_.back(),
                                     request_, o.start_ns, end});
  }

  void set_request(std::uint64_t request) { request_ = request; }

  /// Fold the current pass's spans into the per-name statistics.
  void fold() {
    const std::vector<std::int64_t> self = perfbench::self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals_[spans_[i].name];
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      ++t.count;
      t.busy_ns += duration;
      t.self_ns += self[i];
      if (t.durations_ns.size() < kSamplesPerName)
        t.durations_ns.push_back(static_cast<double>(duration));
    }
    if (kept_.empty()) kept_ = spans_;
    spans_.clear();
  }

  /// p-th percentile duration of the named span, in µs (0 if never seen).
  /// Throws when the samples cannot support p (fewer than ten beyond it).
  double percentile_us(const std::string& name, Percentile p) {
    const auto it = totals_.find(name);
    if (it == totals_.end() || it->second.durations_ns.empty()) return 0.0;
    std::vector<double>& xs = it->second.durations_ns;
    if (!perfbench::supported(xs.size(), p))
      throw std::runtime_error(name + ": " + std::to_string(xs.size()) +
                               " spans cannot support p" +
                               std::to_string(p.percent()));
    return perfbench::percentile(xs, p) * 1e-3;
  }
  double mean_us(const std::string& name) const {
    const auto it = totals_.find(name);
    if (it == totals_.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.busy_ns) * 1e-3 /
           static_cast<double>(it->second.count);
  }
  std::size_t count(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.count;
  }
  double busy_s(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : static_cast<double>(it->second.busy_ns) * 1e-9;
  }
  double self_s(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : static_cast<double>(it->second.self_ns) * 1e-9;
  }

  /// Write the first traced pass's spans as CSV.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    out << "name,id,parent,request,start_ns,end_ns\n";
    for (const perfbench::Span& s : kept_)
      out << s.name << ',' << s.id << ',' << s.parent << ',' << s.request
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  static constexpr std::size_t kSamplesPerName = 200000;
  struct Totals {
    std::size_t count = 0;
    std::int64_t busy_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<double> durations_ns;
  };
  std::uint64_t next_id_ = 0;
  std::uint64_t request_ = 0;
  std::vector<std::uint64_t> stack_;
  std::vector<perfbench::Span> spans_;
  std::vector<perfbench::Span> kept_;
  std::map<std::string, Totals> totals_;
};

/// RAII span with a fixed name; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
    if (tracer_) open_ = tracer_->open();
  }
  ~Scope() {
    if (tracer_) tracer_->close(open_, name_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Tracer::Open open_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `context` is free-form JSON members.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< First few, for the log.
  std::ostringstream context;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  template <class T>
  void note(const std::string& key, const T& value) {
    context << ",\"" << key << "\":" << value;
  }
};

/// Peak resident set of the process so far, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Interpolation error ε of a workload's DSE runs: the mean over all their
/// interpolations, and each run's max averaged over the runs that
/// interpolated at all (Table I's μ ε and max ε, taken over many runs).
struct EpsStats {
  double sum = 0.0;
  std::size_t count = 0;
  double max_sum = 0.0;
  std::size_t runs = 0;

  /// Fold in one run's ε values.
  void add_run(const std::vector<double>& eps) {
    if (eps.empty()) return;
    double max = 0.0;
    for (double e : eps) {
      sum += e;
      max = std::max(max, e);
    }
    count += eps.size();
    max_sum += max;
    ++runs;
  }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  double max_mean() const {
    return runs == 0 ? 0.0 : max_sum / static_cast<double>(runs);
  }
};

/// Per-pass sums of the policy counters the per-layer report shows.
struct PolicyTotals {
  std::size_t total = 0, simulated = 0, interpolated = 0, refits = 0,
              failed_refits = 0, ridge_fallbacks = 0, kriging_failures = 0,
              full_factorizations = 0, neighbor_n = 0;
  double neighbor_sum = 0.0;

  void add(const dse::PolicyStats& s) {
    total += s.total;
    simulated += s.simulated;
    interpolated += s.interpolated;
    refits += s.refits;
    failed_refits += s.failed_refits;
    ridge_fallbacks += s.ridge_fallbacks;
    kriging_failures += s.kriging_failures;
    full_factorizations += s.full_factorizations;
    neighbor_n += s.neighbors_per_interpolation.count();
    neighbor_sum += s.neighbors_per_interpolation.mean() *
                    static_cast<double>(s.neighbors_per_interpolation.count());
  }

  void report(Report& r) const {
    r.add("linalg.full_factorizations", static_cast<double>(full_factorizations),
          "count");
    r.add("dse.policy.refits", static_cast<double>(refits), "count");
    r.add("dse.policy.failed_refits", static_cast<double>(failed_refits),
          "count");
    r.add("dse.policy.ridge_fallbacks", static_cast<double>(ridge_fallbacks),
          "count");
    r.add("dse.policy.kriging_failures", static_cast<double>(kriging_failures),
          "count");
    r.add("dse.policy.neighbors_mean",
          neighbor_n == 0 ? 0.0
                          : neighbor_sum / static_cast<double>(neighbor_n),
          "count");
    r.add("dse.policy.interpolated", static_cast<double>(interpolated),
          "count");
    r.add("dse.policy.simulated", static_cast<double>(simulated), "count");
  }
};

/// Least duration of one best-of-repetitions window. On the VM this was
/// sized on, the speed of a fixed pass flips between two levels ~1.5x
/// apart for seconds to minutes at a time (contention from outside the
/// process); timing metrics are taken from a run's best window.
constexpr double kWindowSeconds = 2.0;

/// The untraced passes of a run. A pass appends its request latencies to
/// windows.samples() and adds its evaluations to `evals`.
struct Series {
  explicit Series(Percentile tail) : windows(kWindowSeconds, tail) {}
  perfbench::Windows windows;
  std::size_t evals = 0;
  std::vector<double> pass_s;  ///< Wall time of every untraced pass.
};

/// What every workload hands back to main().
struct WorkloadOut {
  explicit WorkloadOut(Percentile latency_tail)
      : tail(latency_tail), series(latency_tail) {}
  Percentile tail;                    ///< Fixed tail percentile.
  std::vector<double> setup_s;        ///< One entry per repeated set-up.
  double peak_rss_mb = 0.0;
  Series series;                      ///< Untraced passes.
  std::vector<double> traced_pass_s;  ///< Traced pass walls (--trace 1).
  double sim_share_pct = 0.0;
  double eps_mean_bits = 0.0;
  double eps_max_bits = 0.0;
};

/// The loop every workload shares: passes until `seconds` have elapsed (at
/// least one untraced pass, plus one traced), each timed and folded into
/// best-of-repetitions windows (see perf_arith.hpp). With tracing, odd
/// passes run traced.
template <class PassFn>
void run_passes(double seconds, Tracer* tracer, WorkloadOut& out,
                PassFn&& pass) {
  const std::size_t min_passes = tracer ? 2 : 1;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;
       i < min_passes || seconds_since(start) < seconds; ++i) {
    Tracer* t = tracer != nullptr && i % 2 == 1 ? tracer : nullptr;
    const std::size_t evals_before = out.series.evals;
    const std::int64_t t0 = now_ns();
    pass(t);
    const double wall = seconds_since(t0);
    if (t) {
      out.traced_pass_s.push_back(wall);
      t->fold();
    } else {
      out.series.pass_s.push_back(wall);
      out.series.windows.add_pass(wall, out.series.evals - evals_before);
    }
  }
}

/// Run the workload's set-up `times` times, recording each wall time, and
/// keep the last result.
template <class SetupFn>
auto repeat_setup(std::size_t times, WorkloadOut& out, SetupFn&& setup) {
  std::int64_t t0 = now_ns();
  auto result = setup();
  out.setup_s.push_back(seconds_since(t0));
  for (std::size_t i = 1; i < times; ++i) {
    t0 = now_ns();
    auto again = setup();
    out.setup_s.push_back(seconds_since(t0));
    result = std::move(again);
  }
  return result;
}

/// Table I kernel k (0 FIR, 1 IIR, 2 FFT, 3 HEVC, 4 SqueezeNet) with its
/// Table I options — FIR and IIR at w_max 20, the rest at their defaults —
/// and the input seed `seed`.
core::ApplicationBenchmark make_table1_kernel(std::uint64_t k,
                                              std::uint64_t seed) {
  if (k <= 2) {
    core::SignalBenchOptions opt;
    opt.seed = seed;
    if (k == 2) return core::make_fft_benchmark(opt);
    opt.w_max = 20;
    return k == 0 ? core::make_fir_benchmark(opt)
                  : core::make_iir_benchmark(opt);
  }
  if (k == 3) {
    core::HevcBenchOptions opt;
    opt.seed = seed;
    return core::make_hevc_benchmark(opt);
  }
  core::CnnBenchOptions opt;
  opt.seed = seed;
  return core::make_squeezenet_benchmark(opt);
}

// ---------------------------------------------------------------------------
// Table I replay (the dse workload's check and per-layer probes)
// ---------------------------------------------------------------------------

/// Replay an exact trajectory through a fresh paper-default policy (d = 3)
/// with a lookup simulator: the paper's Table I protocol, with the same
/// arithmetic as core::run_table1, so its row can be compared exactly.
/// Traced, each call is preceded by read-only store probes and followed by
/// a kriging probe on the gathered support (and a fit probe when the call
/// refitted); a probe estimate that differs from the policy's is counted
/// in `mismatches`.
core::Table1Row replay_trajectory(const dse::Trajectory& traj,
                                  dse::MetricKind metric, Tracer* tracer,
                                  std::size_t& mismatches) {
  dse::PolicyOptions options;
  options.distance = 3;
  dse::KrigingPolicy policy(options);
  double true_value = 0.0;
  const dse::SimulatorFn lookup = [&true_value](const dse::Config&) {
    return true_value;
  };
  double eps_acc = 0.0, eps_max = 0.0;
  std::size_t eps_n = 0;
  for (std::size_t i = 0; i < traj.size(); ++i) {
    const dse::Config& config = traj.configs[i];
    true_value = traj.values[i];
    dse::EvalOutcome outcome;
    if (!tracer) {
      outcome = policy.evaluate(config, lookup);
    } else {
      dse::Neighborhood hood;
      {
        Scope s(tracer, "dse.store.find");
        (void)policy.store().find(config);
      }
      {
        Scope s(tracer, "dse.store.neighbors_within");
        hood = policy.store().neighbors_within(config, options.distance);
      }
      const std::size_t refits_before = policy.stats().refits;
      const Tracer::Open o = tracer->open();
      outcome = policy.evaluate(config, lookup);
      const bool refitted = policy.stats().refits != refits_before;
      tracer->close(o, refitted              ? "dse.policy.refit_eval"
                       : outcome.interpolated ? "dse.policy.interpolate"
                       : outcome.cached       ? "dse.policy.cached"
                                              : "dse.policy.simulate_path");
      if (refitted) {
        const dse::SimulationStore& store = policy.store();
        std::vector<std::vector<double>> points;
        for (const dse::Config& stored : store.configs())
          points.push_back(dse::to_real(stored));
        const kriging::EmpiricalVariogram ev(points, store.values());
        Scope s(tracer, "kriging.fit");
        (void)kriging::fit_best(ev, options.fit);
      }
      if (outcome.interpolated) {
        std::vector<std::vector<double>> points;
        std::vector<double> values;
        policy.store().gather(hood, points, values);
        const auto model = policy.model();
        std::optional<kriging::KrigingResult> solved;
        {
          Scope s(tracer, "kriging.system_query");
          kriging::KrigingSystem system(
              kriging::SystemSpec{kriging::SystemKind::kOrdinary}, points,
              values, *model, kriging::l1_distance);
          solved = system.query(dse::to_real(config));
        }
        if (!solved || solved->estimate != outcome.value) ++mismatches;
      }
    }
    if (outcome.interpolated) {
      const double eps =
          dse::interpolation_epsilon(outcome.value, traj.values[i], metric);
      eps_acc += eps;
      eps_max = std::max(eps_max, eps);
      ++eps_n;
    }
  }
  const dse::PolicyStats stats = policy.stats();
  core::Table1Row row;
  row.distance = options.distance;
  row.p_percent = stats.interpolated_fraction() * 100.0;
  row.j_mean = stats.neighbors_per_interpolation.mean();
  row.eps_max = eps_max;
  row.eps_mean = eps_n == 0 ? 0.0 : eps_acc / static_cast<double>(eps_n);
  return row;
}

bool same_row(const core::Table1Row& a, const core::Table1Row& b) {
  return a.distance == b.distance && a.p_percent == b.p_percent &&
         a.j_mean == b.j_mean && a.eps_max == b.eps_max &&
         a.eps_mean == b.eps_mean;
}

// ---------------------------------------------------------------------------
// Workload: dse
// ---------------------------------------------------------------------------

/// One kriged DSE case; `simulate` is the benchmark-owned wrapper that
/// records a span per simulator call while a tracer is installed.
struct DseCase {
  std::string kernel;  ///< fir, iir, fft, hevc, squeezenet.
  core::ApplicationBenchmark bench;
  dse::SimulatorFn simulate;
  double lambda_min = 0.0;
};

/// Kernel copies in every timed pass: FIR, IIR, FFT, HEVC. SqueezeNet runs
/// once per run, outside the passes (see the workload notes in run_dse).
constexpr std::size_t kDseCopies[4] = {12, 4, 4, 4};
constexpr std::size_t kSqueezeNetCopies = 3;

struct DseCases {
  std::vector<DseCase> timed;
  std::vector<DseCase> squeezenet;
};

DseCases dse_setup(std::uint64_t seed, Tracer* const* tracer_slot) {
  static const char* const kNames[5] = {"fir", "iir", "fft", "hevc",
                                        "squeezenet"};
  static const char* const kSpans[5] = {"signal.sim", "signal.sim",
                                        "signal.sim", "video.sim", "nn.sim"};
  const auto wrap = [tracer_slot](dse::SimulatorFn inner, const char* span) {
    return dse::SimulatorFn([tracer_slot, inner = std::move(inner),
                             span](const dse::Config& c) {
      Scope s(*tracer_slot, span);
      return inner(c);
    });
  };
  DseCases cases;
  for (std::uint64_t k = 0; k < 5; ++k) {
    const std::size_t copies = k < 4 ? kDseCopies[k] : kSqueezeNetCopies;
    for (std::uint64_t i = 0; i < copies; ++i) {
      DseCase c;
      c.kernel = kNames[k];
      c.bench = make_table1_kernel(k, derive_seed(seed, 100 + k, i));
      c.simulate = wrap(c.bench.simulate, kSpans[k]);
      c.lambda_min = c.bench.optimizer == core::OptimizerKind::kMinPlusOne
                         ? c.bench.min_plus_one.lambda_min
                         : c.bench.sensitivity.lambda_min;
      (k < 4 ? cases.timed : cases.squeezenet).push_back(std::move(c));
    }
  }
  return cases;
}

struct DseRun {
  dse::Config solution;
  double lambda = 0.0;
  std::vector<std::size_t> decisions;
  dse::PolicyStats stats;
  double wall_s = 0.0;
  /// Unique interpolated configurations with their kriged values.
  std::map<dse::Config, double> interpolated;

  void take(const dse::MinPlusOneResult& r) {
    solution = r.w_res;
    lambda = r.final_lambda;
    decisions = r.decisions;
  }
  void take(const dse::SensitivityResult& r) {
    solution = r.levels;
    lambda = r.final_lambda;
    decisions = r.decisions;
  }
  bool same_decisions(const DseRun& o) const {
    return solution == o.solution && lambda == o.lambda &&
           decisions == o.decisions;
  }
};

/// One kriged DSE through the engine. Untraced and unrecorded it is the
/// user's own call (optimize_word_lengths / analyze_sensitivity); traced or
/// recording, the same optimizer gets an evaluator that wraps
/// engine.evaluate — the engine's as_evaluator() does exactly that.
DseRun run_kriged(const DseCase& c, Tracer* tracer, bool record) {
  DseRun run;
  core::ErrorEvaluationEngine engine(c.simulate, dse::PolicyOptions{},
                                     c.bench.metric);
  const bool sens = c.bench.optimizer == core::OptimizerKind::kSensitivity;
  const std::int64_t t0 = now_ns();
  if (!tracer && !record) {
    if (sens)
      run.take(engine.analyze_sensitivity(c.bench.sensitivity));
    else
      run.take(engine.optimize_word_lengths(c.bench.min_plus_one));
  } else {
    const dse::EvaluateFn evaluate = [&](const dse::Config& config) {
      dse::EvalOutcome o;
      if (tracer) {
        const Tracer::Open open = tracer->open();
        o = engine.evaluate(config);
        tracer->close(open, "dse.policy.evaluate");
      } else {
        o = engine.evaluate(config);
      }
      if (record && o.interpolated) run.interpolated.emplace(config, o.value);
      return o.value;
    };
    Scope s(tracer, "core.optimize");
    if (sens)
      run.take(dse::steepest_descent_budgeting(evaluate, c.bench.sensitivity));
    else
      run.take(dse::min_plus_one(evaluate, c.bench.min_plus_one));
  }
  run.wall_s = seconds_since(t0);
  run.stats = engine.stats();
  return run;
}

/// The exact twin of one case, as core::run_table1 runs it: the same
/// optimizer with every configuration simulated once, then its trajectory
/// replayed through the policy at d = 3.
struct ExactTwin {
  core::Table1Result table1;
  double wall_s = 0.0;  ///< The exact run alone: run_table1 minus its replay.
};

/// ε of a run's interpolations against their exact values.
std::vector<double> run_eps(
    const std::map<dse::Config, double>& interpolated,
    const std::function<double(const dse::Config&)>& exact,
    dse::MetricKind kind) {
  std::vector<double> eps;
  for (const auto& [config, value] : interpolated)
    eps.push_back(dse::interpolation_epsilon(value, exact(config), kind));
  return eps;
}

WorkloadOut run_dse(std::uint64_t seed, double seconds, Tracer* tracer,
                    Report& report) {
  WorkloadOut out(perfbench::kP90);
  // The simulator wrappers read the tracer through this slot, so a span is
  // recorded only while a traced pass has installed one.
  Tracer* active = nullptr;
  const DseCases cases =
      repeat_setup(5, out, [&] { return dse_setup(seed, &active); });
  const std::vector<DseCase>& timed = cases.timed;

  // References, once per run: every case's exact twin (its Table I row
  // checked against this file's own replay of the trajectory), its
  // recorded kriged run, ε against exact simulation and the λ_min verdict
  // of the returned configuration under exact simulation.
  std::vector<ExactTwin> twins;
  std::vector<DseRun> reference;
  std::size_t kriged_sims = 0, exact_sims = 0, infeasible = 0;
  EpsStats eps;
  for (const DseCase& c : timed) {
    ExactTwin twin;
    const std::int64_t t0 = now_ns();
    twin.table1 = core::run_table1(c.bench, {3});
    const double table1_s = seconds_since(t0);
    std::size_t unused = 0;
    const std::int64_t r0 = now_ns();
    const core::Table1Row row = replay_trajectory(
        twin.table1.trajectory, c.bench.metric, nullptr, unused);
    twin.wall_s = table1_s - seconds_since(r0);
    report.check(same_row(row, twin.table1.rows.at(0)),
                 c.kernel + " Table I replay vs core::run_table1");

    const dse::Trajectory& traj = twin.table1.trajectory;
    std::unordered_map<dse::Config, double, dse::ConfigHash> exact;
    for (std::size_t i = 0; i < traj.size(); ++i)
      exact.emplace(traj.configs[i], traj.values[i]);
    const auto exact_value = [&](const dse::Config& config) {
      const auto it = exact.find(config);
      return it != exact.end() ? it->second : c.bench.simulate(config);
    };
    reference.push_back(run_kriged(c, nullptr, true));
    eps.add_run(
        run_eps(reference.back().interpolated, exact_value, c.bench.metric));
    kriged_sims += reference.back().stats.simulated;
    exact_sims += traj.size();
    if (exact_value(reference.back().solution) < c.lambda_min) ++infeasible;
    twins.push_back(std::move(twin));
  }
  // SqueezeNet: its run length swings from 1 to ~90 simulations of ~25-60 ms
  // with the seed, and its exact twin costs 15-40 s, so it stays out of the
  // timed passes and of the exact-twin metrics; its kriged runs and λ_min
  // verdicts still run and are reported on every run.
  std::vector<double> nn_wall;
  std::size_t nn_infeasible = 0;
  Tracer nn_tracer;  // Kept apart so the pass shares cover timed runs only.
  for (const DseCase& c : cases.squeezenet) {
    Tracer* t = tracer ? &nn_tracer : nullptr;
    active = t;
    const DseRun run = run_kriged(c, t, false);
    active = nullptr;
    nn_wall.push_back(run.wall_s);
    if (c.bench.simulate(run.solution) < c.lambda_min) ++nn_infeasible;
  }
  nn_tracer.fold();
  const std::size_t all_runs = timed.size() + cases.squeezenet.size();
  report.note("dse_runs_per_pass", timed.size());
  report.note("infeasible_runs", infeasible + nn_infeasible);
  report.note("infeasible_squeezenet_runs", nn_infeasible);
  report.note("infeasible_of_runs", all_runs);

  out.peak_rss_mb = peak_rss_mb();
  out.sim_share_pct =
      100.0 * static_cast<double>(kriged_sims) / static_cast<double>(exact_sims);
  out.eps_mean_bits = eps.mean();
  out.eps_max_bits = eps.max_mean();

  std::size_t evals_per_pass = 0;
  for (const DseRun& r : reference) evals_per_pass += r.stats.total;

  std::map<std::string, std::vector<double>> kernel_wall;  // Untraced.
  PolicyTotals traced_totals;
  run_passes(seconds, tracer, out, [&](Tracer* t) {
    active = t;
    PolicyTotals totals;
    std::map<std::string, double> pass_kernel_wall;
    for (std::size_t k = 0; k < timed.size(); ++k) {
      if (t) t->set_request(k + 1);
      const DseRun run = run_kriged(timed[k], t, false);
      report.check(run.same_decisions(reference[k]),
                   timed[k].kernel + " kriged DSE vs its reference run");
      totals.add(run.stats);
      if (!t) {
        pass_kernel_wall[timed[k].kernel] += run.wall_s;
        out.series.windows.samples().push_back(run.wall_s * 1e6);
      }
    }
    active = nullptr;
    if (!t) {
      out.series.evals += evals_per_pass;
      for (const auto& [kernel, wall] : pass_kernel_wall)
        kernel_wall[kernel].push_back(wall);
    }
    if (t && traced_totals.total == 0) traced_totals = totals;
  });

  if (tracer) {
    Tracer& tr = *tracer;
    double traced_wall = 0.0;
    for (double w : out.traced_pass_s) traced_wall += w;
    const double sim_busy = tr.busy_s("signal.sim") + tr.busy_s("video.sim");
    report.add("signal.sim_us_p50",
               tr.percentile_us("signal.sim", perfbench::kP50), "us");
    report.add("video.sim_us_p50",
               tr.percentile_us("video.sim", perfbench::kP50), "us");
    report.add("nn.sim_ms_p50",
               nn_tracer.percentile_us("nn.sim", perfbench::kP50) * 1e-3, "ms");
    report.add("nn.dse_wall_s", perfbench::median(nn_wall), "s");
    report.add("sim.calls",
               static_cast<double>(tr.count("signal.sim") +
                                   tr.count("video.sim")) /
                   static_cast<double>(out.traced_pass_s.size()),
               "count");
    report.add("sim.busy_share", sim_busy / traced_wall, "ratio");
    report.add("dse.policy.self_share",
               tr.self_s("dse.policy.evaluate") / traced_wall, "ratio");
    report.add("core.optimizer.self_share",
               tr.self_s("core.optimize") / traced_wall, "ratio");
    traced_totals.report(report);
    // Measured speed-up (exact-twin wall / kriged wall) beside the one
    // core::measure_speedup models from simulation probes.
    for (const char* kernel : {"fir", "iir", "fft", "hevc"}) {
      double exact_wall = 0.0, model = 0.0;
      std::size_t n = 0;
      for (std::size_t k = 0; k < timed.size(); ++k) {
        if (timed[k].kernel != kernel) continue;
        exact_wall += twins[k].wall_s;
        model += core::measure_speedup(timed[k].bench, twins[k].table1, 3)
                     .speedup;
        ++n;
      }
      const std::string k(kernel);
      report.add("core.speedup_x." + k,
                 exact_wall / perfbench::median(kernel_wall.at(k)), "x");
      report.add("core.speedup_model_x." + k, model / static_cast<double>(n),
                 "x");
    }
    report.add("core.infeasible_runs",
               static_cast<double>(infeasible + nn_infeasible), "count");
    report.add("core.infeasible_pct",
               100.0 * static_cast<double>(infeasible + nn_infeasible) /
                   static_cast<double>(all_runs),
               "%");

    // The exact trajectories replayed with store, kriging and fit probes:
    // where an evaluation's time goes when the simulator costs nothing.
    Tracer replay;
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < timed.size(); ++k) {
      replay.set_request(k + 1);
      (void)replay_trajectory(twins[k].table1.trajectory,
                              timed[k].bench.metric, &replay, mismatches);
    }
    replay.fold();
    report.check(mismatches == 0, "kriging probe estimate vs policy estimate");
    report.add("dse.policy.interpolate_us_p50",
               replay.percentile_us("dse.policy.interpolate", perfbench::kP50),
               "us");
    report.add("dse.policy.refit_eval_us_p50",
               replay.percentile_us("dse.policy.refit_eval", perfbench::kP50),
               "us");
    report.add("dse.policy.simulate_path_us_p50",
               replay.percentile_us("dse.policy.simulate_path", perfbench::kP50),
               "us");
    report.add(
        "dse.store.neighbors_within_us_p50",
        replay.percentile_us("dse.store.neighbors_within", perfbench::kP50),
        "us");
    report.add("dse.store.find_us_p50",
               replay.percentile_us("dse.store.find", perfbench::kP50), "us");
    report.add("kriging.system_query_us_p50",
               replay.percentile_us("kriging.system_query", perfbench::kP50),
               "us");
    report.add("kriging.fit_ms_p50",
               replay.percentile_us("kriging.fit", perfbench::kP50) * 1e-3,
               "ms");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: serve
// ---------------------------------------------------------------------------

constexpr std::size_t kServeSessions = 240;
constexpr std::size_t kSliceSteps = 2;
constexpr std::size_t kServiceThreads = 2;

/// A session spec with its standalone run: the service's identity oracle,
/// the generator's slice plan and the source of the quality metrics.
struct ServeCase {
  serve::SessionSpec spec;
  dse::MinPlusOneResult reference;
  dse::PolicyStats stats;
  std::map<dse::Config, double> interpolated;  ///< Unique, kriged values.
  std::size_t slices = 0;  ///< Slices the generator submits.
};

/// Run a session's spec standalone, the way the service steps it (one
/// policy, evaluate_batch per candidate set, as policy_batch_evaluator
/// does), recording its interpolations.
void run_standalone(ServeCase& c) {
  dse::KrigingPolicy policy(c.spec.policy);
  const dse::BatchEvaluateFn evaluate =
      [&](const std::vector<dse::Config>& batch) {
        const std::vector<dse::EvalOutcome> outcomes =
            policy.evaluate_batch(batch, c.spec.simulate);
        std::vector<double> values;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          values.push_back(outcomes[i].value);
          if (outcomes[i].interpolated)
            c.interpolated.emplace(batch[i], outcomes[i].value);
        }
        return values;
      };
  dse::MinPlusOneCursor cursor =
      dse::make_min_plus_one_cursor(c.spec.min_plus);
  std::size_t step_calls = 1;
  while (dse::min_plus_one_step(evaluate, c.spec.min_plus, cursor))
    ++step_calls;
  c.reference = dse::min_plus_one_result(cursor, c.spec.min_plus);
  c.stats = policy.stats();
  c.slices = (step_calls + kSliceSteps - 1) / kSliceSteps;
}

/// Session specs (FIR / IIR / FFT rotating, inputs and λ_min from the seed)
/// with their standalone runs.
std::vector<ServeCase> serve_setup(std::uint64_t seed) {
  std::vector<ServeCase> cases(kServeSessions);
  for (std::size_t i = 0; i < kServeSessions; ++i) {
    core::SignalBenchOptions opt;
    opt.samples = 64;  // FFT needs a multiple of 64.
    opt.seed = derive_seed(seed, 200, i);
    opt.lambda_min_db = 28.0 + static_cast<double>(opt.seed % 7);
    opt.w_max = 10;
    const core::ApplicationBenchmark bench =
        i % 3 == 0   ? core::make_fir_benchmark(opt)
        : i % 3 == 1 ? core::make_iir_benchmark(opt)
                     : core::make_fft_benchmark(opt);
    ServeCase& c = cases[i];
    c.spec.name = bench.name + " #" + std::to_string(i);
    c.spec.optimizer = serve::OptimizerKind::kMinPlusOne;
    c.spec.min_plus = bench.min_plus_one;
    c.spec.simulate = bench.simulate;
    run_standalone(c);
  }
  return cases;
}

bool same_result(const dse::MinPlusOneResult& a, const dse::MinPlusOneResult& b) {
  return a.decisions == b.decisions && a.w_min == b.w_min &&
         a.w_res == b.w_res && a.constraint_met == b.constraint_met &&
         a.final_lambda == b.final_lambda;
}

/// Checkpoint probes on the workload's own specs: step a standalone policy
/// and at every slice boundary snapshot it, serialize, parse and restore
/// into a fresh policy — the work a park/resume does.
std::size_t checkpoint_probes(const std::vector<ServeCase>& cases,
                              Tracer& tracer, double& bytes_mean) {
  std::size_t mismatches = 0, checkpoints = 0;
  double bytes = 0.0;
  for (const ServeCase& c : cases) {
    dse::KrigingPolicy policy(c.spec.policy);
    const dse::BatchEvaluateFn evaluate =
        dse::policy_batch_evaluator(policy, c.spec.simulate);
    dse::MinPlusOneCursor cursor =
        dse::make_min_plus_one_cursor(c.spec.min_plus);
    bool more = true;
    while (more) {
      for (std::size_t i = 0; i < kSliceSteps && more; ++i)
        more = dse::min_plus_one_step(evaluate, c.spec.min_plus, cursor);
      dse::Checkpoint checkpoint;
      checkpoint.policy = policy.snapshot();
      checkpoint.optimizer = "min_plus_one";
      checkpoint.min_plus = cursor;
      std::string text;
      {
        Scope s(&tracer, "dse.checkpoint.serialize");
        text = dse::serialize_checkpoint(checkpoint);
      }
      bytes += static_cast<double>(text.size());
      ++checkpoints;
      dse::Checkpoint parsed;
      {
        Scope s(&tracer, "dse.checkpoint.parse");
        std::istringstream in(text);
        parsed = dse::parse_checkpoint(in);
      }
      dse::KrigingPolicy restored(c.spec.policy);
      {
        Scope s(&tracer, "dse.policy.restore");
        restored.restore(parsed.policy);
      }
      if (!(restored.stats() == policy.stats()) ||
          restored.store().size() != policy.store().size() ||
          !(parsed.min_plus == cursor))
        ++mismatches;
    }
  }
  tracer.fold();
  bytes_mean = checkpoints == 0 ? 0.0 : bytes / static_cast<double>(checkpoints);
  return mismatches;
}

WorkloadOut run_serve(std::uint64_t seed, double seconds, Tracer* tracer,
                      Report& report) {
  WorkloadOut out(perfbench::kP99);
  const std::vector<ServeCase> cases =
      repeat_setup(5, out, [&] { return serve_setup(seed); });

  // Quality references, once per run: the standalone runs' interpolations
  // (the service is checked bit-identical to them on every pass) against
  // exact simulation, and the exact twin's simulation count.
  std::size_t kriged_sims = 0, exact_sims = 0;
  EpsStats eps;
  for (const ServeCase& c : cases) {
    dse::TrajectoryRecorder exact(c.spec.simulate);
    (void)dse::min_plus_one(exact.as_simulator(), c.spec.min_plus);
    exact_sims += exact.unique_evaluations();
    kriged_sims += c.stats.simulated;
    eps.add_run(run_eps(
        c.interpolated,
        [&](const dse::Config& config) { return exact.evaluate(config); },
        dse::MetricKind::kAccuracyDb));
  }
  out.sim_share_pct =
      100.0 * static_cast<double>(kriged_sims) / static_cast<double>(exact_sims);
  out.eps_mean_bits = eps.mean();
  out.eps_max_bits = eps.max_mean();

  std::size_t max_slices = 0;
  for (const ServeCase& c : cases) max_slices = std::max(max_slices, c.slices);

  serve::SessionManagerOptions options;
  options.service_threads = kServiceThreads;
  options.queue_capacity = 16;
  options.resident_capacity = 8;

  serve::ServeStats traced_stats;  // Summed over traced passes.
  PolicyTotals traced_totals;
  double traced_wall = 0.0;
  run_passes(seconds, tracer, out, [&](Tracer* t) {
    std::vector<serve::SessionId> ids;
    PolicyTotals totals;
    std::vector<double> latencies_ms;
    {
      const std::int64_t t0 = now_ns();
      serve::SessionManager manager(options);
      for (const ServeCase& c : cases) ids.push_back(manager.create(c.spec));
      // One generator, round-robin slices against the bounded queue: a
      // closed loop with up to queue_capacity requests outstanding.
      for (std::size_t round = 0; round < max_slices; ++round)
        for (std::size_t i = 0; i < cases.size(); ++i) {
          if (cases[i].slices <= round) continue;
          if (t) t->set_request(i + 1);
          Scope submit_span(t, "serve.submit");
          (void)manager.submit(ids[i], kSliceSteps);
        }
      manager.drain();
      const double wall = seconds_since(t0);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const serve::SessionProgress progress = manager.progress(ids[i]);
        report.check(progress.finished &&
                         same_result(manager.min_plus_one_result(ids[i]),
                                     cases[i].reference),
                     cases[i].spec.name + " service vs standalone");
        totals.add(progress.stats);
      }
      latencies_ms = manager.request_latencies_ms();
      if (t) {
        const serve::ServeStats stats = manager.stats();
        traced_stats.parks += stats.parks;
        traced_stats.resumes += stats.resumes;
        traced_stats.backpressure_waits += stats.backpressure_waits;
        traced_stats.steps += stats.steps;
        traced_wall += wall;
      }
    }  // The manager joins its service threads here, outside the timing.
    if (t && traced_totals.total == 0) traced_totals = totals;
    if (!t) {
      out.series.evals += totals.total;
      for (double ms : latencies_ms)
        out.series.windows.samples().push_back(ms * 1e3);
      if (out.peak_rss_mb == 0.0) out.peak_rss_mb = peak_rss_mb();
    }
  });

  if (tracer) {
    Tracer probes;
    double bytes_mean = 0.0;
    report.check(checkpoint_probes(cases, probes, bytes_mean) == 0,
                 "checkpoint round trip vs live policy");
    report.add("serve.submit_block_us_p99",
               tracer->percentile_us("serve.submit", perfbench::kP99), "us");
    report.add("dse.checkpoint.serialize_us_p50",
               probes.percentile_us("dse.checkpoint.serialize", perfbench::kP50),
               "us");
    report.add("dse.checkpoint.parse_us_p50",
               probes.percentile_us("dse.checkpoint.parse", perfbench::kP50),
               "us");
    report.add("dse.policy.restore_us_p50",
               probes.percentile_us("dse.policy.restore", perfbench::kP50),
               "us");
    report.add("dse.checkpoint.bytes_mean", bytes_mean, "bytes");
    const double passes = static_cast<double>(out.traced_pass_s.size());
    report.add("serve.parks", static_cast<double>(traced_stats.parks) / passes,
               "count");
    report.add("serve.resumes",
               static_cast<double>(traced_stats.resumes) / passes, "count");
    report.add("serve.backpressure_waits",
               static_cast<double>(traced_stats.backpressure_waits) / passes,
               "count");
    // Estimated share of service-thread time spent parking and resuming:
    // the probes' mean costs times the passes' park/resume counts.
    const double park_us = probes.mean_us("dse.checkpoint.serialize");
    const double resume_us = probes.mean_us("dse.checkpoint.parse") +
                             probes.mean_us("dse.policy.restore");
    report.add("serve.park_resume_share",
               (static_cast<double>(traced_stats.parks) * park_us +
                static_cast<double>(traced_stats.resumes) * resume_us) *
                   1e-6 / (traced_wall * static_cast<double>(kServiceThreads)),
               "ratio");
    traced_totals.report(report);
    report.add("serve.steps_per_s",
               static_cast<double>(traced_stats.steps) / traced_wall, "1/s");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------------

/// Every per-layer metric, in report order; a workload that does not
/// exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"dse.policy.interpolate_us_p50", "us"},
      {"dse.policy.refit_eval_us_p50", "us"},
      {"dse.policy.simulate_path_us_p50", "us"},
      {"dse.store.neighbors_within_us_p50", "us"},
      {"dse.store.find_us_p50", "us"},
      {"kriging.system_query_us_p50", "us"},
      {"kriging.fit_ms_p50", "ms"},
      {"linalg.full_factorizations", "count"},
      {"dse.policy.refits", "count"},
      {"dse.policy.failed_refits", "count"},
      {"dse.policy.ridge_fallbacks", "count"},
      {"dse.policy.kriging_failures", "count"},
      {"dse.policy.neighbors_mean", "count"},
      {"dse.policy.interpolated", "count"},
      {"dse.policy.simulated", "count"},
      {"signal.sim_us_p50", "us"},
      {"video.sim_us_p50", "us"},
      {"nn.sim_ms_p50", "ms"},
      {"nn.dse_wall_s", "s"},
      {"sim.calls", "count"},
      {"sim.busy_share", "ratio"},
      {"dse.policy.self_share", "ratio"},
      {"core.optimizer.self_share", "ratio"},
      {"core.speedup_x.fir", "x"},
      {"core.speedup_x.iir", "x"},
      {"core.speedup_x.fft", "x"},
      {"core.speedup_x.hevc", "x"},
      {"core.speedup_model_x.fir", "x"},
      {"core.speedup_model_x.iir", "x"},
      {"core.speedup_model_x.fft", "x"},
      {"core.speedup_model_x.hevc", "x"},
      {"core.infeasible_runs", "count"},
      {"core.infeasible_pct", "%"},
      {"serve.submit_block_us_p99", "us"},
      {"dse.checkpoint.serialize_us_p50", "us"},
      {"dse.checkpoint.parse_us_p50", "us"},
      {"dse.policy.restore_us_p50", "us"},
      {"dse.checkpoint.bytes_mean", "bytes"},
      {"serve.parks", "count"},
      {"serve.resumes", "count"},
      {"serve.backpressure_waits", "count"},
      {"serve.park_resume_share", "ratio"},
      {"serve.steps_per_s", "1/s"},
      {"trace_overhead_pct", "%"},
  };
  return kMetrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value), have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value), have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1", have_trace = true;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "dse" && a.workload != "serve")
    throw std::invalid_argument("--workload must be dse or serve");
  if (!have_seed || !have_seconds || !have_trace || !(a.seconds > 0.0))
    throw std::invalid_argument(
        "usage: ace_perf --workload W --seed N --seconds S --trace 0|1");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    std::unique_ptr<Tracer> tracer;
    if (args.trace) tracer = std::make_unique<Tracer>();
    double load_start[3] = {0.0, 0.0, 0.0};
    (void)getloadavg(load_start, 3);


    WorkloadOut out =
        args.workload == "dse"
            ? run_dse(args.seed, args.seconds, tracer.get(), report)
            : run_serve(args.seed, args.seconds, tracer.get(), report);

    std::size_t windows = 0;
    std::size_t window_samples = 0;  // Fewest latency samples in a window.
    if (args.trace) {
      std::map<std::string, double> got;
      for (const Metric& m : report.metrics) got[m.name] = m.value;
      for (const auto& [name, value] : got)
        if (std::none_of(per_layer_metrics().begin(), per_layer_metrics().end(),
                         [&](const auto& known) { return known.first == name; }))
          throw std::logic_error("per-layer metric missing from the table: " +
                                 name);
      got["trace_overhead_pct"] =
          100.0 * (perfbench::median(out.traced_pass_s) /
                       perfbench::median(out.series.pass_s) -
                   1.0);
      report.metrics.clear();
      for (const auto& [name, unit] : per_layer_metrics())
        report.add(name, got.count(name) ? got[name] : 0.0, unit);
      tracer->write(args.trace_file);
    } else {
      const std::vector<perfbench::WindowTiming> closed =
          out.series.windows.finish();
      const perfbench::WindowTiming best = perfbench::best_window(closed);
      windows = closed.size();
      window_samples = best.samples;
      report.add("setup_s", perfbench::median(out.setup_s), "s");
      report.add("peak_rss_mb", out.peak_rss_mb, "MB");
      report.add("dse_wall_s", best.pass_median_s, "s");
      report.add("evals_per_s", best.evals_per_s, "1/s");
      report.add("latency_p50_us", best.p50, "us");
      report.add("latency_tail_us", best.tail, "us");
      report.add("sim_share_pct", out.sim_share_pct, "%");
      report.add("eps_mean_bits", out.eps_mean_bits, "bits");
      report.add("eps_max_bits", out.eps_max_bits, "bits");
    }

    double load_end[3] = {0.0, 0.0, 0.0};
    (void)getloadavg(load_end, 3);
    char host[256] = {0};
    (void)gethostname(host, sizeof host - 1);
    const Percentile supported_tail =
        perfbench::highest_supported(window_samples);
    std::ostringstream context;
    context << "{\"context\":{\"workload\":\"" << args.workload
            << "\",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
            << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"host\":\""
            << json_escape(host) << "\",\"cpus\":"
            << std::thread::hardware_concurrency() << ",\"build_type\":\""
            << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
            << json_escape(args.commit) << "\",\"compiler\":\""
            << json_escape(__VERSION__) << "\",\"simd\":\""
            << ace::util::simd::backend()
            << "\",\"loadavg_start\":" << json_number(load_start[0])
            << ",\"loadavg_end\":" << json_number(load_end[0])
            << ",\"passes\":" << out.series.pass_s.size()
            << ",\"traced_passes\":" << out.traced_pass_s.size()
            << ",\"setups\":" << out.setup_s.size()
            << ",\"windows\":" << windows
            << ",\"min_window_latency_samples\":" << window_samples
            << ",\"pass_wall_quartile_spread\":"
            << json_number(out.series.pass_s.size() >= 2
                               ? perfbench::quartile_spread(out.series.pass_s)
                               : 0.0)
            << ",\"latency_tail_percentile\":" << json_number(out.tail.percent())
            << ",\"min_window_highest_supported_percentile\":"
            << json_number(supported_tail.tail == 0 ? 0.0
                                                    : supported_tail.percent())
            << report.context.str() << ",\"failures\":[";
    for (std::size_t i = 0; i < report.failures.size(); ++i)
      context << (i ? "," : "") << '"' << json_escape(report.failures[i])
              << '"';
    context << "]}}";
    std::cout << context.str() << "\n";

    std::cout << "{\"correct\":" << (report.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << report.attempted
              << ",\"failed\":" << report.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& m = report.metrics[i];
      std::cout << (i ? "," : "") << '"' << m.name << "\":{\"value\":"
                << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ace_perf: " << e.what() << "\n";
    return 1;
  }
}
