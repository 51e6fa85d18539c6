// Shared driver for the Table I benches: parses the gate/option flags
// every table1 bench accepts (one parser here, not per-file copies), runs
// the exact optimizer once, replays at d = 2..5, prints the paper-layout
// rows plus context.
#pragma once

#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "core/table1.hpp"
#include "dse/acquisition.hpp"
#include "dse/config.hpp"
#include "util/stopwatch.hpp"

namespace ace::benchdriver {

/// Parse one `--flag=value` acquisition option into `options`. Returns
/// false when the flag is not recognised (value parse errors throw).
inline bool parse_gate_flag(const std::string& arg,
                            dse::PolicyOptions& options) {
  const auto value_of = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--gate=", 0) == 0) {
    const std::string name = value_of("--gate=");
    for (const dse::GateKind kind :
         {dse::GateKind::kNeighbourCount, dse::GateKind::kVariance,
          dse::GateKind::kLooCalibrated, dse::GateKind::kSequentialDesign}) {
      if (name == dse::gate_name(kind)) {
        options.gate = kind;
        return true;
      }
    }
    return false;
  }
  if (arg.rfind("--nn-min=", 0) == 0) {
    options.nn_min = std::stoul(value_of("--nn-min="));
    return true;
  }
  if (arg.rfind("--gate-nn-floor=", 0) == 0) {
    options.gate_nn_floor = std::stoul(value_of("--gate-nn-floor="));
    return true;
  }
  if (arg.rfind("--variance-gate=", 0) == 0) {
    options.variance_gate = std::stod(value_of("--variance-gate="));
    return true;
  }
  if (arg.rfind("--loo-gate=", 0) == 0) {
    options.loo_gate = std::stod(value_of("--loo-gate="));
    return true;
  }
  if (arg.rfind("--seq-confidence=", 0) == 0) {
    options.seq_confidence = std::stod(value_of("--seq-confidence="));
    return true;
  }
  if (arg.rfind("--nugget=", 0) == 0) {
    options.noise_nugget = std::stod(value_of("--nugget="));
    return true;
  }
  return false;
}

/// Parse all argv gate flags into `options`; prints usage and returns
/// false on an unknown flag or a bad value.
inline bool parse_gate_options(int argc, char** argv,
                               dse::PolicyOptions& options) {
  for (int i = 1; i < argc; ++i) {
    try {
      if (!parse_gate_flag(argv[i], options)) {
        std::cerr << "unknown flag: " << argv[i]
                  << "\nusage: [--gate=neighbour-count|variance|"
                     "loo-calibrated|sequential-design] [--nn-min=K]"
                     " [--gate-nn-floor=K]"
                     " [--variance-gate=X (ceiling; use with --gate=variance)]"
                     " [--loo-gate=X] [--seq-confidence=Z] [--nugget=T2]\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value in flag: " << argv[i] << '\n';
      return false;
    }
  }
  return true;
}

/// The sequential-design gate protects a decision threshold; default it to
/// the benchmark's own accuracy constraint unless the caller pinned one.
inline void default_gate_lambda_min(const core::ApplicationBenchmark& bench,
                                    dse::PolicyOptions& options) {
  if (options.gate == dse::GateKind::kSequentialDesign &&
      !options.gate_lambda_min) {
    options.gate_lambda_min =
        bench.optimizer == core::OptimizerKind::kMinPlusOne
            ? bench.min_plus_one.lambda_min
            : bench.sensitivity.lambda_min;
  }
}

inline int run_table1_bench(const core::ApplicationBenchmark& bench,
                            int argc = 0, char** argv = nullptr,
                            dse::PolicyOptions base = {}) {
  if (!parse_gate_options(argc, argv, base)) return 2;
  default_gate_lambda_min(bench, base);
  std::cout << "=== Table I (" << bench.name << ", Nv = " << bench.nv
            << ", gate = " << dse::make_gate(base)->name() << ") ===\n";
  util::Stopwatch watch;
  const auto result = core::run_table1(bench, {2, 3, 4, 5}, base);
  std::cout << "exact optimizer: " << result.trajectory.size()
            << " distinct configurations simulated, solution "
            << dse::to_string(result.exact_solution)
            << ", lambda = " << result.exact_lambda << "\n\n";
  core::print_table1(std::cout, result);
  std::cout << "\ntotal wall time: " << watch.seconds() << " s\n";
  return 0;
}

}  // namespace ace::benchdriver
