// Multi-session service bench: replay hundreds of interleaved optimizer
// sessions (mixed FIR/IIR/FFT word-length problems) through
// serve::SessionManager and verify each session's decision sequence is
// bit-identical to running it standalone, while reporting service
// throughput and p50/p99 request latency.
//
// The knobs are deliberately hostile: more sessions than resident slots
// (park/resume churn on every rotation), a queue much smaller than the
// request volume (persistent backpressure), and several service threads
// sharing one simulation pool. If the determinism contract holds here, it
// holds.
//
// One 210-session pass lasts tens of milliseconds, so both the sequential
// reference and the service pass repeat until each has run for at least
// kMinSeconds; timings are per-pass medians with their quartiles, and
// latencies pool every service pass.
//
// Output: human-readable summary plus BENCH_serve.json (the standing
// perf-trajectory artifact; CI uploads it, and a snapshot is committed),
// which records the host, CPU count, build type and commit it ran on.
// Exit code 1 on any per-session divergence.
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "build_info.hpp"
#include "core/benchmarks.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "serve/session.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace d = ace::dse;
namespace s = ace::serve;

constexpr std::size_t kSessions = 210;  // >= 200 per the acceptance bar.
constexpr double kMinSeconds = 1.0;     // Per timed phase, summed over passes.
constexpr std::size_t kMinPasses = 3;   // Enough for quartiles.

/// Mixed workload: rotate FIR (Nv=2) / IIR (Nv=5) / FFT (Nv=10), varying
/// seed and constraint so no two sessions share a surface. Small lattices
/// and inputs keep a 2x(210-run) bench in seconds.
s::SessionSpec make_spec(std::size_t i) {
  ace::core::SignalBenchOptions opt;
  opt.samples = 64;  // FFT requires a multiple of 64.
  opt.seed = 1000 + static_cast<std::uint64_t>(i);
  opt.lambda_min_db = 28.0 + static_cast<double>(i % 7);
  opt.w_max = 10;
  opt.w_min = 2;
  ace::core::ApplicationBenchmark bench;
  switch (i % 3) {
    case 0: bench = ace::core::make_fir_benchmark(opt); break;
    case 1: bench = ace::core::make_iir_benchmark(opt); break;
    default: bench = ace::core::make_fft_benchmark(opt); break;
  }
  s::SessionSpec spec;
  spec.name = bench.name + " #" + std::to_string(i);
  spec.optimizer = s::OptimizerKind::kMinPlusOne;
  spec.min_plus = bench.min_plus_one;
  spec.simulate = bench.simulate;
  return spec;
}

d::MinPlusOneResult standalone(const s::SessionSpec& spec) {
  d::KrigingPolicy policy(spec.policy);
  const auto evaluate = d::policy_batch_evaluator(policy, spec.simulate);
  d::MinPlusOneCursor cursor = d::make_min_plus_one_cursor(spec.min_plus);
  while (d::min_plus_one_step(evaluate, spec.min_plus, cursor)) {
  }
  return d::min_plus_one_result(cursor, spec.min_plus);
}

bool identical(const d::MinPlusOneResult& a, const d::MinPlusOneResult& b) {
  return a.decisions == b.decisions && a.w_min == b.w_min &&
         a.w_res == b.w_res && a.constraint_met == b.constraint_met &&
         a.final_lambda == b.final_lambda;  // Bit-exact, not approximate.
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

std::string host_name() {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) return "unknown";
  return host;
}

}  // namespace

int main() {
  std::cout << "=== session_server: " << kSessions
            << " interleaved DSE sessions (FIR/IIR/FFT) ===\n";

  std::vector<s::SessionSpec> specs;
  specs.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) specs.push_back(make_spec(i));

  // Sequential reference: each session standalone, one after another. The
  // first pass's results are the identity baseline.
  std::vector<d::MinPlusOneResult> reference;
  std::vector<double> sequential_walls;
  double sequential_total = 0.0;
  while (sequential_total < kMinSeconds ||
         sequential_walls.size() < kMinPasses) {
    ace::util::Stopwatch watch;
    std::vector<d::MinPlusOneResult> results;
    results.reserve(kSessions);
    for (const auto& spec : specs) results.push_back(standalone(spec));
    sequential_walls.push_back(watch.seconds());
    sequential_total += sequential_walls.back();
    if (reference.empty()) reference = std::move(results);
  }

  // Concurrent service passes under residency pressure and backpressure.
  ace::util::ThreadPool pool(4);
  s::SessionManagerOptions options;
  options.service_threads = 4;
  options.queue_capacity = 32;
  options.resident_capacity = 16;
  options.pool = &pool;

  std::vector<double> service_walls;
  double service_total = 0.0;
  s::ServeStats stats;
  std::vector<double> latencies;
  std::size_t mismatches = 0;
  while (service_total < kMinSeconds || service_walls.size() < kMinPasses) {
    ace::util::Stopwatch watch;
    s::SessionManager manager(options);
    std::vector<s::SessionId> ids;
    ids.reserve(kSessions);
    for (const auto& spec : specs) ids.push_back(manager.create(spec));
    // Interleave: two rotations of short slices (every session gets
    // parked and resumed as its turn comes back around), then run each to
    // the end.
    for (int round = 0; round < 2; ++round)
      for (const s::SessionId id : ids) (void)manager.submit(id, 3);
    for (const s::SessionId id : ids) (void)manager.submit(id, 100000);
    manager.drain();
    service_walls.push_back(watch.seconds());
    service_total += service_walls.back();

    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!manager.progress(ids[i]).finished ||
          !identical(manager.min_plus_one_result(ids[i]), reference[i])) {
        ++mismatches;
        std::cout << "DIVERGED: pass " << service_walls.size() << " session "
                  << i << " (" << specs[i].name << ")\n";
      }
    }
    const s::ServeStats pass = manager.stats();
    stats.requests += pass.requests;
    stats.steps += pass.steps;
    stats.parks += pass.parks;
    stats.resumes += pass.resumes;
    stats.backpressure_waits += pass.backpressure_waits;
    const std::vector<double> pass_latencies = manager.request_latencies_ms();
    latencies.insert(latencies.end(), pass_latencies.begin(),
                     pass_latencies.end());
  }

  const std::size_t passes = service_walls.size();
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double throughput =
      static_cast<double>(stats.steps) / std::max(service_total, 1e-9);
  const std::string host = host_name();
  const unsigned cpus = std::thread::hardware_concurrency();
  const std::string commit = ace::bench::commit_id();

  std::cout << "context:             " << host << ", " << cpus << " CPUs, "
            << ACE_BUILD_TYPE << ", commit " << commit << "\n"
            << "sessions:            " << kSessions << "\n"
            << "service passes:      " << passes << " (sequential "
            << sequential_walls.size() << ")\n"
            << "requests:            " << stats.requests << "\n"
            << "optimizer steps:     " << stats.steps << "\n"
            << "parks / resumes:     " << stats.parks << " / "
            << stats.resumes << "\n"
            << "backpressure waits:  " << stats.backpressure_waits << "\n"
            << "sequential wall:     " << percentile(sequential_walls, 0.5)
            << " s per pass (median)\n"
            << "service wall:        " << percentile(service_walls, 0.5)
            << " s per pass (median; quartiles "
            << percentile(service_walls, 0.25) << " / "
            << percentile(service_walls, 0.75) << ")\n"
            << "throughput:          " << throughput << " steps/s\n"
            << "latency p50 / p99:   " << p50 << " / " << p99 << " ms\n"
            << "decision identity:   "
            << (mismatches == 0 ? "all sessions bit-identical"
                                : std::to_string(mismatches) + " DIVERGED")
            << "\n";

  std::ofstream json("BENCH_serve.json", std::ios::trunc);
  json << "{\n"
       << "  \"context\": {\"host\": \"" << host << "\", \"cpus\": " << cpus
       << ", \"build_type\": \"" << ACE_BUILD_TYPE << "\", \"commit\": \""
       << commit << "\"},\n"
       << "  \"sessions\": " << kSessions << ",\n"
       << "  \"passes\": " << passes << ",\n"
       << "  \"sequential_passes\": " << sequential_walls.size() << ",\n"
       << "  \"requests\": " << stats.requests << ",\n"
       << "  \"steps\": " << stats.steps << ",\n"
       << "  \"parks\": " << stats.parks << ",\n"
       << "  \"resumes\": " << stats.resumes << ",\n"
       << "  \"backpressure_waits\": " << stats.backpressure_waits << ",\n"
       << "  \"sequential_wall_s\": " << percentile(sequential_walls, 0.5)
       << ",\n"
       << "  \"service_wall_s\": " << percentile(service_walls, 0.5) << ",\n"
       << "  \"service_wall_s_p25\": " << percentile(service_walls, 0.25)
       << ",\n"
       << "  \"service_wall_s_p75\": " << percentile(service_walls, 0.75)
       << ",\n"
       << "  \"service_total_s\": " << service_total << ",\n"
       << "  \"throughput_steps_per_s\": " << throughput << ",\n"
       << "  \"latency_p50_ms\": " << p50 << ",\n"
       << "  \"latency_p99_ms\": " << p99 << ",\n"
       << "  \"divergent_sessions\": " << mismatches << "\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::cout << "warning: failed to write BENCH_serve.json\n";
    return 1;
  }
  return mismatches == 0 ? 0 : 1;
}
