#include "dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/benchmarks.hpp"
#include "dse/min_plus_one.hpp"
#include "dse/scheduler.hpp"
#include "kriging/variogram_model.hpp"

namespace ace::kriging {
// Failure output for the exact model comparisons below: every parameter
// in hexfloat, where describe() would round to 6 significant digits.
void PrintTo(const VariogramModel& model, std::ostream* os) {
  *os << family_name(model.family) << std::hexfloat
      << "(nugget=" << model.nugget << ", scale=" << model.scale
      << ", shape=" << model.shape << ")";
}
}  // namespace ace::kriging

namespace {

namespace d = ace::dse;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());  // No stale state from earlier runs.
  return path;
}

double smooth(const d::Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    acc += 0.5 * static_cast<double>(c[i]) +
           0.01 * static_cast<double>(c[i] * c[i]) +
           0.02 * static_cast<double>(i + 1) * static_cast<double>(c[i]);
  return acc;
}

d::PolicyOptions kriging_options() {
  d::PolicyOptions options;
  options.distance = 3;
  options.nn_min = 1;
  options.min_fit_points = 6;
  options.refit_period = 5;
  return options;
}

void expect_snapshots_equal(const d::PolicySnapshot& a,
                            const d::PolicySnapshot& b) {
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.values, b.values);  // Bitwise: hexfloat round trip is exact.
  EXPECT_EQ(a.quarantine, b.quarantine);
  EXPECT_EQ(a.fit_events, b.fit_events);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(CheckpointFile, RoundTripIsExact) {
  d::Checkpoint ck;
  ck.optimizer = "min_plus_one";
  ck.policy.configs = {{8, 8}, {7, 8}, {8, 7}};
  // Deliberately awkward doubles: non-terminating binary fractions, huge,
  // and denormal magnitudes all survive the hexfloat round trip exactly.
  ck.policy.values = {0.1, 1.0 / 3.0, -1e300};
  ck.policy.quarantine = {{{2, 2}, d::FaultCode::kSimulatorThrow},
                          {{5, 5}, d::FaultCode::kTimeout}};
  ck.policy.fit_events = {6, 11};
  ck.policy.stats.total = 17;
  ck.policy.stats.simulated = 3;
  ck.policy.stats.interpolated = 9;
  ck.policy.stats.quarantined = 2;
  ck.policy.stats.checkpoints_written = 4;
  ck.policy.stats.neighbors_per_interpolation.add(3.0);
  ck.policy.stats.neighbors_per_interpolation.add(5.0);
  ck.min_plus.phase = 2;
  ck.min_plus.var = 3;
  ck.min_plus.w_min = {6, 6, 6};
  ck.min_plus.lambda_at_max = 5e-324;  // Smallest positive denormal.
  ck.min_plus.have_lambda_at_max = true;
  ck.min_plus.w = {7, 6, 6};
  ck.min_plus.lambda = -9.25;
  ck.min_plus.have_lambda = true;
  ck.min_plus.decisions = {0, 1};
  ck.min_plus.steps = 2;
  ck.sensitivity.started = true;
  ck.sensitivity.levels = {4, 5, 5};
  ck.sensitivity.lambda = 0.90625;
  ck.sensitivity.feasible = true;
  ck.sensitivity.decisions = {0, 0, 1, 2};
  ck.sensitivity.steps = 4;

  const std::string path = temp_path("ace_ckpt_roundtrip.txt");
  d::save_checkpoint(path, ck);
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->optimizer, ck.optimizer);
  expect_snapshots_equal(loaded->policy, ck.policy);
  EXPECT_EQ(loaded->min_plus, ck.min_plus);
  EXPECT_EQ(loaded->sensitivity, ck.sensitivity);
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileIsNullopt) {
  EXPECT_FALSE(
      d::load_checkpoint(temp_path("ace_ckpt_missing.txt")).has_value());
}

TEST(CheckpointFile, RejectsGarbageAndUnsupportedVersion) {
  const std::string garbage = temp_path("ace_ckpt_garbage.txt");
  {
    std::ofstream out(garbage);
    out << "hello world\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(garbage), std::runtime_error);
  std::remove(garbage.c_str());

  const std::string future = temp_path("ace_ckpt_future.txt");
  {
    std::ofstream out(future);
    out << "ACE-CHECKPOINT 99\noptimizer min_plus_one\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(future), std::runtime_error);
  std::remove(future.c_str());

  const std::string truncated = temp_path("ace_ckpt_truncated.txt");
  {
    std::ofstream out(truncated);
    out << "ACE-CHECKPOINT 1\noptimizer min_plus_one\nstore 3 2\n";
  }
  EXPECT_THROW((void)d::load_checkpoint(truncated), std::runtime_error);
  std::remove(truncated.c_str());

  // Out-of-range and signed values are typed corruption, and a count that
  // outruns the data is truncation — never a wrapped value, a
  // std::length_error or a std::bad_alloc from a container sized up front.
  const auto expect_payload_error = [](const std::string& body,
                                       d::FaultCode code) {
    std::istringstream in("ACE-CHECKPOINT 3\noptimizer min_plus_one\n" + body);
    try {
      (void)d::parse_checkpoint(in);
      ADD_FAILURE() << "parsed: " << body;
    } catch (const d::PayloadError& error) {
      EXPECT_EQ(error.code(), code) << body;
    }
  };
  expect_payload_error("store -1 2\n", d::FaultCode::kCorruptPayload);
  expect_payload_error("store 1 99999999999\n4 4 5\n",
                       d::FaultCode::kTruncatedPayload);
  expect_payload_error("store 0 0\nquarantine 0 0\n"
                       "fit_events 1000000000000 1 2\n",
                       d::FaultCode::kTruncatedPayload);
  expect_payload_error("store 0 0\nquarantine 1 2\n4294967296 5 5\n",
                       d::FaultCode::kCorruptPayload);
  expect_payload_error("store 1 2\n4294967304 1 0x1p+0\n",
                       d::FaultCode::kCorruptPayload);
}

// Hand-written fixtures in the historical formats: a version-N writer
// produced exactly these bytes, and the version-gated reader must keep
// loading them forever. The token streams below mirror put_stats() as it
// stood at each version — v1 ends after neighbors_per_interpolation, v2
// after rcond_per_solve.
constexpr const char* kCursorTail =
    "cursor_min_plus 0 0 0 0 0 0x0p+0 0x0p+0\n"
    "w_min 2 8 8\n"
    "w 2 8 8\n"
    "decisions 0\n"
    "cursor_sensitivity 0 0 0 0 0x0p+0\n"
    "levels 0\n"
    "decisions 0\n"
    "end\n";

std::string write_fixture(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(CheckpointFile, LoadsVersion1FixtureUnderTheGateAwarePolicy) {
  const std::string path = write_fixture(
      "ace_ckpt_v1_fixture.txt",
      std::string("ACE-CHECKPOINT 1\n"
                  "optimizer min_plus_one\n"
                  "store 2 2\n"
                  "4 4 0x1.8p+2\n"
                  "2 2 0x1p+1\n"
                  "quarantine 0 0\n"
                  "fit_events 1 2\n"
                  "stats 10 4 5 1 0 2 3 0 0 0 0 0 1 "
                  "2 0x1p+2 0x0p+0 0x1p+2 0x1p+2\n") +
      kCursorTail);
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  const d::PolicyStats& s = loaded->policy.stats;
  // v1 fields arrive intact...
  EXPECT_EQ(s.total, 10u);
  EXPECT_EQ(s.variance_rejections, 2u);
  EXPECT_EQ(s.refits, 3u);
  EXPECT_EQ(s.neighbors_per_interpolation.count(), 2u);
  // ...and every post-v1 field holds its fresh-policy default.
  EXPECT_EQ(s.ridge_fallbacks, 0u);
  EXPECT_EQ(s.full_factorizations, 0u);
  EXPECT_EQ(s.rcond_per_solve.count(), 0u);
  EXPECT_EQ(s.loo_rejections, 0u);
  EXPECT_EQ(s.sequential_rejections, 0u);
  EXPECT_EQ(s.loo_passes, 0u);
  EXPECT_EQ(s.loo_abs_error.count(), 0u);

  // A v1 snapshot restores into today's gate-aware policy — including one
  // running an adaptive gate the v1 writer had never heard of.
  d::PolicyOptions gated = kriging_options();
  gated.gate = d::GateKind::kLooCalibrated;
  d::KrigingPolicy policy(gated);
  policy.restore(loaded->policy);
  EXPECT_EQ(policy.store().size(), 2u);
  EXPECT_EQ(policy.stats().variance_rejections, 2u);

  // Re-saving upgrades the file to the current version with the counters
  // it carried, bit-for-bit.
  d::save_checkpoint(path, *loaded);
  const auto upgraded = d::load_checkpoint(path);
  ASSERT_TRUE(upgraded.has_value());
  expect_snapshots_equal(upgraded->policy, loaded->policy);
  std::remove(path.c_str());
}

TEST(CheckpointFile, LoadsVersion2FixtureWithZeroGateCounters) {
  const std::string path = write_fixture(
      "ace_ckpt_v2_fixture.txt",
      std::string("ACE-CHECKPOINT 2\n"
                  "optimizer steepest_descent\n"
                  "store 0 0\n"
                  "quarantine 0 0\n"
                  "fit_events 0\n"
                  "stats 6 6 0 0 0 0 1 0 0 0 0 0 0 "
                  "0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
                  "1 5 2 3 4 0x1p-1 0x0p+0 0x1p-1 0x1p-1\n") +
      kCursorTail);
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  const d::PolicyStats& s = loaded->policy.stats;
  // The v2 tail arrives intact...
  EXPECT_EQ(s.ridge_fallbacks, 1u);
  EXPECT_EQ(s.full_factorizations, 5u);
  EXPECT_EQ(s.rcond_per_solve.count(), 4u);
  // ...and the v3 gate counters default to a fresh policy's.
  EXPECT_EQ(s.loo_rejections, 0u);
  EXPECT_EQ(s.sequential_rejections, 0u);
  EXPECT_EQ(s.loo_passes, 0u);
  EXPECT_EQ(s.loo_abs_error.count(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointFile, Version3RoundTripsGateCountersExactly) {
  d::Checkpoint ck;
  ck.optimizer = "min_plus_one";
  ck.policy.stats.variance_rejections = 4;
  ck.policy.stats.loo_rejections = 7;
  ck.policy.stats.sequential_rejections = 3;
  ck.policy.stats.loo_passes = 9;
  ck.policy.stats.loo_abs_error.add(0.1);
  ck.policy.stats.loo_abs_error.add(1.0 / 3.0);

  const std::string path = temp_path("ace_ckpt_v3_gates.txt");
  d::save_checkpoint(path, ck);
  {
    std::ifstream in(path);
    std::string magic;
    int version = 0;
    in >> magic >> version;
    EXPECT_EQ(magic, "ACE-CHECKPOINT");
    EXPECT_EQ(version, 3);
  }
  const auto loaded = d::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->policy.stats == ck.policy.stats);
  std::remove(path.c_str());
}

TEST(PolicySnapshot, RestoreContinuesBitIdentically) {
  // Drive a policy through a workload rich enough to fit and refit the
  // variogram, snapshot halfway, restore into a fresh policy, and continue
  // both on the same tail: every outcome and statistic must match exactly.
  const d::SimulatorFn sim = smooth;
  std::vector<d::Config> work;
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) work.push_back({(x * 3 + y) % 8, y});

  d::KrigingPolicy original(kriging_options());
  const std::size_t half = work.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    (void)original.evaluate(work[i], sim);

  d::KrigingPolicy resumed(kriging_options());
  resumed.restore(original.snapshot());
  expect_snapshots_equal(resumed.snapshot(), original.snapshot());

  for (std::size_t i = half; i < work.size(); ++i) {
    const d::EvalOutcome a = original.evaluate(work[i], sim);
    const d::EvalOutcome b = resumed.evaluate(work[i], sim);
    EXPECT_EQ(a, b) << "diverged at work item " << i;
  }
  EXPECT_TRUE(original.stats() == resumed.stats());
  expect_snapshots_equal(resumed.snapshot(), original.snapshot());
}

// A configuration can legitimately appear in both the quarantine list and
// the store (it faulted once, then a later clean result lifted the
// quarantine). restore() must replay the quarantine *before* the adds so
// the lift happens exactly as it did live: active quarantine gone, audit
// log entry kept, and the next evaluation served from the store.
TEST(PolicySnapshot, RestoreReplaysQuarantineBeforeAddsAndLifts) {
  d::PolicySnapshot snapshot;
  snapshot.configs = {{4, 4}, {2, 2}, {5, 4}};  // {2,2} was lifted.
  snapshot.values = {smooth({4, 4}), smooth({2, 2}), smooth({5, 4})};
  snapshot.quarantine = {{{2, 2}, d::FaultCode::kSimulatorThrow},
                         {{9, 9}, d::FaultCode::kTimeout}};
  snapshot.stats.total = 5;
  snapshot.stats.simulated = 3;
  snapshot.stats.quarantined = 2;

  d::KrigingPolicy policy(kriging_options());
  policy.restore(snapshot);

  // {2,2}'s quarantine was lifted by its add; {9,9}'s is still active.
  EXPECT_FALSE(policy.store().quarantined({2, 2}).has_value());
  ASSERT_TRUE(policy.store().quarantined({9, 9}).has_value());
  EXPECT_EQ(*policy.store().quarantined({9, 9}), d::FaultCode::kTimeout);
  // The audit log keeps both events.
  EXPECT_EQ(policy.store().quarantine_count(), 2u);

  // A lifted configuration is healthy support: evaluating it is a store
  // hit, not a re-simulation (the simulator here would fail the test).
  std::size_t simulator_calls = 0;
  const d::EvalOutcome outcome =
      policy.evaluate({2, 2}, [&simulator_calls](const d::Config& c) {
        ++simulator_calls;
        return smooth(c);
      });
  EXPECT_EQ(simulator_calls, 0u);
  EXPECT_DOUBLE_EQ(outcome.value, smooth({2, 2}));

  // And the re-snapshot reproduces the original lists bit-for-bit.
  const d::PolicySnapshot again = policy.snapshot();
  EXPECT_EQ(again.configs, snapshot.configs);
  EXPECT_EQ(again.values, snapshot.values);
  EXPECT_EQ(again.quarantine, snapshot.quarantine);
}

// A parked serve session keeps its PolicySnapshot in memory instead of
// rendering checkpoint text. This pins the property that makes that safe:
// restoring straight from the snapshot is indistinguishable from restoring
// through the text codec, so a parked session can always be written as a
// checkpoint and resumes the same either way.
TEST(Checkpoint, InMemorySnapshotRestoresLikeTextRoundTrip) {
  ace::core::SignalBenchOptions opt;
  opt.samples = 64;  // FFT requires a multiple of 64.
  const ace::core::ApplicationBenchmark kernels[] = {
      ace::core::make_fir_benchmark(opt), ace::core::make_iir_benchmark(opt),
      ace::core::make_fft_benchmark(opt)};
  for (const ace::core::ApplicationBenchmark& bench : kernels) {
    SCOPED_TRACE(bench.name);
    // Stop mid-run, at the optimizer step that first fits the variogram.
    d::KrigingPolicy original(kriging_options());
    d::MinPlusOneCursor cursor =
        d::make_min_plus_one_cursor(bench.min_plus_one);
    const auto evaluate = d::policy_batch_evaluator(original, bench.simulate);
    bool more = true;
    while (more && !original.model())
      more = d::min_plus_one_step(evaluate, bench.min_plus_one, cursor);
    ASSERT_TRUE(more) << "run finished before the policy was mid-run";
    ASSERT_TRUE(original.model().has_value());
    const d::PolicySnapshot snapshot = original.snapshot();

    d::KrigingPolicy in_memory(kriging_options());
    in_memory.restore(snapshot);

    d::Checkpoint checkpoint;
    checkpoint.policy = snapshot;
    checkpoint.optimizer = "min_plus_one";
    checkpoint.min_plus = cursor;
    std::istringstream text(d::serialize_checkpoint(checkpoint));
    const d::Checkpoint parsed = d::parse_checkpoint(text);
    EXPECT_TRUE(parsed.min_plus == cursor);
    d::KrigingPolicy from_text(kriging_options());
    from_text.restore(parsed.policy);

    // Store, quarantine, fit events and statistics.
    expect_snapshots_equal(in_memory.snapshot(), from_text.snapshot());
    expect_snapshots_equal(in_memory.snapshot(), snapshot);
    EXPECT_TRUE(in_memory.stats() == from_text.stats());
    // Fitted model and trend, bitwise.
    ASSERT_TRUE(in_memory.model().has_value());
    EXPECT_EQ(in_memory.model(), from_text.model());
    EXPECT_EQ(in_memory.trend(), from_text.trend());

    // The next evaluate_batch calls of the continued run: bit-identical
    // outcomes from both restored policies.
    std::vector<std::vector<d::EvalOutcome>> outcomes_a;
    std::vector<std::vector<d::EvalOutcome>> outcomes_b;
    const auto recording = [&bench](d::KrigingPolicy& policy,
                                    std::vector<std::vector<d::EvalOutcome>>&
                                        log) -> d::BatchEvaluateFn {
      return [&policy, &log, &bench](const std::vector<d::Config>& batch) {
        log.push_back(policy.evaluate_batch(batch, bench.simulate));
        std::vector<double> values;
        for (const d::EvalOutcome& outcome : log.back())
          values.push_back(outcome.value);
        return values;
      };
    };
    const d::BatchEvaluateFn evaluate_a = recording(in_memory, outcomes_a);
    const d::BatchEvaluateFn evaluate_b = recording(from_text, outcomes_b);
    d::MinPlusOneCursor cursor_a = cursor;
    d::MinPlusOneCursor cursor_b = cursor;
    constexpr std::size_t kSteps = 4;
    for (std::size_t k = 0; k < kSteps; ++k) {
      const bool more_a =
          d::min_plus_one_step(evaluate_a, bench.min_plus_one, cursor_a);
      const bool more_b =
          d::min_plus_one_step(evaluate_b, bench.min_plus_one, cursor_b);
      ASSERT_EQ(more_a, more_b);
      if (!more_a) break;
    }
    EXPECT_EQ(outcomes_a, outcomes_b);
    // The continuation interpolates, so the restored models are in play.
    std::size_t interpolated = 0;
    for (const auto& batch : outcomes_a)
      for (const d::EvalOutcome& outcome : batch)
        interpolated += outcome.interpolated ? 1 : 0;
    EXPECT_GT(interpolated, 0u);
    EXPECT_TRUE(cursor_a == cursor_b);
    EXPECT_TRUE(in_memory.stats() == from_text.stats());
  }
}

// A resumed policy's model is the snapshotted one: in memory the snapshot
// carries it and restore adopts it verbatim, whatever it is; without it
// (the text path) restore refits, and the refit is the same model bit for
// bit.
TEST(PolicySnapshot, RestoreAdoptsTheCarriedModel) {
  std::vector<d::Config> work;
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) work.push_back({(x * 3 + y) % 8, y});
  d::KrigingPolicy original(kriging_options());
  for (const d::Config& c : work) (void)original.evaluate(c, smooth);
  ASSERT_GT(original.stats().refits, 1u);

  d::PolicySnapshot snapshot = original.snapshot();
  ASSERT_TRUE(snapshot.model.has_value());
  EXPECT_EQ(snapshot.model, original.model());
  d::KrigingPolicy carried(kriging_options());
  carried.restore(snapshot);
  EXPECT_EQ(carried.model(), original.model());

  // A carried model no fit would produce is still the one restore adopts:
  // the last fit is taken from the snapshot, not run again.
  d::PolicySnapshot altered = snapshot;
  altered.model->nugget += 1.0;
  d::KrigingPolicy adopted(kriging_options());
  adopted.restore(altered);
  EXPECT_EQ(adopted.model(), altered.model);
  EXPECT_NE(adopted.model(), original.model());

  snapshot.model.reset();
  d::KrigingPolicy refitted(kriging_options());
  refitted.restore(snapshot);
  ASSERT_TRUE(refitted.model().has_value());
  EXPECT_EQ(refitted.model(), original.model());
}

// Restore replays only the last recorded fit attempt (every attempt when
// the gate calibrates on LOO passes). Snapshot after every evaluation of a
// run with many refits, restore with and without the carried model, and
// the rebuilt policy must match the live one — model, trend, calibration,
// statistics and the next evaluation — for each estimator variant.
TEST(PolicySnapshot, RestoreAfterEveryEvaluationMatchesLivePolicy) {
  std::vector<d::Config> work;
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) work.push_back({(x * 3 + y) % 8, y});
  // A tight neighbourhood and a short refit period: the run simulates
  // often and records several fits.
  d::PolicyOptions base = kriging_options();
  base.distance = 2;
  base.nn_min = 4;
  base.refit_period = 2;

  struct Variant {
    const char* name;
    d::PolicyOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"constant drift", base});
  variants.push_back({"linear drift", base});
  variants.back().options.drift = ace::kriging::DriftKind::kLinear;
  variants.push_back({"nugget from fit, L2", base});
  variants.back().options.nugget_from_fit = true;
  variants.back().options.use_l2_distance = true;
  variants.push_back({"LOO gate", base});
  variants.back().options.gate = d::GateKind::kLooCalibrated;

  const auto same_model = [](const d::KrigingPolicy& a,
                             const d::KrigingPolicy& b) {
    return a.model() == b.model();
  };

  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    d::KrigingPolicy live(variant.options);
    (void)live.evaluate(work.front(), smooth);
    for (std::size_t i = 1; i < work.size(); ++i) {
      const d::PolicySnapshot snapshot = live.snapshot();
      std::vector<d::EvalOutcome> continued;
      for (const bool carry : {true, false}) {
        SCOPED_TRACE(carry ? "carried model" : "refitted model");
        d::PolicySnapshot copy = snapshot;
        if (!carry) copy.model.reset();
        d::KrigingPolicy resumed(variant.options);
        resumed.restore(copy);
        ASSERT_TRUE(same_model(resumed, live)) << "before item " << i;
        EXPECT_EQ(resumed.trend(), live.trend());
        EXPECT_EQ(resumed.gate_calibration(), live.gate_calibration());
        EXPECT_TRUE(resumed.stats() == live.stats());
        continued.push_back(resumed.evaluate(work[i], smooth));
      }
      const d::EvalOutcome expected = live.evaluate(work[i], smooth);
      for (const d::EvalOutcome& outcome : continued)
        EXPECT_EQ(outcome, expected) << "item " << i;
    }
    EXPECT_GT(live.stats().refits, 3u);
    EXPECT_GT(live.stats().interpolated, 0u);
  }
}

TEST(PolicySnapshot, RestoreRequiresFreshPolicy) {
  d::KrigingPolicy used(kriging_options());
  (void)used.evaluate({1, 1}, smooth);
  const d::PolicySnapshot snap = used.snapshot();
  EXPECT_THROW(used.restore(snap), std::logic_error);
}

TEST(CheckpointedRuns, KilledMinPlusOneResumesBitIdentically) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 3;
  mpo.w_max = 8;
  mpo.w_min = 2;
  mpo.lambda_min = 5.5;
  const d::SimulatorFn sim = smooth;

  // Uninterrupted reference run.
  const std::string ref_path = temp_path("ace_ckpt_mp_ref.txt");
  d::KrigingPolicy reference(kriging_options());
  const d::MinPlusOneResult expected =
      d::checkpointed_min_plus_one(reference, sim, mpo, {ref_path, 1});
  ASSERT_TRUE(d::load_checkpoint(ref_path).has_value());

  // Kill after each possible number of steps; resume must reconverge.
  for (std::size_t kill = 1; kill <= 5; ++kill) {
    const std::string path =
        temp_path("ace_ckpt_mp_kill" + std::to_string(kill) + ".txt");

    d::KrigingPolicy before(kriging_options());
    (void)d::checkpointed_min_plus_one(before, sim, mpo, {path, 1, kill});
    const auto mid = d::load_checkpoint(path);
    ASSERT_TRUE(mid.has_value());

    d::KrigingPolicy after(kriging_options());
    const d::MinPlusOneResult resumed =
        d::checkpointed_min_plus_one(after, sim, mpo, {path, 1});

    EXPECT_EQ(resumed.w_min, expected.w_min) << "kill=" << kill;
    EXPECT_EQ(resumed.w_res, expected.w_res) << "kill=" << kill;
    EXPECT_EQ(resumed.decisions, expected.decisions) << "kill=" << kill;
    EXPECT_DOUBLE_EQ(resumed.final_lambda, expected.final_lambda);
    EXPECT_EQ(resumed.constraint_met, expected.constraint_met);
    // The whole policy state — store, quarantine, fit history, statistics
    // (including checkpoints_written) — matches the uninterrupted run.
    expect_snapshots_equal(after.snapshot(), reference.snapshot());
    std::remove(path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(CheckpointedRuns, KilledSteepestDescentResumesBitIdentically) {
  d::SensitivityOptions so;
  so.nv = 3;
  so.level_max = 8;
  so.level_min = 0;
  so.lambda_min = 0.9;
  // Quality in (0, 1]: relaxing a level doubles its noise contribution.
  const d::SimulatorFn sim = [](const d::Config& c) {
    double noise = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
      noise += (1.0 + 0.01 * static_cast<double>(i)) *
               std::pow(2.0, -static_cast<double>(c[i]));
    return 1.0 - noise;
  };

  const std::string ref_path = temp_path("ace_ckpt_sd_ref.txt");
  d::KrigingPolicy reference(kriging_options());
  const d::SensitivityResult expected =
      d::checkpointed_steepest_descent(reference, sim, so, {ref_path, 1});
  EXPECT_TRUE(expected.feasible);
  EXPECT_FALSE(expected.decisions.empty());

  for (const std::size_t kill : {1u, 3u, 6u}) {
    const std::string path =
        temp_path("ace_ckpt_sd_kill" + std::to_string(kill) + ".txt");
    d::KrigingPolicy before(kriging_options());
    (void)d::checkpointed_steepest_descent(before, sim, so, {path, 1, kill});

    d::KrigingPolicy after(kriging_options());
    const d::SensitivityResult resumed =
        d::checkpointed_steepest_descent(after, sim, so, {path, 1});

    EXPECT_EQ(resumed.levels, expected.levels) << "kill=" << kill;
    EXPECT_EQ(resumed.decisions, expected.decisions) << "kill=" << kill;
    EXPECT_DOUBLE_EQ(resumed.final_lambda, expected.final_lambda);
    EXPECT_EQ(resumed.feasible, expected.feasible);
    expect_snapshots_equal(after.snapshot(), reference.snapshot());
    std::remove(path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(CheckpointedRuns, RerunAfterCompletionIsAnIdleResume) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  mpo.w_max = 6;
  mpo.w_min = 2;
  mpo.lambda_min = 3.0;
  std::size_t sim_calls = 0;
  const d::SimulatorFn sim = [&sim_calls](const d::Config& c) {
    ++sim_calls;
    return smooth(c);
  };
  const std::string path = temp_path("ace_ckpt_idem.txt");

  d::KrigingPolicy first(kriging_options());
  const d::MinPlusOneResult res =
      d::checkpointed_min_plus_one(first, sim, mpo, {path, 1});
  const std::size_t calls_after_first = sim_calls;

  // The cursor on disk is finished: a rerun restores the policy, runs no
  // steps, simulates nothing, and reproduces the result.
  d::KrigingPolicy second(kriging_options());
  const d::MinPlusOneResult rerun =
      d::checkpointed_min_plus_one(second, sim, mpo, {path, 1});
  EXPECT_EQ(sim_calls, calls_after_first);
  EXPECT_EQ(rerun.w_res, res.w_res);
  EXPECT_EQ(rerun.decisions, res.decisions);
  EXPECT_TRUE(first.stats() == second.stats());
  std::remove(path.c_str());
}

TEST(CheckpointedRuns, OptimizerMismatchIsRejected) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  mpo.w_max = 4;
  mpo.w_min = 2;
  mpo.lambda_min = 2.0;
  const std::string path = temp_path("ace_ckpt_mismatch.txt");
  d::KrigingPolicy policy(kriging_options());
  (void)d::checkpointed_min_plus_one(policy, smooth, mpo, {path, 1});

  d::SensitivityOptions so;
  so.nv = 2;
  d::KrigingPolicy other(kriging_options());
  EXPECT_THROW((void)d::checkpointed_steepest_descent(other, smooth, so,
                                                      {path, 1}),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointedRuns, EmptyPathIsRejected) {
  d::MinPlusOneOptions mpo;
  mpo.nv = 2;
  d::KrigingPolicy policy(kriging_options());
  EXPECT_THROW(
      (void)d::checkpointed_min_plus_one(policy, smooth, mpo, {"", 1}),
      std::invalid_argument);
}

}  // namespace
