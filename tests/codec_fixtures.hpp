// Fixed payloads for the persistence and wire formats: one checkpoint, one
// wire frame per verb and one trajectory, each paired with the exact bytes
// its writer produces. The golden-bytes test pins those bytes; the
// byte-mutation test uses them as seeds.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "dse/checkpoint.hpp"
#include "dse/trajectory.hpp"

namespace ace_test {

/// Every section of the format populated: two store rows (one +inf), a
/// quarantine entry, fit events, nonzero v1/v2/v3 counters, a nan, and
/// both optimizer cursors mid-run.
inline ace::dse::Checkpoint golden_checkpoint() {
  namespace d = ace::dse;
  d::Checkpoint ck;
  ck.optimizer = "min_plus_one";
  ck.policy.configs = {{8, 7, 6}, {7, 7, 6}};
  ck.policy.values = {1.0 / 3.0, std::numeric_limits<double>::infinity()};
  ck.policy.quarantine = {{{5, 5, 5}, d::FaultCode::kSimulatorThrow}};
  ck.policy.fit_events = {6, 11};

  d::PolicyStats& s = ck.policy.stats;
  s.total = 21;
  s.simulated = 2;
  s.interpolated = 17;
  s.exact_hits = 1;
  s.kriging_failures = 1;
  s.variance_rejections = 3;
  s.refits = 2;
  s.failed_refits = 1;
  s.simulator_faults = 4;
  s.retries = 3;
  s.timeouts = 1;
  s.quarantined = 1;
  s.checkpoints_written = 5;
  s.neighbors_per_interpolation.add(3.0);
  s.neighbors_per_interpolation.add(4.0);
  s.ridge_fallbacks = 2;
  s.full_factorizations = 9;
  s.rcond_per_solve.add(0.1);
  s.loo_rejections = 7;
  s.sequential_rejections = 8;
  s.loo_passes = 2;
  s.loo_abs_error.add(0.25);
  s.loo_abs_error.add(1e-300);

  ck.min_plus.phase = 2;
  ck.min_plus.var = 3;
  ck.min_plus.w_min = {6, 6, 5};
  ck.min_plus.lambda_at_max = -std::numeric_limits<double>::infinity();
  ck.min_plus.have_lambda_at_max = true;
  ck.min_plus.w = {7, 6, 5};
  ck.min_plus.lambda = -9.25;
  ck.min_plus.have_lambda = true;
  ck.min_plus.decisions = {0, 2, 1};
  ck.min_plus.steps = 4;

  ck.sensitivity.started = true;
  ck.sensitivity.levels = {4, 5, 5};
  ck.sensitivity.lambda = std::numeric_limits<double>::quiet_NaN();
  ck.sensitivity.feasible = true;
  ck.sensitivity.decisions = {1, 0};
  ck.sensitivity.steps = 2;
  return ck;
}

inline const std::string kGoldenCheckpoint =
    "ACE-CHECKPOINT 3\n"
    "optimizer min_plus_one\n"
    "store 2 3 \n"
    "8 7 6 0x1.5555555555555p-2 \n"
    "7 7 6 inf \n"
    "quarantine 1 3 \n"
    "2 5 5 5 \n"
    "fit_events 2 6 11 \n"
    "stats 21 2 17 1 1 3 2 1 4 3 1 1 5 2 0x1.cp+1 0x1p-1 0x1.8p+1 0x1p+2 2 9 "
    "0 0 1 0x1.999999999999ap-4 0x0p+0 0x1.999999999999ap-4 "
    "0x1.999999999999ap-4 7 8 2 2 0x1p-3 0x1p-5 0x1.56e1fc2f8f359p-997 "
    "0x1p-2 \n"
    "cursor_min_plus 2 3 4 1 1 -inf -0x1.28p+3 \n"
    "w_min 3 6 6 5 \n"
    "w 3 7 6 5 \n"
    "decisions 3 0 2 1 \n"
    "cursor_sensitivity 1 0 1 2 nan \n"
    "levels 3 4 5 5 \n"
    "decisions 2 1 0 \n"
    "end\n";

/// One frame per wire verb, in MsgType order.
inline std::vector<std::string> golden_frames() {
  namespace dist = ace::dist;
  ace::util::RetryOptions retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 0.5;
  retry.deadline_ms = 250.0;
  ace::util::GuardedCall call;
  call.value = 0.1;
  call.fault = ace::util::CallFault::kNone;
  call.attempts = 2;
  call.faulted_attempts = 1;
  call.timeouts = 1;
  call.message = "first try threw\nthen passed";
  return {dist::encode_hello(retry),
          dist::encode_ready(),
          dist::encode_task(42, {8, -1, 0}),
          dist::encode_outcome(42, call),
          dist::encode_ping(7),
          dist::encode_pong(7),
          dist::encode_quit(),
          dist::encode_err("cannot honour\rframe")};
}

inline const std::vector<std::string> kGoldenFrames = {
    "HELLO 1 3 0x1p-1 0x1p+1 0x1.9p+6 0x1p-2 11400714819323198485 0x1.f4p+7 "
    "~a203a75faa64a9f4",
    "READY 1 ~821da8b5ef2afc37",
    "TASK 42 3 8 -1 0 ~73cd5fcd7062895f",
    "OUT 42 0 2 1 1 0x1.999999999999ap-4 first try threw then passed "
    "~9beabcd1db901ca0",
    "PING 7 ~88c3f630e9ca28f4",
    "PONG 7 ~e0145b53671cb7e6",
    "QUIT ~3206621315ca57b6",
    "ERR cannot honour frame ~f5b0a82ee0a55ead",
};

inline ace::dse::Trajectory golden_trajectory() {
  ace::dse::Trajectory t;
  t.configs = {{16, 16, 12}, {15, 16, 12}, {15, 15, 12}, {15, 15, -3}};
  t.values = {90.25, 1.0 / 3.0, -3.75e-2, 1e300};
  return t;
}

inline const std::string kGoldenTrajectory =
    "e0,e1,e2,lambda\n"
    "16,16,12,90.25\n"
    "15,16,12,0.33333333333333331\n"
    "15,15,12,-0.037499999999999999\n"
    "15,15,-3,1.0000000000000001e+300\n"
    "#end rows=4\n";

}  // namespace ace_test
