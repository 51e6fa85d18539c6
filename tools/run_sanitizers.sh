#!/usr/bin/env bash
# Sanitized verification flow for the fault-tolerant evaluation subsystem.
#
# Builds the ASan+UBSan and TSan trees (CMakePresets: asan / tsan) and runs
# the dse / kriging / dist / serve / util test subset under each; the ASan
# run adds the fixed-point, signal, video and benchmark-golden tests. TSan
# specifically covers the concurrent surfaces: evaluate_batch on a pool,
# the collecting thread pool, the fault-injection counters, and the
# coordinator/worker reader threads plus the chaos-injected transports.
#
# Usage: tools/run_sanitizers.sh [address|thread|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
flavours="${1:-all}"

run_flavour() {
  preset="$1"
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] dse/kriging/dist/serve/util test subset ==="
  # Run the gtest binaries directly: binary names carry the subsystem
  # prefix (ctest registers individual suite.case names, which don't).
  # test_property_kriging sweeps every variogram family through the
  # kriging system but lacks the test_kriging_ prefix, so it is named.
  for bin in "build-$preset"/tests/test_util_* \
             "build-$preset"/tests/test_dse_* \
             "build-$preset"/tests/test_dist_* \
             "build-$preset"/tests/test_serve_* \
             "build-$preset"/tests/test_kriging_* \
             "build-$preset"/tests/test_property_kriging; do
    [ -x "$bin" ] || continue
    echo "--- $bin"
    "$bin" --gtest_brief=1
  done
  if [ "$preset" = asan ]; then
    # The simulators are single-threaded, so TSan has nothing to find in
    # them; ASan+UBSan covers the inline quantizer, the HEVC kernel's local
    # sample buffers and the golden-λ tests.
    echo "=== [$preset] fixedpoint/signal/video/benchmark test subset ==="
    for bin in "build-$preset"/tests/test_fixedpoint \
               "build-$preset"/tests/test_video* \
               "build-$preset"/tests/test_signal_* \
               "build-$preset"/tests/test_core_benchmarks; do
      [ -x "$bin" ] || continue
      echo "--- $bin"
      "$bin" --gtest_brief=1
    done
  fi
  if [ "$preset" = tsan ]; then
    # The park/resume lock scopes race by design; one pass rarely meets
    # every interleaving, so TSan sees the stress tests ten times.
    echo "--- build-$preset/tests/test_serve_concurrency x10"
    "build-$preset"/tests/test_serve_concurrency --gtest_brief=1 \
      --gtest_repeat=10
  fi
}

case "$flavours" in
  address) run_flavour asan ;;
  thread) run_flavour tsan ;;
  all)
    run_flavour asan
    run_flavour tsan
    ;;
  *)
    echo "usage: $0 [address|thread|all]" >&2
    exit 2
    ;;
esac
echo "sanitizer runs clean"
