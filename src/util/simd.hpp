// Name of the distance-scan backend, reported in benchmark run contexts.
//
// Every distance is computed by the canonical l1_distance / l2_distance
// helpers (dse/config.hpp, kriging/empirical_variogram.hpp); there is no
// vector backend. This header survives only because the repository
// benchmark (perfbench/ace_perf.cpp) includes it and prints backend() in
// its run context, and that harness is kept byte-stable across changes
// so its results stay comparable.
#pragma once

namespace ace::util::simd {

/// Always "scalar": the only distance path.
inline const char* backend() { return "scalar"; }

}  // namespace ace::util::simd
