// Store of already-simulated configurations (the paper's Wsim / λsim).
//
// Only *simulated* configurations enter the store — interpolated points are
// never reused as kriging support ("If the configuration is interpolated,
// it is not used for kriging other configurations", Sec. III-B1).
//
// The store is indexed two ways:
//   * an exact-match hash map, so re-evaluations of an already-simulated
//     configuration are O(1) memo lookups instead of fresh simulations;
//   * a coordinate-sum bucket index for radius queries: for any two
//     configurations |Σa − Σb| <= ||a − b||₁, so only buckets whose sum
//     falls in [Σq − r, Σq + r] can hold L1 neighbours of query q (and
//     within ±⌈√Nv·r⌉ for L2 queries, since ||·||₁ <= √Nv·||·||₂). This
//     replaces the O(N) linear scan per neighbourhood lookup with a scan
//     of the few populated buckets in the band. Candidates are tested with
//     the canonical l1_distance / l2_distance helpers and the hits sorted
//     into ascending index order, so the result equals the *_linear
//     reference scans.
//
// Faulted configurations are *quarantined*: a configuration whose
// simulation exhausted its retry budget (threw, returned NaN/Inf, or blew
// its deadline) is recorded with its fault code so it is never admitted as
// kriging support and never re-simulated beyond that budget. Non-finite λ
// values are rejected at add() with a typed error — a single NaN support
// point silently poisons every kriging estimate that draws on it.
// A *successful* add() lifts an earlier quarantine: a configuration that
// faulted once (e.g. a transient timeout) but later simulated cleanly —
// through restore-replay or a distributed merge — is healthy support, not
// a permanent outcast. The quarantine_log_ keeps the lifted entry for
// audit; only the active-quarantine map forgets it.
//
// Thread-safety: every member — writes *and* reads — takes the annotated
// `mutex_`, so the Clang capability analysis (-Wthread-safety) proves the
// lock discipline statically instead of relying on the batch engine's
// phase-separation protocol being honoured by every future caller. The
// reference-returning accessors (config(), configs(), values(),
// quarantine_log()) hand out views into guarded containers; the batch
// engine's serial fold phases are the only consumers, and growth never
// invalidates an index the caller already holds (append-only vectors,
// duplicate adds update in place).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dse/config.hpp"
#include "dse/fault.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ace::dse {

/// Indices of stored configurations within a given L1 radius of a query.
struct Neighborhood {
  std::vector<std::size_t> indices;
  std::size_t count() const { return indices.size(); }
};

/// Indexed store of (configuration, metric value) pairs.
class SimulationStore {
 public:
  /// Add a simulated configuration and return its index. An exact
  /// duplicate updates the stored value in place instead of creating a
  /// second support point — duplicate support points make the kriging Γ
  /// matrix singular. A successful add lifts any active quarantine on the
  /// configuration (the quarantine log keeps the entry for audit). Throws
  /// std::invalid_argument if the dimensionality differs from previously
  /// stored entries and util::NonFiniteError if the value is NaN/Inf (a
  /// non-finite support point corrupts every estimate drawing on it).
  std::size_t add(Config config, double value) ACE_EXCLUDES(mutex_);

  /// Index of an exactly matching stored configuration, if any.
  std::optional<std::size_t> find(const Config& config) const
      ACE_EXCLUDES(mutex_);

  std::size_t size() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return configs_.size();
  }
  bool empty() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return configs_.empty();
  }

  const Config& config(std::size_t i) const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return configs_.at(i);
  }
  double value(std::size_t i) const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return values_.at(i);
  }

  const std::vector<Config>& configs() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return configs_;
  }
  const std::vector<double>& values() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return values_;
  }

  /// All stored entries with L1 distance <= radius from the query
  /// (Algorithms 1-2, lines 7-16), in ascending index order. A negative
  /// radius is a caller sign bug, not an empty query: ACE_REQUIRE rejects
  /// it in contract-checked builds instead of silently returning nothing.
  Neighborhood neighbors_within(const Config& query, int radius) const
      ACE_EXCLUDES(mutex_);

  /// Same with Euclidean distance (extension ablation). ACE_REQUIREs
  /// radius >= 0.0 like the L1 variant.
  Neighborhood neighbors_within_l2(const Config& query, double radius) const
      ACE_EXCLUDES(mutex_);

  /// Reference implementations: plain linear scans with no bucket
  /// index. Deliberately unoptimized — the decision-identity oracle for
  /// the property tests and the baseline denominator for
  /// bench/micro_kriging's neighbour-search speedup attribution.
  Neighborhood neighbors_within_linear(const Config& query, int radius) const
      ACE_EXCLUDES(mutex_);
  Neighborhood neighbors_within_l2_linear(const Config& query,
                                          double radius) const
      ACE_EXCLUDES(mutex_);

  /// Kriging support set for a neighborhood: real-coordinate points and
  /// their metric values.
  void gather(const Neighborhood& n, std::vector<std::vector<double>>& points,
              std::vector<double>& values) const ACE_EXCLUDES(mutex_);

  /// Quarantine a configuration whose simulation exhausted its retry
  /// budget. Returns true when newly quarantined, false when the
  /// configuration is already actively quarantined (the original fault
  /// code is kept). Re-quarantining after a lift succeeds and appends a
  /// second log entry.
  bool quarantine(Config config, FaultCode code) ACE_EXCLUDES(mutex_);

  /// The fault code of an *active* quarantine, if any. Lifted quarantines
  /// (a successful add() superseded the fault) return nullopt.
  std::optional<FaultCode> quarantined(const Config& config) const
      ACE_EXCLUDES(mutex_);

  /// Number of quarantine events ever recorded (lifts do not shrink it —
  /// the log is the audit trail the checkpoint format serializes).
  std::size_t quarantine_count() const ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return quarantine_log_.size();
  }

  /// Quarantined configurations in quarantine order (deterministic, unlike
  /// hash-map iteration — checkpoint files depend on this).
  const std::vector<std::pair<Config, FaultCode>>& quarantine_log() const
      ACE_EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return quarantine_log_;
  }

 private:
  void check_dimensions(const Config& c, const char* what) const
      ACE_REQUIRES(mutex_);

  std::vector<Config> configs_ ACE_GUARDED_BY(mutex_);
  std::vector<double> values_ ACE_GUARDED_BY(mutex_);
  /// Exact-match index: configuration -> position in configs_.
  std::unordered_map<Config, std::size_t, ConfigHash> exact_
      ACE_GUARDED_BY(mutex_);
  /// Radius-query index: coordinate sum -> positions with that sum.
  std::map<int, std::vector<std::size_t>> sum_buckets_ ACE_GUARDED_BY(mutex_);
  /// Faulted configurations: lookup map + insertion-ordered log.
  std::unordered_map<Config, FaultCode, ConfigHash> quarantine_
      ACE_GUARDED_BY(mutex_);
  std::vector<std::pair<Config, FaultCode>> quarantine_log_
      ACE_GUARDED_BY(mutex_);
  mutable util::Mutex mutex_{util::lock_order::Rank::kStore, "dse.store"};
};

}  // namespace ace::dse
