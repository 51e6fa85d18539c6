// Arithmetic of the benchmark, kept apart so perf_arith_test can check it:
// percentiles under the "ten samples beyond" rule, the quartile spread the
// benchmark's steadiness is judged by, and span self time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile named by its tail: p = 100·(1 − 1/tail). Naming it this way
/// keeps "how many samples lie beyond it" in exact integer arithmetic.
struct Percentile {
  std::size_t tail = 2;
  double percent() const {
    return 100.0 * (1.0 - 1.0 / static_cast<double>(tail));
  }
};

inline constexpr Percentile kP50{2};
inline constexpr Percentile kP90{10};
inline constexpr Percentile kP99{100};
inline constexpr Percentile kP999{1000};
inline constexpr Percentile kP9999{10000};

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank p-th percentile of n samples:
/// the rank is ceil(n·(1 − 1/tail)), which leaves floor(n / tail) above it.
inline std::size_t samples_beyond(std::size_t n, Percentile p) {
  return n / p.tail;
}

inline bool supported(std::size_t n, Percentile p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

/// The highest of p50, p90, p99, p99.9, p99.99 that n samples support,
/// or Percentile{0} when not even the median has ten beyond it.
inline Percentile highest_supported(std::size_t n) {
  Percentile best{0};
  for (const Percentile p : {kP50, kP90, kP99, kP999, kP9999})
    if (supported(n, p)) best = p;
  return best;
}

/// Nearest-rank percentile: the sample with exactly samples_beyond(n, p)
/// samples above it. Reorders `xs` (nth_element); throws on an empty set.
template <class T>
double percentile(std::vector<T>& xs, Percentile p) {
  if (xs.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t k = xs.size() - 1 - samples_beyond(xs.size(), p);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return static_cast<double>(xs[k]);
}

/// Median as Python's statistics.median computes it (mean of the two
/// middle values for an even count).
inline double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// (Q3 − Q1) / median, with the quartiles of Python's
/// statistics.quantiles(xs, n=4) (the default "exclusive" method).
/// Throws with fewer than two samples or a zero median.
inline double quartile_spread(std::vector<double> xs) {
  if (xs.size() < 2)
    throw std::invalid_argument("quartile spread needs two samples");
  std::sort(xs.begin(), xs.end());
  const long ld = static_cast<long>(xs.size());
  const long m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  const double mid = median(xs);
  if (mid == 0.0) throw std::invalid_argument("quartile spread of zero median");
  return (q[2] - q[0]) / mid;
}

/// Timing of one window of passes: the median pass wall time, the
/// evaluation rate, and the median and tail of the request latencies.
struct WindowTiming {
  double pass_median_s = 0.0;
  double evals_per_s = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  std::size_t samples = 0;  ///< Latency samples in the window.
};

/// Groups a run's passes into windows ("repetitions") of at least
/// `min_seconds` holding enough latency samples for the tail percentile
/// (kMinBeyond beyond it), and reduces each window as it closes, so only
/// the open window's samples are kept. Append a pass's latency samples to
/// samples(), then call add_pass().
class Windows {
 public:
  Windows(double min_seconds, Percentile tail)
      : min_seconds_(min_seconds), tail_(tail) {}

  std::vector<double>& samples() { return samples_; }

  void add_pass(double seconds, std::size_t evals) {
    walls_.push_back(seconds);
    evals_ += evals;
    seconds_ += seconds;
    if (seconds_ >= min_seconds_ && supported(samples_.size(), tail_)) close();
  }

  /// The closed windows. A trailing window that never filled is dropped,
  /// unless no window closed at all; then it is closed as it stands and
  /// throws if its samples cannot support the tail.
  std::vector<WindowTiming> finish() {
    if (closed_.empty() && !walls_.empty()) {
      if (!supported(samples_.size(), tail_))
        throw std::runtime_error("too few latency samples for the tail "
                                 "percentile; run longer");
      close();
    }
    return closed_;
  }

 private:
  void close() {
    WindowTiming w;
    w.pass_median_s = median(walls_);
    w.evals_per_s = static_cast<double>(evals_) / seconds_;
    w.p50 = percentile(samples_, kP50);
    w.tail = percentile(samples_, tail_);
    w.samples = samples_.size();
    closed_.push_back(w);
    walls_.clear();
    samples_.clear();
    evals_ = 0;
    seconds_ = 0.0;
  }

  double min_seconds_;
  Percentile tail_;
  std::vector<double> walls_;
  std::vector<double> samples_;
  std::size_t evals_ = 0;
  double seconds_ = 0.0;
  std::vector<WindowTiming> closed_;
};

/// Best of windows, field by field: least times, greatest rate (and the
/// smallest window's sample count). Outside interference only adds time,
/// so the best window tracks the code.
inline WindowTiming best_window(const std::vector<WindowTiming>& windows) {
  if (windows.empty()) throw std::invalid_argument("best of no windows");
  WindowTiming b = windows.front();
  for (const WindowTiming& w : windows) {
    b.pass_median_s = std::min(b.pass_median_s, w.pass_median_s);
    b.evals_per_s = std::max(b.evals_per_s, w.evals_per_s);
    b.p50 = std::min(b.p50, w.p50);
    b.tail = std::min(b.tail, w.tail);
    b.samples = std::min(b.samples, w.samples);
  }
  return b;
}

/// One recorded interval at a layer boundary. `parent` is the id of the
/// span that caused it (0 for none); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once; a child reaching outside its parent is clipped).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
