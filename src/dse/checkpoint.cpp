#include "dse/checkpoint.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <stdexcept>

#include "dse/codec.hpp"
#include "dse/scheduler.hpp"

namespace ace::dse {

namespace {

constexpr const char* kMagic = "ACE-CHECKPOINT";
/// v2 and v3 each appended a tail to the stats record (kStatsTails); v1
/// and v2 files still load.
constexpr int kVersion = 3;

/// Staging-file name for the atomic tmp+rename write. The name is unique
/// per process *and* per write (pid + a process-local counter), so two
/// concurrent writers — two threads here, or two coordinator/worker
/// processes checkpointing the same path — can never interleave on a
/// shared ".tmp" file and rename a half-written payload into place.
std::string unique_tmp_name(const std::string& path) {
  static std::atomic<unsigned long> counter{0};
  std::string tmp = path;
  tmp += ".tmp.";
  tmp += std::to_string(static_cast<long>(::getpid()));
  tmp += '.';
  tmp += std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  return tmp;
}

/// Unlinks the staging file unless the write completed: a failure anywhere
/// on the open/write/rename path must not leave an orphaned .tmp behind.
class TmpGuard {
 public:
  explicit TmpGuard(std::string path) : path_(std::move(path)) {}
  ~TmpGuard() {
    if (armed_) (void)std::remove(path_.c_str());
  }
  void disarm() { armed_ = false; }

 private:
  std::string path_;
  bool armed_ = true;
};

/// One version's part of the "stats" record: counters, then a
/// RunningStats (n, mean, m2, min, max). A null counter is a reserved
/// slot: written as 0, read as a strict unsigned and discarded.
struct StatsTail {
  int version;
  std::initializer_list<std::size_t PolicyStats::*> counters;
  util::RunningStats PolicyStats::*running;
};

/// The "stats" record in file order. The writer emits every tail; the
/// reader only those its file's version has, so a v1/v2 file restores with
/// the later fields at their fresh-policy values.
const StatsTail kStatsTails[] = {
    {1,
     {&PolicyStats::total, &PolicyStats::simulated, &PolicyStats::interpolated,
      &PolicyStats::exact_hits, &PolicyStats::kriging_failures,
      &PolicyStats::variance_rejections, &PolicyStats::refits,
      &PolicyStats::failed_refits, &PolicyStats::simulator_faults,
      &PolicyStats::retries, &PolicyStats::timeouts, &PolicyStats::quarantined,
      &PolicyStats::checkpoints_written},
     &PolicyStats::neighbors_per_interpolation},
    // v2: conditioning / factorization counters. The last two slots held
    // the retired factor-cache hit/extend counters and are reserved.
    {2,
     {&PolicyStats::ridge_fallbacks, &PolicyStats::full_factorizations,
      nullptr, nullptr},
     &PolicyStats::rcond_per_solve},
    // v3: acquisition-gate counters.
    {3,
     {&PolicyStats::loo_rejections, &PolicyStats::sequential_rejections,
      &PolicyStats::loo_passes},
     &PolicyStats::loo_abs_error},
};

// --- writing: every value is one token followed by a space ---------------

template <class... Ts>
void put(std::string& out, const Ts&... values) {
  ((out += to_token(values), out += ' '), ...);
}

template <class T>
void put_all(std::string& out, const std::vector<T>& xs) {
  for (const T& x : xs) put(out, x);
}

/// A list that carries its own length, as one line.
template <class T>
void put_sized(std::string& out, const std::vector<T>& xs) {
  put(out, xs.size());
  put_all(out, xs);
  out += '\n';
}

std::string serialize(const Checkpoint& ck) {
  std::string out = kMagic;
  out += ' ';
  out += std::to_string(kVersion);
  out += "\noptimizer ";
  out += ck.optimizer;
  out += '\n';

  const PolicySnapshot& p = ck.policy;
  out += "store ";
  put(out, p.configs.size(),
      p.configs.empty() ? std::size_t{0} : p.configs.front().size());
  out += '\n';
  for (std::size_t i = 0; i < p.configs.size(); ++i) {
    put_all(out, p.configs[i]);
    put(out, p.values[i]);
    out += '\n';
  }
  out += "quarantine ";
  put(out, p.quarantine.size(),
      p.quarantine.empty() ? std::size_t{0} : p.quarantine.front().first.size());
  out += '\n';
  for (const auto& [config, code] : p.quarantine) {
    put(out, static_cast<int>(code));
    put_all(out, config);
    out += '\n';
  }
  out += "fit_events ";
  put_sized(out, p.fit_events);

  out += "stats ";
  for (const StatsTail& tail : kStatsTails) {
    for (const auto counter : tail.counters)
      put(out, counter ? p.stats.*counter : std::size_t{0});
    const util::RunningStats::State rs = (p.stats.*tail.running).state();
    put(out, rs.n, rs.mean, rs.m2, rs.min, rs.max);
  }
  out += '\n';

  const MinPlusOneCursor& m = ck.min_plus;
  out += "cursor_min_plus ";
  put(out, m.phase, m.var, m.steps, m.have_lambda_at_max, m.have_lambda,
      m.lambda_at_max, m.lambda);
  out += "\nw_min ";
  put_sized(out, m.w_min);
  out += "w ";
  put_sized(out, m.w);
  out += "decisions ";
  put_sized(out, m.decisions);

  const SensitivityCursor& s = ck.sensitivity;
  out += "cursor_sensitivity ";
  put(out, s.started, s.done, s.feasible, s.steps, s.lambda);
  out += "\nlevels ";
  put_sized(out, s.levels);
  out += "decisions ";
  put_sized(out, s.decisions);

  out += "end\n";
  return out;
}

// --- reading ---------------------------------------------------------------

// A cut-off file (crash mid-write, truncated copy) runs out of tokens and is
// reported as kTruncatedPayload; a token that is there but does not parse,
// as kCorruptPayload. Counts read from the file never size a container
// up front: lists grow as their elements arrive, so a corrupt count runs
// out of tokens instead of memory.
Checkpoint parse(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  TokenReader r(text, "checkpoint", FaultCode::kTruncatedPayload);
  const auto ints = [&r](std::size_t n) {
    Config c;
    while (c.size() < n) c.push_back(r.integer("coordinate"));
    return c;
  };
  const auto sizes = [&r] {
    const std::size_t n = r.unsigned_integer("list length");
    std::vector<std::size_t> xs;
    while (xs.size() < n) xs.push_back(r.unsigned_integer("list entry"));
    return xs;
  };
  const auto flag = [&r](const char* what) {
    const int v = r.integer(what);
    if (v != 0 && v != 1) r.corrupt(std::string("bad flag for ") + what);
    return v == 1;
  };

  r.expect(kMagic);
  const int version = r.integer("version");
  if (version < 1 || version > kVersion)
    r.corrupt("unsupported version " + std::to_string(version));
  Checkpoint ck;
  r.expect("optimizer");
  ck.optimizer = r.next("optimizer");

  PolicySnapshot& p = ck.policy;
  r.expect("store");
  const std::size_t n = r.unsigned_integer("store size");
  const std::size_t dim = r.unsigned_integer("store dimension");
  while (p.configs.size() < n) {
    p.configs.push_back(ints(dim));
    p.values.push_back(r.real("store value"));
  }
  r.expect("quarantine");
  const std::size_t m = r.unsigned_integer("quarantine size");
  const std::size_t qdim = r.unsigned_integer("quarantine dimension");
  while (p.quarantine.size() < m) {
    const int code = r.integer("fault code");
    if (code < 0 || code > static_cast<int>(FaultCode::kTruncatedPayload))
      r.corrupt("bad fault code " + std::to_string(code));
    p.quarantine.emplace_back(ints(qdim), static_cast<FaultCode>(code));
  }
  r.expect("fit_events");
  p.fit_events = sizes();

  r.expect("stats");
  for (const StatsTail& tail : kStatsTails) {
    if (tail.version > version) break;
    for (const auto counter : tail.counters) {
      const std::size_t v = r.unsigned_integer("counter");
      if (counter) p.stats.*counter = v;
    }
    util::RunningStats::State rs;
    rs.n = r.unsigned_integer("sample count");
    for (double* v : {&rs.mean, &rs.m2, &rs.min, &rs.max})
      *v = r.real("sample moment");
    p.stats.*tail.running = util::RunningStats(rs);
  }

  MinPlusOneCursor& mp = ck.min_plus;
  r.expect("cursor_min_plus");
  mp.phase = r.integer("phase");
  mp.var = r.unsigned_integer("var");
  mp.steps = r.unsigned_integer("steps");
  mp.have_lambda_at_max = flag("have_lambda_at_max");
  mp.have_lambda = flag("have_lambda");
  mp.lambda_at_max = r.real("lambda_at_max");
  mp.lambda = r.real("lambda");
  r.expect("w_min");
  mp.w_min = ints(r.unsigned_integer("w_min length"));
  r.expect("w");
  mp.w = ints(r.unsigned_integer("w length"));
  r.expect("decisions");
  mp.decisions = sizes();

  SensitivityCursor& s = ck.sensitivity;
  r.expect("cursor_sensitivity");
  s.started = flag("started");
  s.done = flag("done");
  s.feasible = flag("feasible");
  s.steps = r.unsigned_integer("steps");
  s.lambda = r.real("lambda");
  r.expect("levels");
  s.levels = ints(r.unsigned_integer("levels length"));
  r.expect("decisions");
  s.decisions = sizes();

  r.expect("end");
  r.done("end");
  return ck;
}

/// The loop behind both checkpointed entry points. Resumes from the file at
/// `checkpoint.path` if there is one, then steps the cursor to completion,
/// writing a checkpoint every `period` steps, at the end, and when pausing
/// at `step_limit`. `slot` is the Checkpoint field for this optimizer's
/// cursor.
template <class Options, class Cursor>
Cursor run_checkpointed(
    KrigingPolicy& policy, const SimulatorFn& simulate, const Options& options,
    const CheckpointOptions& checkpoint, util::ThreadPool* pool,
    const char* optimizer, Cursor Checkpoint::*slot,
    Cursor (*make)(const Options&),
    bool (*step)(const BatchEvaluateFn&, const Options&, Cursor&)) {
  if (checkpoint.path.empty())
    throw std::invalid_argument(std::string("checkpointed ") + optimizer +
                                ": empty path");
  Cursor cursor = make(options);
  if (std::optional<Checkpoint> loaded = load_checkpoint(checkpoint.path)) {
    if (loaded->optimizer != optimizer)
      throw std::runtime_error("checkpoint: file at " + checkpoint.path +
                               " belongs to optimizer '" + loaded->optimizer +
                               "'");
    policy.restore(loaded->policy);
    cursor = (*loaded).*slot;
  }
  const BatchEvaluateFn evaluate = policy_batch_evaluator(policy, simulate, pool);

  Checkpoint ck;
  ck.optimizer = optimizer;
  std::size_t steps_this_run = 0;
  std::size_t since_write = 0;
  while (!cursor.finished()) {
    const bool more = step(evaluate, options, cursor);
    ++steps_this_run;
    ++since_write;
    const bool pause = checkpoint.step_limit > 0 &&
                       steps_this_run >= checkpoint.step_limit && more;
    if (!more || pause || since_write >= checkpoint.period) {
      ck.*slot = cursor;
      // record_checkpoint() runs *before* snapshot(), so the on-disk
      // statistics count the checkpoint that carries them — a resumed
      // run's checkpoints_written lines up with the uninterrupted run's.
      policy.record_checkpoint();
      ck.policy = policy.snapshot();
      save_checkpoint(checkpoint.path, ck);
      since_write = 0;
    }
    if (pause) break;
  }
  return cursor;
}

}  // namespace

std::string serialize_checkpoint(const Checkpoint& checkpoint) {
  return serialize(checkpoint);
}

Checkpoint parse_checkpoint(std::istream& in) { return parse(in); }

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  const std::string payload = serialize(checkpoint);
  const std::string tmp = unique_tmp_name(path);
  TmpGuard guard(tmp);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + tmp);
    out << payload;
    out.flush();
    if (!out.good())
      throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  guard.disarm();
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return parse(in);
}

MinPlusOneResult checkpointed_min_plus_one(KrigingPolicy& policy,
                                           const SimulatorFn& simulate,
                                           const MinPlusOneOptions& options,
                                           const CheckpointOptions& checkpoint,
                                           util::ThreadPool* pool) {
  return min_plus_one_result(
      run_checkpointed(policy, simulate, options, checkpoint, pool,
                       "min_plus_one", &Checkpoint::min_plus,
                       make_min_plus_one_cursor, min_plus_one_step),
      options);
}

SensitivityResult checkpointed_steepest_descent(
    KrigingPolicy& policy, const SimulatorFn& simulate,
    const SensitivityOptions& options, const CheckpointOptions& checkpoint,
    util::ThreadPool* pool) {
  return sensitivity_result(
      run_checkpointed(policy, simulate, options, checkpoint, pool,
                       "steepest_descent", &Checkpoint::sensitivity,
                       make_sensitivity_cursor, steepest_descent_step));
}

}  // namespace ace::dse
