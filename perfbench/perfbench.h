// perfbench: the end-to-end scenario benchmark.
//
// One process runs one workload — a registry scenario replayed over the
// 12:00–13:00 busy hour — through the library's public API, timing each
// call from outside: ScenarioDriver::build_map/build_trace/
// experiment_config, trace::slice, replay::run_experiment,
// runtime::Engine::run and core::Scoreboard pop/commit. Nothing under
// src/ is instrumented; traced runs record spans around those calls.
// README.md in this directory gives each workload's reason, the layer ->
// end-to-end metric map and the known gaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- Statistics ----

/// A percentile together with the number of samples behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// The q-quantile (q in [0, 1]) of `samples`, linearly interpolated
/// between closest ranks; {0, 0} for no samples.
Percentile percentile(std::vector<double> samples, double q);

/// percentile(samples, 0.5).value.
double median(std::vector<double> samples);

/// Operation accounting behind error_rate. A workload's operations are
/// its agent-steps plus its traced LLM calls; a run that fails an output
/// check counts all of its operations as failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_run(std::uint64_t ops, bool ok) {
    attempted += ops;
    if (!ok) failed += ops;
  }
  /// A check over the whole invocation (recorded digest, repeat digest,
  /// workload shape) failed: every operation counts as failed.
  void fail_all() { failed = attempted; }
  /// failed / attempted; 1 when nothing was attempted.
  double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// ---- Workloads and runs ----

struct Workload {
  std::string name;
  std::string scenario;                // registry scenario
  std::vector<std::string> overrides;  // spec keys on top of the registry
  /// Shape bound: the run fails if a mean cluster size exceeds this, so a
  /// workload cannot silently collapse into a few giant clusters.
  double max_mean_cluster = 0.0;
  /// Independent traces per untraced invocation: the first from the
  /// workload seed, the others from seeds drawn from it. Each is set up
  /// and run; the run metrics are their means, so the replay cost of one
  /// seed does not decide the result alone.
  int traces = 1;
};

/// The benchmark's workloads. BENCHMARK.json names the first two;
/// social_busy_des is run by hand (README.md).
const std::vector<Workload>& workloads();
/// Null when unknown.
const Workload* find_workload(const std::string& name);

/// Seed whose final-state digests are recorded per workload and checked.
inline constexpr std::uint64_t kDefaultSeed = 42;
/// Held-out seed: later changes confirm a claimed gain on it, never tune
/// on it. Its digests are recorded too.
inline constexpr std::uint64_t kHeldOutSeed = 20261;

/// The recorded final-state digest of (workload, seed) on the workload's
/// own backend; 0 when none is recorded.
std::uint64_t recorded_digest(const std::string& workload, std::uint64_t seed);

struct Options {
  std::uint64_t seed = kDefaultSeed;
  /// Run-phase budget: untraced runs repeat until this much time was
  /// spent in them (at least two runs, for the repeat-digest check).
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its span file; empty = do not write.
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = false;
  OpCount ops;
  /// Untraced: the end-to-end metrics. Traced: the per-layer metrics.
  std::vector<Metric> metrics;
};

/// Run `workload` once as described in README.md: set up, run, check the
/// outputs and report. Prints a human-readable report to stdout; never
/// throws for a failed output check (it lands in Outcome::ops).
Outcome run(const Workload& workload, const Options& options);

/// The result as one JSON line: correct, attempted, failed, metrics.
std::string result_json(const Outcome& outcome);

}  // namespace perfbench
