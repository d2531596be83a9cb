// The unified scenario runner.
//
// ScenarioDriver turns a ScenarioSpec into a running simulation on either
// execution backend behind one interface:
//
//   - DES backend: generate the scenario's trace, then replay it in
//     virtual time on the discrete-event serving simulator under
//     single-thread, parallel-sync, and metropolis scheduling — the
//     paper's evaluation pipeline, with cost-model GPUs.
//   - Engine backend: run the workload on the live threaded
//     runtime::Engine. Trace-bearing maps replay the same generated trace
//     through the engine's scoreboard (so both backends execute the
//     identical workload); arena maps run live LLM-driven gym agents
//     lock-step and out-of-order instead. Under `clock = wall` LLM calls
//     sleep a fixed fake latency and times are wall seconds; under
//     `clock = virtual` calls are priced on the spec's model/GPU via the
//     DES cost model (CostModelLlmClient on a SimClock) and times are
//     virtual seconds directly comparable to the DES backend.
//
// Either way the result is one ScenarioReport — speedup over serial,
// achieved parallelism, mean cluster size, mean blockers — so scheduler
// behavior is comparable across scenarios and backends.
#pragma once

#include <string>
#include <vector>

#include "replay/experiment.h"
#include "scenario/spec.h"
#include "trace/schema.h"
#include "world/grid_map.h"

namespace aimetro::scenario {

struct ScenarioReport {
  std::string scenario;
  Backend backend = Backend::kDes;
  std::int32_t agents = 0;
  Step steps = 0;
  std::uint64_t total_calls = 0;
  std::uint64_t agent_steps = 0;  // committed (agent, step) pairs

  /// Episode shape (days > 1 for multi-day scenarios).
  std::int32_t days = 1;
  std::int32_t steps_per_day = 8640;
  /// Realized population for heterogeneous scenarios, as
  /// "profile:count,..." in mix order; empty for homogeneous runs.
  std::string population;

  /// Host wall seconds run() spent building the map and the trace,
  /// before any replay or engine run starts.
  double setup_seconds = 0.0;

  /// Completion times in seconds: virtual for the DES backend and for the
  /// engine backend under clock = virtual, wall-clock otherwise.
  /// `sync_seconds` is DES-only (lock-step with a global barrier); serial
  /// is one global cursor / one worker.
  double serial_seconds = 0.0;
  double sync_seconds = 0.0;
  double metro_seconds = 0.0;
  double speedup_vs_serial = 0.0;
  double speedup_vs_sync = 0.0;
  /// True when the serial/lock-step baseline actually ran; summary() omits
  /// the baseline line and serial speedup otherwise.
  bool has_serial = false;
  /// Engine backend: times above are cost-model virtual seconds (clock =
  /// virtual) rather than wall time. Always true for the DES backend.
  bool virtual_time = false;

  /// Scheduler behavior (metropolis run).
  double avg_parallelism = 0.0;  // DES: time-averaged outstanding requests
  double mean_cluster_size = 0.0;
  double mean_blockers = 0.0;
  std::uint64_t clusters_dispatched = 0;

  /// Engine backend only: size of the member-chain TaskPool the metropolis
  /// run executed LLM chains on (spec key `pool_workers`, derived from
  /// `workers` when unset), and the largest number of chain tasks that
  /// were in flight at once. 0 / 0 on the DES backend.
  std::int32_t pool_workers = 0;
  std::uint64_t peak_inflight_tasks = 0;

  /// Effective scoreboard strip count (after the collapse rule: graph
  /// metrics run unsharded regardless of the spec).
  std::int32_t shards = 1;
  /// Engine backend, shards > 1 only: commit-lock contention per strip.
  /// The `shard = -1` row is the cross-shard (boundary-reconciliation)
  /// path — the residue of the old global commit lock.
  struct ShardContention {
    std::int32_t shard = 0;
    std::uint64_t commits = 0;
    std::uint64_t commit_wait_us = 0;
    std::uint64_t commit_hold_us = 0;
    std::uint64_t max_commit_wait_us = 0;
  };
  std::vector<ShardContention> shard_rows;

  /// Order-insensitive hash of the final per-agent (step, position)
  /// scoreboard state. Two backends that executed the same workload to the
  /// same final state produce the same digest.
  std::uint64_t scoreboard_digest = 0;

  /// Engine/gym runs only: world hashes of the serial and OOO executions;
  /// equality is the paper's correctness guarantee.
  std::uint64_t world_hash_serial = 0;
  std::uint64_t world_hash_metro = 0;

  /// One row per simulated day of a multi-day episode (the days the replay
  /// window overlaps). Workload columns come from the trace; finish_seconds
  /// is when the day's last LLM call completed in the metropolis run —
  /// under out-of-order execution day d+1's calls start well before day
  /// d's stragglers finish, which is exactly the cross-day slack the
  /// scheduler exploits.
  struct DayRow {
    std::int32_t day = 0;  // 0-based episode day index
    std::uint64_t calls = 0;
    std::int64_t input_tokens = 0;
    std::int64_t output_tokens = 0;
    /// Distinct conversations whose turns fall in this day (conversation
    /// ids never straddle a day boundary).
    std::uint64_t conversations = 0;
    double finish_seconds = 0.0;
  };
  /// Populated when the scenario spans more than one day (trace-bearing
  /// maps on either backend; arena/gym runs have no trace to break down).
  std::vector<DayRow> day_rows;

  std::string summary() const;
};

class ScenarioDriver {
 public:
  /// Throws CheckError (with the validate_spec message) on invalid specs.
  explicit ScenarioDriver(ScenarioSpec spec);

  const ScenarioSpec& spec() const { return spec_; }

  /// The full world for this spec (segments already concatenated).
  world::GridMap build_map() const;

  /// The scenario's generated workload trace, windowed per the spec.
  /// Check-fails for arena maps (no routine venues to generate from).
  trace::SimulationTrace build_trace() const;

  /// The DES experiment cell this spec describes (model/GPU resolved,
  /// parallelism applied) — for callers sweeping modes themselves.
  replay::ExperimentConfig experiment_config() const;

  /// Run on the spec's backend and report. `serial_baseline = false`
  /// skips the serial/lock-step reference run (halving the cost) when the
  /// caller only needs the sync/metropolis comparison.
  ScenarioReport run(bool serial_baseline = true) const;

 private:
  ScenarioReport run_des(bool serial_baseline) const;
  ScenarioReport run_engine_trace(bool serial_baseline) const;
  ScenarioReport run_engine_gym(bool serial_baseline) const;

  ScenarioSpec spec_;
  /// Per-agent profile names for heterogeneous specs, derived once at
  /// construction (trace::assign_profiles over the population mix) —
  /// the generator and the report both consume this one assignment, so
  /// the workload and the printed population can never disagree. Empty
  /// for homogeneous specs.
  std::vector<std::string> assigned_profiles_;
};

/// Split `agents` over `segments` (floor share each, remainder spread over
/// the first segments) — sums exactly to `agents`, counts differ by at
/// most one. Requires agents >= segments >= 1.
std::vector<std::int32_t> segment_agent_counts(std::int32_t agents,
                                               std::int32_t segments);

/// The same split with a geometric hotspot skew (spec key `segment_skew`):
/// segment k is weighted (1 - skew)^k, every segment keeps at least one
/// agent, and the counts still sum exactly to `agents` (largest-remainder
/// rounding, deterministic). skew = 0 reduces to the even split above.
/// Requires agents >= segments >= 1 and skew in [0, 1).
std::vector<std::int32_t> segment_agent_counts(std::int32_t agents,
                                               std::int32_t segments,
                                               double skew);

/// `n` distinct walkable start tiles spread over `map` on an evenly spaced
/// grid, each snapped to the nearest free walkable tile. Check-fails when
/// the map cannot seat `n` agents.
std::vector<Tile> plan_gym_starts(const world::GridMap& map, std::int32_t n);

}  // namespace aimetro::scenario
