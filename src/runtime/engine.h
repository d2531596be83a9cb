// The real (threaded) AI Metropolis engine — Algorithm 3 with live agents.
//
// Architecture mirrors §3.1/§3.6: a controller on a light critical path
// exchanges work with persistent worker pools (runtime::TaskPool); every
// ready cluster becomes one pool task, submitted at its step as the
// priority so the earliest-step cluster always runs first (§3.5). Workers
// run every agent in a cluster, call the LLM through the blocking client
// shim, commit writes to the world and the dependency scoreboard, and
// submit whatever clusters the commit released — so dispatch is a queue
// push, never a thread spawn, and nothing heavier than a condition
// variable sits on the controller's critical path. All shared simulation
// state is additionally mirrored into the in-memory kv store (the paper
// keeps it in Redis) — agent rows are updated transactionally at each
// commit and an instrumentation log records every cluster dispatch.
//
// Locking discipline (boundary-lag commit protocol): there is no single
// engine-wide state lock. World writes serialize on the world's own
// shared_mutex and the kv mirror uses the store's internal shard locks,
// both outside any engine lock. Scoreboard graph maintenance uses a
// two-mode protocol over the region partition (config.shards):
//
//   interior commit — the scoreboard proves the commit's influence region
//     sits inside one strip s with no cross-strip couplings
//     (Scoreboard::local_commit_shard); the worker then holds
//     topology_mutex_ SHARED plus shard_mutexes_[s] and commits, popping
//     released clusters from strip s only. Interior commits in different
//     strips run fully concurrently — this is the hot path that removes
//     the global commit lock.
//   cross-shard commit — anything near a strip border (or with shards=1,
//     everything) holds topology_mutex_ EXCLUSIVE, which excludes every
//     interior commit: exactly the old global-commit-lock behavior. It
//     also refreshes min_floor_, the monotonic lower bound on min_step()
//     that interior commits use to bound their probe radii without
//     reading other strips' live-step tables.
//
// Lock order: engine.topology -> engine.shard -> task_pool ->
// engine.stats -> engine.control (see docs/ARCHITECTURE.md, "Sharded
// world", for the full inventory). The scoreboard object itself carries
// no capability annotation: its guard is the protocol above, which Clang
// TSA cannot express (shared-mode writers striped by a runtime index);
// the runtime lock-order validator and the TSan suite check it instead.
//
// The paper uses processes to dodge the Python GIL; C++ threads carry no
// such penalty, so workers are pool threads here. The scheduling policy
// objects (Scoreboard, clustering, priorities) are the same code the
// discrete-event benchmarks use.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/scoreboard.h"
#include "kv/store.h"
#include "runtime/task_pool.h"
#include "world/world_state.h"

namespace aimetro::runtime {

struct EngineConfig {
  core::DependencyParams params;
  Step target_step = 100;
  std::int32_t n_workers = 4;
  /// Distance model for the dependency rules. Null = Euclidean (the
  /// historical default). Graph worlds pass a core::GraphMetric here so
  /// the scoreboard measures hops; must outlive the engine.
  std::shared_ptr<const core::Metric> metric;
  /// Mirror agent state and an instrumentation stream into the kv store.
  bool kv_instrumentation = true;
  /// Region partition of the world (1..core::kMaxShards). Values > 1
  /// activate the boundary-lag commit protocol; the scoreboard still
  /// collapses graph metrics to one strip, in which case every commit
  /// takes the cross-shard path and behavior matches shards=1 exactly.
  /// The engine spawns one private pool per strip, splitting n_workers
  /// between them.
  std::int32_t shards = 1;
};

struct EngineStats {
  std::uint64_t clusters_executed = 0;
  std::uint64_t agent_steps = 0;
  std::uint64_t kv_transactions = 0;
  std::uint64_t kv_conflicts = 0;
  /// Commit-lock contention: total scoreboard commits, total microseconds
  /// workers spent waiting to acquire the commit locks, total
  /// microseconds spent holding them (graph maintenance + dispatch), and
  /// the worst single wait. wait >> hold means commits are serializing
  /// the pipeline; both near zero means the LLM calls dominate, as
  /// designed. With shards > 1 these are rollups of the per-strip rows
  /// (sums, except max_commit_wait_us which is the max).
  std::uint64_t commits = 0;
  std::uint64_t commit_wait_us = 0;
  std::uint64_t commit_hold_us = 0;
  std::uint64_t max_commit_wait_us = 0;
};

class Engine {
 public:
  /// Computes the intents of every member of `cluster` for its step. Runs
  /// on worker threads; implementations may issue blocking LLM calls. Must
  /// be thread-safe and deterministic given the world snapshot.
  using StepFn = std::function<std::vector<world::StepIntent>(
      const core::AgentCluster& cluster, const world::WorldState& world)>;

  /// Spawns the worker pool(s) here, so a caller timing run() never
  /// measures thread creation.
  Engine(world::WorldState* world, EngineConfig config, StepFn step_fn);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the simulation to target_step. Blocking; returns aggregate stats.
  /// Rethrows the first exception a cluster task raised (the run stops
  /// dispatching and drains in-flight work first).
  EngineStats run();

  /// Post-run inspection only: callers read the scoreboard after run()
  /// returned (or before it started), when no worker can be mutating it.
  const core::Scoreboard& scoreboard() const { return *scoreboard_; }
  kv::Store& store() { return store_; }
  /// Effective strip count (after the scoreboard's collapse rules).
  std::int32_t shards() const { return shards_; }
  /// Per-strip commit contention rows, index shards() = the cross-shard
  /// (boundary-reconciliation) row. Only the commit* fields are
  /// populated; kv/cluster totals live in the aggregate. Post-run only.
  std::vector<EngineStats> shard_commit_stats() const;

 private:
  void execute_cluster(core::AgentCluster cluster);
  /// Queue released clusters on their home strips' pools (step
  /// priority). A cluster's home is the strip of its first (smallest-id)
  /// member, whose position is stable while the cluster runs.
  void submit_clusters(std::vector<core::AgentCluster> ready);

  world::WorldState* world_;
  EngineConfig config_;
  StepFn step_fn_;
  /// Set once in the constructor. The pointed-to graph is mutated under
  /// the boundary-lag protocol described in the header comment (shared
  /// topology + one strip lock, or exclusive topology) — a guard Clang
  /// TSA cannot express, so the pointer is deliberately unannotated.
  std::unique_ptr<core::Scoreboard> scoreboard_;
  kv::Store store_;

  /// Cluster pools, one per strip (size shards()), indexed by the home
  /// strip of the clusters they run.
  std::vector<std::unique_ptr<TaskPool>> pools_;

  std::int32_t shards_ = 1;
  /// Cross-shard commits hold this exclusively; interior commits hold it
  /// shared plus one shard mutex. Acquired before any other engine lock.
  common::SharedMutex topology_mutex_{"engine.topology"};
  std::vector<std::unique_ptr<common::Mutex>> shard_mutexes_;
  /// Monotonic lower bound on scoreboard min_step(); refreshed only by
  /// cross-shard commits (the only ones that may read every strip's
  /// live-step table). Bounds interior commits' probe radii.
  std::atomic<Step> min_floor_{0};
  /// Control plane: run()/~Engine() wait here for in-flight cluster
  /// tasks to drain. Never held while acquiring topology/shard locks.
  common::Mutex control_mutex_{"engine.control"};
  common::CondVar done_cv_;
  std::atomic<std::int64_t> inflight_clusters_{0};
  /// First task failure; stops dispatch.
  std::exception_ptr error_ GUARDED_BY(control_mutex_);
  /// Lock-free mirror of `error_ != nullptr` so workers can skip the
  /// world commit on failed runs without touching the control lock.
  std::atomic<bool> failed_{false};
  mutable common::Mutex stats_mutex_{"engine.stats"};
  EngineStats stats_ GUARDED_BY(stats_mutex_);
  /// Commit contention per strip + the cross-shard row (size shards+1).
  std::vector<EngineStats> shard_rows_ GUARDED_BY(stats_mutex_);
};

}  // namespace aimetro::runtime
