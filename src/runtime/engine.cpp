#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/strings.h"

namespace aimetro::runtime {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

Engine::Engine(world::WorldState* world, EngineConfig config, StepFn step_fn)
    : world_(world), config_(config), step_fn_(std::move(step_fn)) {
  AIM_CHECK(world_ != nullptr);
  AIM_CHECK(step_fn_ != nullptr);
  AIM_CHECK(config_.n_workers >= 1);
  AIM_CHECK_MSG(config_.shards >= 1 && config_.shards <= core::kMaxShards,
                "EngineConfig::shards out of range");
  std::vector<Pos> initial;
  initial.reserve(world_->agent_count());
  for (std::size_t i = 0; i < world_->agent_count(); ++i) {
    initial.push_back(world_->pos_of(static_cast<AgentId>(i)));
  }
  scoreboard_ = std::make_unique<core::Scoreboard>(
      config_.params,
      config_.metric ? config_.metric : core::make_euclidean(),
      std::move(initial), config_.target_step, config_.shards);
  // The scoreboard collapses the partition for graph metrics; size
  // everything to what it actually runs.
  shards_ = scoreboard_->shards();
  shard_rows_.assign(static_cast<std::size_t>(shards_) + 1, EngineStats{});
  shard_mutexes_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    shard_mutexes_.push_back(std::make_unique<common::Mutex>("engine.shard"));
  }

  // One pool per strip, splitting n_workers between them so the total
  // thread budget matches the unsharded configuration.
  const std::int32_t per_shard =
      std::max<std::int32_t>(1, (config_.n_workers + shards_ - 1) / shards_);
  pools_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    pools_.push_back(std::make_unique<TaskPool>(per_shard));
  }

  if (config_.kv_instrumentation) {
    for (std::size_t i = 0; i < world_->agent_count(); ++i) {
      const Tile t = world_->tile_of(static_cast<AgentId>(i));
      const std::string key = strformat("agent:%zu", i);
      store_.hset(key, "step", "0");
      store_.hset(key, "x", std::to_string(t.x));
      store_.hset(key, "y", std::to_string(t.y));
    }
  }
}

Engine::~Engine() {
  // In-flight cluster tasks use the locks and counters declared after
  // pools_, which are destroyed before the pools join their workers, so
  // wait for every task to finish before any member goes away.
  common::MutexLock lock(control_mutex_);
  while (inflight_clusters_.load(std::memory_order_acquire) != 0) {
    done_cv_.wait(control_mutex_);
  }
}

void Engine::submit_clusters(std::vector<core::AgentCluster> ready) {
  // Ready clusters become pool tasks at their step as the submission
  // priority, so a backlogged pool still hands the earliest step to the
  // next free worker (§3.5). The caller already popped them under the
  // topology lock. A cluster's members stay running, and its home
  // position fixed, until its own task commits, and the partition never
  // changes after construction, so routing needs no engine lock.
  // Inflight accounting is atomic, and the submitting task's own
  // inflight count keeps run() from observing a premature zero.
  for (core::AgentCluster& cluster : ready) {
    const std::int32_t strip =
        shards_ == 1 ? 0
                     : scoreboard_->shard_of_pos(
                           scoreboard_->pos_of(cluster.members.front()));
    const Step step = cluster.step;
    inflight_clusters_.fetch_add(1, std::memory_order_acq_rel);
    pools_[static_cast<std::size_t>(strip)]->submit(
        step, [this, cluster = std::move(cluster)]() mutable {
          execute_cluster(std::move(cluster));
        });
  }
}

void Engine::execute_cluster(core::AgentCluster cluster) {
  // Heavy lifting off the controller's critical path (§3.6): agent
  // processing (LLM calls) runs without any engine lock, and the world
  // commit takes only the world's own mutex — graph maintenance in other
  // workers proceeds concurrently.
  std::vector<world::StepIntent> intents;
  std::exception_ptr error;
  try {
    intents = step_fn_(cluster, *world_);
  } catch (...) {
    error = std::current_exception();
  }

  if (error == nullptr && !failed_.load(std::memory_order_acquire)) {
    try {
      // resolve_conflict_and_commit applies developer conflict rules and
      // commits winners to the world; the unique world lock excludes
      // concurrent observation readers in other workers. The dependency
      // rules already guarantee in-flight clusters touch disjoint
      // perception regions, so world commits from different clusters can
      // interleave freely.
      std::vector<std::pair<AgentId, Pos>> moves;
      {
        common::WriterLock world_lock(world_->mutex());
        const auto outcomes =
            world_->resolve_conflict_and_commit(cluster.step, intents);
        world_lock.unlock();
        moves.reserve(outcomes.size());
        for (const auto& out : outcomes) {
          moves.emplace_back(out.agent, out.tile.center());
        }
        if (config_.kv_instrumentation) {
          // Transactional mirror of the committed agent rows, as the
          // paper keeps all simulation state in the in-memory database.
          // The store's shard locks make this safe outside the commit
          // locks; it reads no scoreboard state.
          kv::Transaction txn = store_.transaction();
          for (const auto& out : outcomes) {
            const std::string key = strformat("agent:%d", out.agent);
            txn.hset(key, "step", std::to_string(cluster.step + 1));
            txn.hset(key, "x", std::to_string(out.tile.x));
            txn.hset(key, "y", std::to_string(out.tile.y));
          }
          txn.rpush("log:commits", strformat("step=%d size=%zu", cluster.step,
                                             cluster.members.size()));
          txn.incr_by("stats:agent_steps",
                      static_cast<std::int64_t>(cluster.members.size()));
          const auto result = txn.exec();
          common::MutexLock slock(stats_mutex_);
          ++stats_.kv_transactions;
          if (result == kv::TxnResult::kConflict) ++stats_.kv_conflicts;
        }
      }

      // Graph maintenance — the boundary-lag commit protocol. Timed so
      // EngineStats can show whether commits serialize the pipeline
      // (wait) and what the maintenance itself costs (hold).
      const auto wait_begin = std::chrono::steady_clock::now();
      std::uint64_t wait_us = 0;
      std::uint64_t hold_us = 0;
      std::int32_t strip = -1;
      std::vector<core::AgentCluster> released;
      {
        // Interior path: prove the commit is confined to one strip, then
        // take that strip's lock under a shared topology hold. The floor
        // is sampled before classification so classification and commit
        // bound their probe radii identically; it can only lag the true
        // minimum, which merely widens the (exactly filtered) probes.
        common::ReaderLock tlock(topology_mutex_);
        const Step floor = min_floor_.load(std::memory_order_acquire);
        strip = scoreboard_->local_commit_shard(moves, floor);
        if (strip >= 0) {
          common::MutexLock slock(
              *shard_mutexes_[static_cast<std::size_t>(strip)]);
          const auto acquired = std::chrono::steady_clock::now();
          wait_us = elapsed_us(wait_begin, acquired);
          if (!failed_.load(std::memory_order_acquire)) {
            scoreboard_->commit(moves, floor);
            released = scoreboard_->pop_ready_clusters_in_shard(strip);
          }
          hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
        }
      }
      if (strip < 0) {
        // Cross-shard path: exclusive over the whole board (identical to
        // the old global commit lock; with shards=1 every commit lands
        // here). The exclusive hold is the only place the global minimum
        // may be recomputed and published.
        common::WriterLock tlock(topology_mutex_);
        const auto acquired = std::chrono::steady_clock::now();
        wait_us = elapsed_us(wait_begin, acquired);
        if (!failed_.load(std::memory_order_acquire)) {
          scoreboard_->commit(moves);
          min_floor_.store(scoreboard_->min_step(),
                           std::memory_order_release);
          released = scoreboard_->pop_ready_clusters();
        }
        hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
      }
      if (!failed_.load(std::memory_order_acquire)) {
        submit_clusters(std::move(released));
      }
      {
        common::MutexLock slock(stats_mutex_);
        ++stats_.clusters_executed;
        stats_.agent_steps += cluster.members.size();
        EngineStats& row = shard_rows_[static_cast<std::size_t>(
            strip >= 0 ? strip : shards_)];
        ++row.commits;
        row.commit_wait_us += wait_us;
        row.commit_hold_us += hold_us;
        row.max_commit_wait_us = std::max(row.max_commit_wait_us, wait_us);
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    common::MutexLock lock(control_mutex_);
    if (error != nullptr && error_ == nullptr) {
      error_ = error;
      failed_.store(true, std::memory_order_release);
    }
    inflight_clusters_.fetch_sub(1, std::memory_order_acq_rel);
    // The commit that finishes the last agent (or records the first
    // error) is what unblocks run(). Notify under the lock: a waiter in
    // ~Engine may destroy the condition variable the instant its
    // predicate holds.
    done_cv_.notify_all();
  }
}

EngineStats Engine::run() {
  {
    common::WriterLock tlock(topology_mutex_);
    std::vector<core::AgentCluster> ready = scoreboard_->pop_ready_clusters();
    tlock.unlock();
    submit_clusters(std::move(ready));
  }
  {
    // Controller: wait until every agent has reached the target (or a
    // task failed) and all in-flight cluster tasks have drained.
    common::MutexLock lock(control_mutex_);
    while (!((scoreboard_->all_done() || error_ != nullptr) &&
             inflight_clusters_.load(std::memory_order_acquire) == 0)) {
      done_cv_.wait(control_mutex_);
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
  }
  common::MutexLock slock(stats_mutex_);
  EngineStats out = stats_;
  for (const EngineStats& row : shard_rows_) {
    out.commits += row.commits;
    out.commit_wait_us += row.commit_wait_us;
    out.commit_hold_us += row.commit_hold_us;
    out.max_commit_wait_us =
        std::max(out.max_commit_wait_us, row.max_commit_wait_us);
  }
  return out;
}

std::vector<EngineStats> Engine::shard_commit_stats() const {
  common::MutexLock slock(stats_mutex_);
  return shard_rows_;
}

}  // namespace aimetro::runtime
