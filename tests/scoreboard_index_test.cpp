// Differential tests for the index-backed scoreboard.
//
// core::Scoreboard (spatial-index box probes on Chebyshev-bounded
// metrics, graph-index BFS ball probes on hop metrics, region strips)
// must be observably indistinguishable from the full-scan
// ReferenceScoreboard in tests/support/reference_scoreboard.h. The
// harness in tests/support/differential.h drives both boards through one
// executor loop and compares the complete observable state after every
// commit; it runs here on a randomized synthetic sweep (with a one-line
// AIMETRO_DIFF_REPRO shrink mode for failures) and on the generated
// traces of the scenario registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "support/differential.h"
#include "support/reference_scoreboard.h"

namespace aimetro::core {
namespace {

using test_support::DiffCase;
using test_support::DiffShape;
using test_support::DriveCadence;
using test_support::drive_boards;
using test_support::parse_repro;
using test_support::ReferenceScoreboard;
using test_support::repro_string;
using test_support::run_differential_sweep;

/// The sweep's shape catalogue: every metric family, every density regime
/// the scheduler distinguishes. Graph shapes draw a fresh Newman-Watts
/// small-world graph per seed, so 16 seeds mean 16 different graphs.
const std::vector<DiffShape>& sweep_shapes() {
  static const std::vector<DiffShape> kShapes = {
      // Dense coupling: big clusters, lots of merging.
      {24, 30.0, 20, DependencyParams{4.0, 1.0}, "euclidean"},
      // Sparse: independence, long lag spreads, tight radius bound.
      {40, 400.0, 25, DependencyParams{4.0, 1.0}, "euclidean"},
      // Mixed occupancy.
      {64, 120.0, 15, DependencyParams{4.0, 1.0}, "euclidean"},
      // Large perception radius: blocking dominates.
      {32, 80.0, 12, DependencyParams{10.0, 1.0}, "euclidean"},
      // Slow agents: lag cones grow slowly.
      {24, 40.0, 18, DependencyParams{3.0, 0.25}, "euclidean"},
      // Non-Euclidean grid metrics exercise the box-superset filter.
      {32, 60.0, 15, DependencyParams{4.0, 1.0}, "manhattan"},
      {32, 60.0, 15, DependencyParams{4.0, 1.0}, "chebyshev"},
      // Degenerate single agent.
      {1, 5.0, 30, DependencyParams{4.0, 1.0}, "euclidean"},
      // Graph shapes exercise the BFS ball probe end to end.
      // Sparse small-world: ~1 agent per 5 nodes, 2-hop perception.
      {24, 0.0, 15, DependencyParams{2.0, 1.0}, "graph", 120, 4, 0.1},
      // Crowded: more agents than nodes, wide hop radius, heavy merging.
      {40, 0.0, 12, DependencyParams{3.0, 1.0}, "graph", 30, 6, 0.2},
      // Pure ring (no shortcuts): worst-case BFS depth, fractional radius
      // exercises the floor(r) hop bound.
      {12, 0.0, 15, DependencyParams{2.5, 1.0}, "graph", 48, 2, 0.0},
      // Immobile agents on a graph: pure blocking, no index updates.
      {16, 0.0, 20, DependencyParams{1.0, 0.0}, "graph", 64, 4, 0.1},
      // Sharded strip structure against the flat reference: wide spread
      // gives mostly-interior strips with live borders as agents drift.
      {48, 400.0, 15, DependencyParams{4.0, 1.0}, "euclidean", 0, 4, 0.1, 4},
      // Strips narrower than the blocking radius: nearly every agent is a
      // border agent and most clusters are cross-strip — the escalation
      // path must still match the flat board exactly.
      {32, 60.0, 12, DependencyParams{4.0, 1.0}, "euclidean", 0, 4, 0.1, 8},
      // Sharded non-Euclidean: box-superset probes across strip seams.
      {40, 240.0, 12, DependencyParams{4.0, 1.0}, "chebyshev", 0, 4, 0.1, 4},
      // Graph metric with shards requested: the partition must collapse
      // to one strip and behave exactly like the unsharded board.
      {24, 0.0, 12, DependencyParams{2.0, 1.0}, "graph", 120, 4, 0.1, 8},
  };
  return kShapes;
}

TEST(ScoreboardDifferential, SweepMatchesReferenceAcrossMetricsAndSeeds) {
  run_differential_sweep(sweep_shapes(), /*n_seeds=*/16);
}

/// Replays one scenario's generated trace through the production board
/// and the reference, built the way the DES executor's metropolis mode
/// builds its board: tile-centre positions, hop distance for graph
/// traces (Euclidean otherwise), target = the window length, strips =
/// the spec's resolved shard count. Each commit moves the cluster to its
/// traced positions; the harness's seeded in-flight pick chooses which
/// cluster commits next.
void run_trace_differential(const scenario::ScenarioSpec& spec,
                            DriveCadence cadence) {
  SCOPED_TRACE(spec.name);
  const trace::SimulationTrace tr = scenario::ScenarioDriver(spec).build_trace();
  std::vector<Pos> initial;
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    initial.push_back(tr.position_at(a, tr.start_step).center());
  }
  const DependencyParams params{tr.radius_p, tr.max_vel};
  const std::shared_ptr<const Metric> metric =
      tr.world_kind == trace::WorldKind::kGraph
          ? std::make_shared<GraphMetric>(tr.graph_adjacency)
          : make_euclidean();
  Scoreboard board(params, metric, initial, tr.n_steps,
                   spec.resolved_shards());
  ReferenceScoreboard reference(params, metric, initial, tr.n_steps);
  Rng rng(spec.seed);
  drive_boards(
      board, reference, rng,
      [&tr](AgentId m, Step step) {
        return tr.position_at(m, tr.start_step + step + 1).center();
      },
      /*floored_commits=*/board.shards() > 1, cadence);
}

TEST(ScoreboardDifferential, TraceReplayMatchesReferenceOnEveryRegistryScenario) {
  // Every trace-bearing registry scenario on a 20-step busy-hour window,
  // populations capped at 200 agents: full-state comparison after every
  // commit, invariants every 101 commits (the production board's
  // all-pairs check costs ~0.07 s on social_net's 20000-node graph) and
  // at the end.
  for (const auto& entry : scenario::registry_entries()) {
    std::string error;
    auto spec = scenario::find_scenario(entry.name, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    if (spec->map == scenario::MapKind::kArena) continue;  // no trace
    spec->window_begin = 4320;
    spec->window_end = 4340;
    if (spec->agents > 200) {
      spec->agents = 200;
      spec->segments = std::min(spec->segments, 8);
    }
    ASSERT_EQ(scenario::validate_spec(*spec), "") << entry.name;
    run_trace_differential(*spec, DriveCadence{1, 101});
    if (HasFatalFailure()) return;
  }
}

TEST(ScoreboardDifferential, TraceReplayMatchesReferenceAtThousandAgents) {
  // The 1000-agent grid and graph scenarios at their registry windows
  // (60 steps). Full-state comparison every 16 commits and at the end;
  // invariants at the end.
  for (const char* name : {"metro_ville1000", "social_net1000"}) {
    std::string error;
    const auto spec = scenario::find_scenario(name, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    run_trace_differential(*spec, DriveCadence{16, 0});
    if (HasFatalFailure()) return;
  }
}

TEST(ScoreboardConstruction, RejectsMetricsItCannotProbe) {
  // A metric that is neither Chebyshev-bounded nor a graph metric has no
  // probe the board could answer with; constructing a board over one is
  // a checked error rather than a silent full scan.
  class OpaqueMetric final : public Metric {
   public:
    double distance(const Pos& a, const Pos& b) const override {
      return std::abs(a.x - b.x);
    }
    std::string name() const override { return "opaque"; }
  };
  EXPECT_THROW(Scoreboard(DependencyParams{4.0, 1.0},
                          std::make_shared<OpaqueMetric>(),
                          {Pos{0.0, 0.0}, Pos{10.0, 0.0}}, 3),
               CheckError);
}

TEST(DifferentialHarness, ReproStringRoundTripsEveryShape) {
  // The shrink mode is only useful if the printed tuple parses back to
  // the exact case that failed.
  for (const DiffShape& shape : sweep_shapes()) {
    const DiffCase c{shape, 4242};
    const auto parsed = parse_repro(repro_string(c));
    ASSERT_TRUE(parsed.has_value()) << repro_string(c);
    EXPECT_EQ(repro_string(*parsed), repro_string(c));
  }
  EXPECT_FALSE(parse_repro("metric=graph bogus_key=1").has_value());
  EXPECT_FALSE(parse_repro("agents=twelve").has_value());
}

TEST(ScoreboardShards, PartitionClassifiesInteriorAndBorderCommits) {
  // Four strips of width 250 over x in [0, 1000] (the anchors at the
  // extremes pin the range). With target=5 and floor=0 the confinement
  // radius is blocking_radius(5) + coupling_radius = 10 + 5 = 15, so a
  // commit is interior iff its members' old and new boxes of half-extent
  // 15 stay inside one strip.
  const DependencyParams params{4.0, 1.0};
  const std::vector<Pos> initial = {
      {0.0, 0.0},    // strip 0 edge anchor
      {125.0, 0.0},  // strip 0 interior
      {245.0, 0.0},  // strip 0, within 15 of the 250 border
      {625.0, 0.0},  // strip 2 interior
      {1000.0, 0.0}  // strip 3 edge anchor
  };
  Scoreboard sb(params, make_euclidean(), initial, 5, /*shards=*/4);
  ASSERT_EQ(sb.shards(), 4);
  EXPECT_EQ(sb.shard_of_pos(Pos{125.0, 0.0}), 0);
  EXPECT_EQ(sb.shard_of_pos(Pos{251.0, 0.0}), 1);
  EXPECT_EQ(sb.shard_of_pos(Pos{625.0, 0.0}), 2);
  EXPECT_EQ(sb.shard_of_pos(Pos{-40.0, 0.0}), 0);    // clamped
  EXPECT_EQ(sb.shard_of_pos(Pos{2000.0, 0.0}), 3);   // clamped

  // Border registration: agent 2's blocking box straddles the 250 line,
  // so it sits in both strip 0's and strip 1's border sets; agents 1 and
  // 3 are interior and the edge anchors only touch their own strips.
  EXPECT_GE(sb.border_count(0), 1u);
  EXPECT_GE(sb.border_count(1), 1u);
  EXPECT_EQ(sb.border_count(2), 0u);

  // Interior commit: agent 3 deep inside strip 2, staying there.
  const std::vector<std::pair<AgentId, Pos>> interior = {
      {3, Pos{626.0, 0.0}}};
  EXPECT_EQ(sb.local_commit_shard(interior, /*probe_floor=*/0), 2);
  // Border commit: agent 2's box straddles strips 0 and 1.
  const std::vector<std::pair<AgentId, Pos>> border = {{2, Pos{246.0, 0.0}}};
  EXPECT_EQ(sb.local_commit_shard(border, /*probe_floor=*/0), -1);

  // Per-strip pops see only clusters homed there, and together they see
  // everything the global pop would.
  auto s0 = sb.pop_ready_clusters_in_shard(0);
  auto s2 = sb.pop_ready_clusters_in_shard(2);
  std::size_t popped = s0.size() + s2.size();
  for (std::int32_t s : {1, 3}) {
    popped += sb.pop_ready_clusters_in_shard(s).size();
  }
  EXPECT_EQ(popped, 5u);  // far-apart agents: one singleton cluster each
  for (const auto& c : s2) {
    for (AgentId m : c.members) {
      EXPECT_EQ(sb.shard_of_pos(sb.pos_of(m)), 2);
    }
  }
  sb.check_invariants();
}

TEST(ScoreboardShards, NonIndexableModesCollapseToOneStrip) {
  const DependencyParams params{4.0, 1.0};
  auto metric = std::make_shared<GraphMetric>(
      std::vector<std::vector<std::int32_t>>{{1}, {0, 2}, {1}});
  Scoreboard graph(params, metric,
                   {Pos{0.0, 0.0}, Pos{1.0, 0.0}, Pos{2.0, 0.0}}, 5,
                   /*shards=*/8);
  EXPECT_EQ(graph.shards(), 1);
  // Collapsed boards classify every commit as cross-shard (the engine
  // then always escalates, which is exactly the old global-lock path).
  EXPECT_EQ(graph.local_commit_shard({{1, Pos{2.0, 0.0}}}, 0), -1);
}

TEST(ScoreboardShards, ShardedRunToCompletionHoldsInvariants) {
  // A full randomized run on a sharded board, exercising borders forming
  // and dissolving as agents drift across strips, with per-strip stats
  // summing to the global rollup.
  Rng rng(77);
  std::vector<Pos> initial;
  for (int i = 0; i < 200; ++i) {
    initial.push_back(Pos{rng.uniform(0.0, 800.0), rng.uniform(0.0, 80.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 8,
                /*shards=*/8);
  ASSERT_EQ(sb.shards(), 8);
  std::vector<AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      pos.x += rng.uniform(-1.0, 1.0) * 0.7;
      pos.y += rng.uniform(-1.0, 1.0) * 0.7;
      moves.emplace_back(m, pos);
    }
    sb.commit(moves, /*probe_floor=*/sb.min_step());
    if (++commits % 101 == 0) sb.check_invariants();
  }
  sb.check_invariants();
  EXPECT_EQ(sb.min_step(), 8);
  std::uint64_t shard_commits = 0;
  for (std::int32_t s = 0; s < sb.shards(); ++s) {
    shard_commits += sb.shard_stats(s).commits;
  }
  EXPECT_EQ(shard_commits, sb.stats().commits);
  EXPECT_EQ(sb.stats().commits, commits);
}

TEST(ScoreboardIndex, GraphMetricRunsIndexedNotFallback) {
  // GraphMetric positions encode node ids, so the box index cannot serve
  // it — but the adjacency seam hands the scoreboard a GraphIndex, and
  // the board must genuinely use it (and still match the full-scan
  // reference; the sweep above covers the matching at scale).
  auto metric = std::make_shared<GraphMetric>(
      std::vector<std::vector<std::int32_t>>{{1}, {0, 2}, {1, 3}, {2, 4}, {3}});
  DependencyParams params{1.0, 0.0};
  std::vector<Pos> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(Pos{static_cast<double>(i), 0});
  Scoreboard indexed(params, metric, nodes, 6);
  ReferenceScoreboard reference(params, metric, nodes, 6);
  EXPECT_TRUE(indexed.use_graph_index());
  while (!indexed.all_done()) {
    const auto ready_i = indexed.pop_ready_clusters();
    const auto ready_r = reference.pop_ready_clusters();
    ASSERT_EQ(ready_i.size(), ready_r.size());
    for (std::size_t k = 0; k < ready_i.size(); ++k) {
      ASSERT_EQ(ready_i[k].members, ready_r[k].members);
    }
    for (const auto& c : ready_i) {
      std::vector<std::pair<AgentId, Pos>> moves;
      for (AgentId m : c.members) moves.emplace_back(m, indexed.pos_of(m));
      indexed.commit(moves);
      reference.commit(moves);
    }
    test_support::expect_scoreboards_equal(indexed, reference);
  }
  indexed.check_invariants();
  reference.check_invariants();
}

TEST(ScoreboardIndex, MinStepIsMaintainedIncrementally) {
  // min_step() is O(1) now; cross-check it against a full scan at every
  // commit of a lag-heavy schedule (one straggler pinned at step 0).
  Rng rng(21);
  std::vector<Pos> initial;
  for (int i = 0; i < 16; ++i) {
    initial.push_back(Pos{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 12);
  std::vector<AgentCluster> in_flight;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty());
    // Never commit a cluster containing agent 0 until nothing else can
    // move — maximal lag spread.
    std::size_t pick = in_flight.size();
    for (std::size_t k = 0; k < in_flight.size(); ++k) {
      const auto& members = in_flight[k].members;
      if (std::find(members.begin(), members.end(), 0) == members.end()) {
        pick = k;
        break;
      }
    }
    if (pick == in_flight.size()) pick = 0;  // only agent-0 work left
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) moves.emplace_back(m, sb.pos_of(m));
    sb.commit(moves);
    Step brute_min = sb.target_step();
    for (std::size_t i = 0; i < sb.agent_count(); ++i) {
      brute_min = std::min(brute_min, sb.step_of(static_cast<AgentId>(i)));
    }
    ASSERT_EQ(sb.min_step(), brute_min);
  }
  EXPECT_EQ(sb.min_step(), 12);
}

TEST(ScoreboardIndex, ThousandAgentRunHoldsInvariants) {
  // The scale the index exists for: 1000 agents, moderately dense, run to
  // completion with full O(n^2) invariant checks at checkpoints
  // (causality, edge symmetry, cluster bookkeeping, index consistency).
  Rng rng(31);
  std::vector<Pos> initial;
  for (int i = 0; i < 1000; ++i) {
    initial.push_back(
        Pos{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 150.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 5);
  std::vector<AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      const double angle = rng.uniform(0.0, 2.0 * M_PI);
      const double dist = rng.uniform(0.0, 1.0);
      pos.x += std::cos(angle) * dist;
      pos.y += std::sin(angle) * dist;
      moves.emplace_back(m, pos);
    }
    sb.commit(moves);
    if (++commits % 997 == 0) sb.check_invariants();
  }
  sb.check_invariants();
  EXPECT_EQ(sb.min_step(), 5);
  EXPECT_EQ(sb.stats().commits, commits);
  // The paper's sparsity regime: far fewer blockers than agents.
  EXPECT_LT(sb.mean_blockers(), 5.0);
}

}  // namespace
}  // namespace aimetro::core
