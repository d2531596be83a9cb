#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/metric.h"
#include "world/graph_index.h"
#include "world/grid_map.h"
#include "world/pathfinding.h"
#include "world/region_partition.h"
#include "world/social_graph.h"
#include "world/spatial_index.h"
#include "world/world_state.h"
#include "support/reference_pathfinding.h"

namespace aimetro::world {
namespace {

TEST(GridMap, BoundsAndWalkability) {
  GridMap map(10, 5);
  EXPECT_TRUE(map.walkable(Tile{0, 0}));
  EXPECT_TRUE(map.walkable(Tile{9, 4}));
  EXPECT_FALSE(map.walkable(Tile{10, 0}));
  EXPECT_FALSE(map.walkable(Tile{0, -1}));
  map.set_walkable(Tile{3, 3}, false);
  EXPECT_FALSE(map.walkable(Tile{3, 3}));
  map.block_rect(Rect{0, 0, 2, 2});
  EXPECT_FALSE(map.walkable(Tile{1, 1}));
}

TEST(GridMap, NeighborsRespectWalls) {
  GridMap map(5, 5);
  map.set_walkable(Tile{2, 1}, false);
  const auto n = map.neighbors(Tile{2, 2});
  EXPECT_EQ(n.size(), 3u);  // up blocked
  const auto corner = map.neighbors(Tile{0, 0});
  EXPECT_EQ(corner.size(), 2u);
}

TEST(GridMap, ArenasAndObjects) {
  GridMap map(20, 20);
  map.add_arena("cafe", Rect{2, 2, 6, 6});
  map.add_object("machine", Tile{4, 4});
  ASSERT_NE(map.arena("cafe"), nullptr);
  EXPECT_EQ(map.arena("nope"), nullptr);
  EXPECT_EQ(map.arena_at(Tile{3, 3})->name, "cafe");
  EXPECT_EQ(map.arena_at(Tile{10, 10}), nullptr);
  EXPECT_EQ(map.object("machine")->tile, (Tile{4, 4}));
  EXPECT_THROW(map.add_arena("cafe", Rect{}), CheckError);
}

TEST(GridMap, SmallvilleLayout) {
  const GridMap map = GridMap::smallville(25);
  EXPECT_EQ(map.width(), 140);
  EXPECT_EQ(map.height(), 100);
  EXPECT_NE(map.arena("home_0"), nullptr);
  EXPECT_NE(map.arena("home_24"), nullptr);
  EXPECT_NE(map.arena("cafe"), nullptr);
  EXPECT_NE(map.arena("park"), nullptr);
  EXPECT_NE(map.object("bed_0"), nullptr);
  EXPECT_NE(map.object("espresso_machine"), nullptr);
}

TEST(GridMap, SmallvilleHomesReachCafe) {
  const GridMap map = GridMap::smallville(25);
  for (int h : {0, 1, 12, 24}) {
    const Tile bed = map.object("bed_" + std::to_string(h))->tile;
    const Tile start = nearest_walkable(map, bed);
    const Tile goal = nearest_walkable(map, map.arena("cafe")->rect.center());
    EXPECT_FALSE(find_path(map, start, goal).empty()) << "home_" << h;
  }
}

TEST(GridMap, ConcatenationOffsetsAndDividers) {
  const GridMap seg = GridMap::smallville(4);
  const GridMap big = GridMap::concatenate(seg, 3);
  EXPECT_EQ(big.width(), (seg.width() + 1) * 3);
  EXPECT_EQ(big.segment_stride(), seg.width() + 1);
  ASSERT_NE(big.arena("seg0/cafe"), nullptr);
  ASSERT_NE(big.arena("seg2/cafe"), nullptr);
  EXPECT_EQ(big.arena("seg1/cafe")->rect.x0,
            big.arena("seg0/cafe")->rect.x0 + seg.width() + 1);
  // Dividers prevent cross-segment paths.
  const Tile in_seg0 = nearest_walkable(big, big.arena("seg0/cafe")->rect.center());
  const Tile in_seg1 = nearest_walkable(big, big.arena("seg1/cafe")->rect.center());
  EXPECT_TRUE(find_path(big, in_seg0, in_seg1).empty());
}

TEST(SpatialIndex, InsertQueryRemove) {
  SpatialIndex idx(4.0);
  idx.insert(0, Pos{1, 1});
  idx.insert(1, Pos{2, 2});
  idx.insert(2, Pos{50, 50});
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0),
            (std::vector<AgentId>{0, 1}));
  EXPECT_EQ(idx.query_radius(Pos{50, 50}, 0.5), (std::vector<AgentId>{2}));
  idx.remove(1);
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0), (std::vector<AgentId>{0}));
  idx.remove(1);  // no-op
  EXPECT_EQ(idx.size(), 2u);
}

TEST(SpatialIndex, UpdateMovesAcrossCells) {
  SpatialIndex idx(4.0);
  idx.insert(7, Pos{0, 0});
  idx.update(7, Pos{100, 100});
  EXPECT_TRUE(idx.query_radius(Pos{0, 0}, 10.0).empty());
  EXPECT_EQ(idx.query_radius(Pos{100, 100}, 1.0), (std::vector<AgentId>{7}));
  EXPECT_EQ(idx.position(7), (Pos{100, 100}));
  idx.update(42, Pos{5, 5});  // insert-or-move inserts
  EXPECT_TRUE(idx.contains(42));
}

TEST(SpatialIndex, BoxQueryIsChebyshevBall) {
  SpatialIndex idx(3.0);
  idx.insert(0, Pos{0, 0});
  idx.insert(1, Pos{4, 4});    // chebyshev 4, euclidean 5.66
  idx.insert(2, Pos{5, 0});    // chebyshev 5
  EXPECT_EQ(idx.query_box(Pos{0, 0}, 4.0), (std::vector<AgentId>{0, 1}));
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0), (std::vector<AgentId>{0, 2}));
}

TEST(SpatialIndex, BulkInsertMatchesIncrementalInserts) {
  SpatialIndex bulk(4.0);
  SpatialIndex one_by_one(4.0);
  std::vector<std::pair<AgentId, Pos>> items;
  for (AgentId i = 0; i < 64; ++i) {
    const Pos p{static_cast<double>((i * 17) % 40),
                static_cast<double>((i * 29) % 40)};
    items.emplace_back(i, p);
    one_by_one.insert(i, p);
  }
  bulk.bulk_insert(items);
  EXPECT_EQ(bulk.size(), one_by_one.size());
  for (double r : {0.0, 3.0, 10.0, 50.0}) {
    EXPECT_EQ(bulk.query_box(Pos{20, 20}, r),
              one_by_one.query_box(Pos{20, 20}, r));
  }
}

TEST(SpatialIndex, QueryIntoBufferReusesCapacityAndSorts) {
  SpatialIndex idx(4.0);
  for (AgentId i = 0; i < 32; ++i) {
    idx.insert(i, Pos{static_cast<double>(i % 8), static_cast<double>(i / 8)});
  }
  std::vector<AgentId> buf;
  idx.query_box_into(Pos{3.5, 1.5}, 10.0, &buf);
  EXPECT_EQ(buf.size(), 32u);
  EXPECT_TRUE(std::is_sorted(buf.begin(), buf.end()));
  const std::size_t cap = buf.capacity();
  idx.query_box_into(Pos{0, 0}, 0.5, &buf);
  EXPECT_EQ(buf, (std::vector<AgentId>{0}));
  EXPECT_EQ(buf.capacity(), cap);  // cleared, not reallocated
  // Same-cell position updates must be visible to the box filter.
  idx.update(0, Pos{1.0, 1.0});
  idx.query_box_into(Pos{0, 0}, 0.5, &buf);
  EXPECT_TRUE(buf.empty());
}

// The dense grid against a brute-force filter over a plain vector:
// seeded insert/update/remove/query sequences over a population whose
// window drifts +x, -y, -x, +y in turn (so the grid grows past all four
// edges, through negative coordinates), with half-cell-rounded positions
// and half-extents (ties on cell and box edges), boxes larger than the
// grid, boxes entirely outside it, and queries on an empty index.
TEST(SpatialIndex, MatchesBruteForceUnderRandomEdits) {
  struct Ref {
    AgentId id;
    Pos pos;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const double cell_sizes[] = {1.0, 2.5, 4.0, 7.0, 5.0, 0.75};
    SpatialIndex idx(cell_sizes[seed - 1]);
    std::vector<Ref> ref;
    AgentId next_id = 0;
    auto half = [](double v) { return std::round(v * 2.0) / 2.0; };
    auto brute_box = [&](Pos c, double h) {
      std::vector<AgentId> out;
      for (const Ref& r : ref) {
        if (std::abs(r.pos.x - c.x) <= h && std::abs(r.pos.y - c.y) <= h) {
          out.push_back(r.id);
        }
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    auto brute_radius = [&](Pos c, double radius) {
      std::vector<AgentId> out;
      for (const Ref& r : ref) {
        if (euclidean(r.pos, c) <= radius) out.push_back(r.id);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    std::vector<AgentId> buf;
    Pos window{0.0, 0.0};
    std::size_t queries = 0;
    // Odd seeds grow the grid one insert at a time while the window
    // drifts. Even seeds bulk_insert a population spanning the corners
    // of [-30, 30]^2 and never leave it: the grid is laid out exactly, so
    // its first and last rows and columns hold agents throughout.
    const bool drift = seed % 2 == 1;
    if (!drift) {
      std::vector<std::pair<AgentId, Pos>> items;
      for (int i = 0; i < 60; ++i) {
        const Pos p = i < 4 ? Pos{i % 2 ? 30.0 : -30.0, i / 2 ? 30.0 : -30.0}
                            : Pos{half(rng.uniform(-30.0, 30.0)),
                                  half(rng.uniform(-30.0, 30.0))};
        items.emplace_back(next_id, p);
        ref.push_back(Ref{next_id++, p});
      }
      idx.bulk_insert(items);
    }
    const std::size_t bulk_cells = idx.grid_cells();
    for (int op = 0; op < 4000; ++op) {
      // Drift 0.15 units per op, turning every 1000 ops.
      const int phase = drift ? op / 1000 : -1;
      window.x += phase == 0 ? 0.15 : phase == 2 ? -0.15 : 0.0;
      window.y += phase == 1 ? -0.15 : phase == 3 ? 0.15 : 0.0;
      auto keep = [&](double v) {
        return drift ? v : std::clamp(v, -30.0, 30.0);
      };
      auto draw = [&] {
        return Pos{half(window.x + rng.uniform(-30.0, 30.0)),
                   half(window.y + rng.uniform(-30.0, 30.0))};
      };
      const double kind = rng.uniform();
      if (kind < 0.2 || ref.empty()) {
        const Pos p = draw();
        idx.insert(next_id, p);
        ref.push_back(Ref{next_id++, p});
      } else if (kind < 0.55) {
        Ref& r = ref[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1))];
        // Mostly short moves (often within the cell), sometimes jumps.
        r.pos = rng.bernoulli(0.7)
                    ? Pos{keep(half(r.pos.x + rng.uniform(-1.5, 1.5))),
                          keep(half(r.pos.y + rng.uniform(-1.5, 1.5)))}
                    : draw();
        idx.update(r.id, r.pos);
      } else if (kind < 0.7) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
        idx.remove(ref[k].id);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(k));
        if (ref.empty()) {
          // Emptied: the grid stays laid out but holds nothing.
          EXPECT_TRUE(idx.query_box(window, 1e4).empty());
        }
      } else {
        Pos c = draw();
        double h = half(rng.uniform(0.0, 12.0));
        const double shape = rng.uniform();
        if (shape < 0.1) {
          h = 1e6;  // far larger than the grid
        } else if (shape < 0.2) {
          c = Pos{window.x + (rng.bernoulli(0.5) ? 1e5 : -1e5),
                  window.y + rng.uniform(-1e5, 1e5)};  // entirely outside
        } else if (shape < 0.5 && !ref.empty()) {
          // Centered near an agent, so edge cells get probed too.
          const Pos at = ref[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(ref.size()) -
                                        1))]
                             .pos;
          c = Pos{at.x + half(rng.uniform(-2.0, 2.0)),
                  at.y + half(rng.uniform(-2.0, 2.0))};
        }
        idx.query_box_into(c, h, &buf);
        ASSERT_EQ(buf, brute_box(c, h))
            << "seed " << seed << " op " << op << " box at (" << c.x << ", "
            << c.y << ") half-extent " << h;
        ASSERT_EQ(idx.query_box(c, h), buf);
        ASSERT_EQ(idx.query_radius(c, h), brute_radius(c, h))
            << "seed " << seed << " op " << op;
        ASSERT_TRUE(std::is_sorted(buf.begin(), buf.end()));
        ++queries;
      }
      ASSERT_EQ(idx.size(), ref.size());
    }
    EXPECT_GT(queries, 900u);
    if (!drift) {
      EXPECT_EQ(idx.grid_cells(), bulk_cells) << "seed " << seed;
    }
    for (const Ref& r : ref) {
      ASSERT_TRUE(idx.contains(r.id));
      ASSERT_EQ(idx.position(r.id), r.pos);
    }
  }
}

TEST(SpatialIndex, EmptyIndexAnswersEveryQueryEmpty) {
  SpatialIndex idx(5.0);
  std::vector<AgentId> buf{1, 2, 3};
  idx.query_box_into(Pos{0, 0}, 1e9, &buf);
  EXPECT_TRUE(buf.empty());
  EXPECT_TRUE(idx.query_radius(Pos{-3, 7}, 100.0).empty());
  EXPECT_EQ(idx.grid_cells(), 0u);
  idx.remove(4);  // no-op
  idx.bulk_insert({});
  EXPECT_EQ(idx.size(), 0u);
}

TEST(SpatialIndex, GrowsPastEveryEdgeAndForgetsTheOldCell) {
  SpatialIndex idx(5.0);
  for (AgentId i = 0; i < 10; ++i) {
    idx.insert(i, Pos{i * 3.0, (i % 3) * 2.0});
  }
  const std::size_t start_cells = idx.grid_cells();
  const Pos far[] = {{-400.5, 1.0}, {600.0, -3.0}, {7.0, -350.0},
                     {-4.0, 500.0}, {-800.0, -800.0}};
  for (const Pos& p : far) {
    const Pos old = idx.position(0);
    idx.update(0, p);
    EXPECT_EQ(idx.query_box(p, 0.5), (std::vector<AgentId>{0}));
    EXPECT_EQ(idx.query_radius(p, 0.0), (std::vector<AgentId>{0}));
    const auto at_old = idx.query_box(old, 0.5);
    EXPECT_TRUE(std::find(at_old.begin(), at_old.end(), 0) == at_old.end())
        << "agent 0 still found at (" << old.x << ", " << old.y << ")";
  }
  EXPECT_GT(idx.grid_cells(), start_cells);
  for (AgentId i = 1; i < 10; ++i) {
    EXPECT_EQ(idx.query_box(Pos{i * 3.0, (i % 3) * 2.0}, 0.0),
              (std::vector<AgentId>{i}));
  }
  // A one-cell-at-a-time walk grows the grid geometrically: the margin
  // keeps it within 1.5x of the bounding rectangle along the walk.
  SpatialIndex walk(1.0);
  walk.insert(0, Pos{0, 0});
  walk.insert(1, Pos{0, 9});
  for (int x = 1; x <= 1000; ++x) walk.update(0, Pos{double(x), 0});
  EXPECT_LE(walk.grid_cells(), 1501u * 10u);
  EXPECT_EQ(walk.query_box(Pos{1000, 0}, 0.0), (std::vector<AgentId>{0}));
  EXPECT_EQ(walk.query_box(Pos{0, 9}, 0.0), (std::vector<AgentId>{1}));
}

TEST(SocialGraph, NewmanWattsIsConnectedSortedAndDeterministic) {
  const auto adj = newman_watts_graph(/*nodes=*/50, /*degree=*/4,
                                      /*shortcut_prob=*/0.3, /*seed=*/9);
  ASSERT_EQ(adj.size(), 50u);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    EXPECT_TRUE(std::is_sorted(adj[i].begin(), adj[i].end())) << "node " << i;
    EXPECT_TRUE(std::adjacent_find(adj[i].begin(), adj[i].end()) ==
                adj[i].end())
        << "duplicate neighbor at node " << i;
    for (std::int32_t j : adj[i]) {
      ASSERT_GE(j, 0);
      ASSERT_LT(j, 50);
      EXPECT_NE(j, static_cast<std::int32_t>(i)) << "self-loop at " << i;
      // Undirected: every edge appears from both ends.
      EXPECT_TRUE(std::binary_search(adj[static_cast<std::size_t>(j)].begin(),
                                     adj[static_cast<std::size_t>(j)].end(),
                                     static_cast<std::int32_t>(i)));
    }
    // The ring lattice is kept intact (shortcuts only add edges), so
    // every node keeps at least its degree-4 ring neighborhood.
    EXPECT_GE(adj[i].size(), 4u) << "node " << i;
  }
  // Connected: BFS from node 0 reaches everything (the ring guarantees
  // it; this pins the guarantee).
  std::vector<bool> seen(adj.size(), false);
  std::vector<std::int32_t> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    for (std::int32_t w : adj[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  EXPECT_EQ(reached, adj.size());
  // Deterministic in the seed; shortcut_prob > 0 actually adds shortcuts.
  EXPECT_EQ(newman_watts_graph(50, 4, 0.3, 9), adj);
  EXPECT_NE(newman_watts_graph(50, 4, 0.3, 10), adj);
  std::size_t edge_ends = 0;
  for (const auto& nbrs : adj) edge_ends += nbrs.size();
  EXPECT_GT(edge_ends, 50u * 4u);  // ring + at least one shortcut
  // Degenerate knobs are rejected loudly.
  EXPECT_THROW(newman_watts_graph(2, 2, 0.1, 1), CheckError);
  EXPECT_THROW(newman_watts_graph(10, 3, 0.1, 1), CheckError);   // odd degree
  EXPECT_THROW(newman_watts_graph(10, 10, 0.1, 1), CheckError);  // >= nodes
}

TEST(GraphIndex, InsertRemoveUpdateAndBallProbes) {
  // 0-1-2-3-4 chain: hop balls are exactly id ranges.
  const std::vector<std::vector<std::int32_t>> adj{
      {1}, {0, 2}, {1, 3}, {2, 4}, {3}};
  GraphIndex idx(&adj);
  EXPECT_EQ(idx.node_count(), 5);
  for (AgentId i = 0; i < 5; ++i) {
    idx.insert(i, Pos{static_cast<double>(i), 0});
  }
  EXPECT_EQ(idx.size(), 5u);
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.0), (std::vector<AgentId>{1, 2, 3}));
  // floor(1.9) = 1 hop: fractional radii round down (hop distances are
  // integral, so this IS the metric ball of radius 1.9).
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.9), (std::vector<AgentId>{1, 2, 3}));
  EXPECT_EQ(idx.query_ball(Pos{0, 0}, 0.0), (std::vector<AgentId>{0}));
  EXPECT_EQ(idx.query_ball(Pos{0, 0}, 10.0),
            (std::vector<AgentId>{0, 1, 2, 3, 4}));
  idx.remove(2);
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.0), (std::vector<AgentId>{1, 3}));
  idx.remove(2);  // no-op
  EXPECT_EQ(idx.size(), 4u);
  idx.update(0, Pos{4, 0});  // move across the chain
  EXPECT_EQ(idx.query_ball(Pos{4, 0}, 1.0), (std::vector<AgentId>{0, 3, 4}));
  idx.update(2, Pos{2, 0});  // insert-or-move inserts
  EXPECT_TRUE(idx.contains(2));
  EXPECT_EQ(idx.position(2), (Pos{2, 0}));
  // Crowds: many agents on one node all come back, sorted by id.
  idx.update(4, Pos{2, 0});
  idx.update(1, Pos{2, 0});
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 0.0), (std::vector<AgentId>{1, 2, 4}));
}

TEST(GraphIndex, RandomizedBallMatchesBruteMetricScan) {
  // The exactness claim behind the scoreboard's graph probes: the
  // depth-floor(r) BFS ball equals the set of agents whose GraphMetric
  // distance is <= r, for random small-world graphs, placements, centers,
  // and (fractional) radii.
  Rng rng(77);
  for (int round = 0; round < 8; ++round) {
    const int nodes = 20 + 15 * round;
    const auto adj = newman_watts_graph(nodes, 4, 0.15, 900 + round);
    const core::GraphMetric metric(adj);
    GraphIndex idx(&adj);
    std::vector<Pos> pos;
    const int n_agents = 10 + 7 * round;
    for (AgentId i = 0; i < n_agents; ++i) {
      pos.push_back(Pos{static_cast<double>(rng.uniform_int(0, nodes - 1)), 0});
      idx.insert(i, pos.back());
    }
    for (double radius : {0.0, 1.0, 1.5, 2.0, 2.9, 3.0, 6.0}) {
      const Pos center{static_cast<double>(rng.uniform_int(0, nodes - 1)), 0};
      std::vector<AgentId> brute;
      for (AgentId i = 0; i < n_agents; ++i) {
        if (metric.distance(center, pos[static_cast<std::size_t>(i)]) <=
            radius) {
          brute.push_back(i);
        }
      }
      EXPECT_EQ(idx.query_ball(center, radius), brute)
          << "round " << round << " radius " << radius;
    }
  }
}

TEST(Pathfinding, ShortestOnOpenGrid) {
  GridMap map(20, 20);
  const auto path = find_path(map, Tile{1, 1}, Tile{6, 4});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (Tile{1, 1}));
  EXPECT_EQ(path.back(), (Tile{6, 4}));
  EXPECT_EQ(path.size(), 9u);  // manhattan distance 8 + start
  // Each hop is a 4-neighbor move.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(std::abs(path[i].x - path[i - 1].x) +
                  std::abs(path[i].y - path[i - 1].y),
              1);
  }
}

TEST(Pathfinding, RoutesAroundWalls) {
  GridMap map(10, 10);
  map.block_rect(Rect{5, 0, 5, 8});  // wall with gap at y=9
  const auto path = find_path(map, Tile{2, 2}, Tile{8, 2});
  ASSERT_FALSE(path.empty());
  EXPECT_GT(path.size(), 7u);  // must detour
  bool passes_gap = false;
  for (const Tile& t : path) {
    if (t.x == 5) {
      EXPECT_EQ(t.y, 9);
      passes_gap = true;
    }
  }
  EXPECT_TRUE(passes_gap);
}

TEST(Pathfinding, UnreachableReturnsEmpty) {
  GridMap map(10, 10);
  map.block_rect(Rect{4, 0, 4, 9});
  EXPECT_TRUE(find_path(map, Tile{0, 0}, Tile{9, 9}).empty());
  EXPECT_EQ(find_path(map, Tile{2, 2}, Tile{2, 2}).size(), 1u);
}

// ---- Flat-array A* vs the hash-map reference ----
//
// The flat version must return the reference's exact path (same tiles in
// the same order), not just one of equal length: trace bytes depend on it.

/// A random tile in or just outside `map` (out-of-bounds tiles exercise
/// the not-walkable early exit).
Tile random_query_tile(const GridMap& map, Rng& rng) {
  return Tile{static_cast<std::int32_t>(rng.uniform_int(-1, map.width())),
              static_cast<std::int32_t>(rng.uniform_int(-1, map.height()))};
}

TEST(Pathfinding, FlatMatchesReferenceOnRandomObstacleMaps) {
  Rng rng(20261);
  int found = 0, unreachable = 0, same_tile = 0;
  for (int m = 0; m < 60; ++m) {
    GridMap map(static_cast<std::int32_t>(rng.uniform_int(1, 40)),
                static_cast<std::int32_t>(rng.uniform_int(1, 40)));
    const double density = rng.uniform(0.0, 0.45);
    for (std::int32_t y = 0; y < map.height(); ++y) {
      for (std::int32_t x = 0; x < map.width(); ++x) {
        if (rng.bernoulli(density)) map.set_walkable(Tile{x, y}, false);
      }
    }
    PathScratch scratch(map);
    for (int q = 0; q < 80; ++q) {
      const Tile a = random_query_tile(map, rng);
      // Every eighth query asks for the start tile itself.
      const Tile b = q % 8 == 0 ? a : random_query_tile(map, rng);
      const auto expected = test_support::reference_find_path(map, a, b);
      ASSERT_EQ(find_path(map, a, b, scratch), expected)
          << "map " << m << " query " << q << " (" << a.x << "," << a.y
          << ") -> (" << b.x << "," << b.y << ")";
      if (a == b && map.walkable(a)) {
        ++same_tile;
      } else if (expected.empty()) {
        ++unreachable;
      } else {
        ++found;
      }
    }
  }
  // The sweep really covers all three outcomes.
  EXPECT_GT(found, 500);
  EXPECT_GT(unreachable, 500);
  EXPECT_GT(same_tile, 100);
}

TEST(Pathfinding, FlatMatchesReferenceAcrossConcatenatedSegments) {
  const GridMap big = GridMap::concatenate(GridMap::smallville(6), 3);
  PathScratch scratch(big);
  Rng rng(7);
  int crossing = 0;
  for (int q = 0; q < 120; ++q) {
    const Tile a = nearest_walkable(big, random_query_tile(big, rng));
    const Tile b = nearest_walkable(big, random_query_tile(big, rng));
    const auto path = find_path(big, a, b, scratch);
    ASSERT_EQ(path, test_support::reference_find_path(big, a, b))
        << "(" << a.x << "," << a.y << ") -> (" << b.x << "," << b.y << ")";
    // The divider columns separate the segments.
    if (a.x / big.segment_stride() != b.x / big.segment_stride()) {
      EXPECT_TRUE(path.empty());
      ++crossing;
    }
  }
  EXPECT_GT(crossing, 40);
}

TEST(Pathfinding, ReusedScratchSurvivesEpochWrap) {
  // Two halves split by a full wall. The scratch's epoch is 16 bits, so
  // search number 65,536 wraps it back to the first search's epoch.
  GridMap map(25, 12);
  map.block_rect(Rect{12, 0, 12, 11});
  map.block_rect(Rect{5, 0, 5, 8});
  map.block_rect(Rect{1, 4, 3, 4});
  PathScratch scratch(map);
  // Search 1 floods the whole west half from (0, 0) towards an east
  // goal it cannot reach, stamping every west tile.
  ASSERT_TRUE(find_path(map, Tile{0, 0}, Tile{20, 5}, scratch).empty());
  // Searches 2..65535 stay in the east half.
  Rng rng(3);
  auto random_in = [&](std::int32_t x0, std::int32_t x1) {
    return nearest_walkable(
        map, Tile{static_cast<std::int32_t>(rng.uniform_int(x0, x1)),
                  static_cast<std::int32_t>(rng.uniform_int(0, 11))});
  };
  for (int search = 2; search <= 65535;) {
    // Walkable, distinct endpoints: a real search, which advances the
    // epoch (the early exits do not).
    const Tile a = random_in(13, 24);
    const Tile b = random_in(13, 24);
    if (a == b) continue;
    ASSERT_FALSE(find_path(map, a, b, scratch).empty()) << "search " << search;
    ++search;
  }
  // After the wrap the west tiles still carry search 1's stamp and its
  // costs from (0, 0); none of that may leak into the new searches.
  std::vector<std::pair<Tile, Tile>> west{{Tile{1, 0}, Tile{0, 1}}};
  while (west.size() < 64) {
    const Tile a = random_in(0, 11);
    const Tile b = random_in(0, 11);
    if (!(a == b)) west.emplace_back(a, b);
  }
  for (const auto& [a, b] : west) {
    ASSERT_EQ(find_path(map, a, b, scratch),
              test_support::reference_find_path(map, a, b))
        << "(" << a.x << "," << a.y << ") -> (" << b.x << "," << b.y << ")";
  }
}

TEST(Pathfinding, ScratchMustMatchTheMap) {
  const GridMap map(10, 10);
  PathScratch scratch(9, 10);
  EXPECT_THROW(find_path(map, Tile{0, 0}, Tile{3, 3}, scratch), CheckError);
}

TEST(Pathfinding, NearestWalkable) {
  GridMap map(10, 10);
  map.block_rect(Rect{3, 3, 5, 5});
  EXPECT_EQ(nearest_walkable(map, Tile{7, 7}), (Tile{7, 7}));
  const Tile near = nearest_walkable(map, Tile{4, 4});
  EXPECT_TRUE(map.walkable(near));
  EXPECT_LE(chebyshev(near.center(), Pos{4, 4}), 2.0);
}

class WorldStateTest : public ::testing::Test {
 protected:
  WorldStateTest() : map_(GridMap(20, 20)) {
    map_.add_object("fountain", Tile{10, 10});
  }
  GridMap map_;
};

TEST_F(WorldStateTest, MoveCommitAndPerception) {
  WorldState w(&map_, {Tile{1, 1}, Tile{3, 1}, Tile{15, 15}});
  EXPECT_EQ(w.tile_of(0), (Tile{1, 1}));
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.agents_within(Pos{2, 1}, 2.0), (std::vector<AgentId>{0, 1}));
}

TEST_F(WorldStateTest, MoveConflictLowestIdWins) {
  WorldState w(&map_, {Tile{1, 1}, Tile{3, 1}});
  std::vector<StepIntent> intents(2);
  intents[0].agent = 1;  // shuffled order: resolution must sort by id
  intents[0].move_to = Tile{2, 1};
  intents[1].agent = 0;
  intents[1].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  // outcomes are in id order after sorting
  EXPECT_EQ(outcomes[0].agent, 0);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(outcomes[1].agent, 1);
  EXPECT_FALSE(outcomes[1].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.tile_of(1), (Tile{3, 1}));
}

TEST_F(WorldStateTest, CannotMoveOntoStationaryAgent) {
  WorldState w(&map_, {Tile{1, 1}, Tile{2, 1}});
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
}

TEST_F(WorldStateTest, SwapAllowedWhenBothVacate) {
  WorldState w(&map_, {Tile{1, 1}, Tile{2, 1}});
  std::vector<StepIntent> intents(2);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  intents[1].agent = 1;
  intents[1].move_to = Tile{1, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_TRUE(outcomes[1].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.tile_of(1), (Tile{1, 1}));
}

TEST_F(WorldStateTest, SpeedLimitEnforced) {
  WorldState w(&map_, {Tile{1, 1}});
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{5, 5};  // too far for one step
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 1}));
}

TEST_F(WorldStateTest, ObjectClaimsAdjacencyAndContention) {
  WorldState w(&map_, {Tile{10, 11}, Tile{11, 10}, Tile{1, 1}});
  std::vector<StepIntent> intents(3);
  for (int i = 0; i < 3; ++i) {
    intents[static_cast<std::size_t>(i)].agent = i;
    intents[static_cast<std::size_t>(i)].claim_object = "fountain";
  }
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].claim_ok);    // adjacent, lowest id
  EXPECT_FALSE(outcomes[1].claim_ok);   // adjacent but lost
  EXPECT_FALSE(outcomes[2].claim_ok);   // too far away
  ASSERT_NE(w.object_holder("fountain"), nullptr);
  EXPECT_EQ(*w.object_holder("fountain"), "agent_0");
  // Held object rejects later claimers.
  std::vector<StepIntent> again(1);
  again[0].agent = 1;
  again[0].claim_object = "fountain";
  EXPECT_FALSE(w.resolve_conflict_and_commit(1, again)[0].claim_ok);
}

TEST_F(WorldStateTest, EventsFilteredAndSorted) {
  WorldState w(&map_, {Tile{5, 5}, Tile{6, 5}, Tile{15, 15}});
  std::vector<StepIntent> intents(3);
  for (int i = 0; i < 3; ++i) {
    intents[static_cast<std::size_t>(i)].agent = i;
    intents[static_cast<std::size_t>(i)].emit_event =
        "ev" + std::to_string(i);
  }
  w.resolve_conflict_and_commit(3, intents);
  const auto near = w.events_near(Pos{5, 5}, 4.0, 3, 3);
  ASSERT_EQ(near.size(), 2u);
  EXPECT_EQ(near[0].source, 0);
  EXPECT_EQ(near[1].source, 1);
  EXPECT_TRUE(w.events_near(Pos{5, 5}, 4.0, 4, 9).empty());
  EXPECT_EQ(w.event_count(), 3u);
}

TEST_F(WorldStateTest, AgentsWithinMatchesLinearScan) {
  // The shared-index perception query must equal the obvious O(n) scan
  // for randomized placements, centers, and radii (including radii far
  // beyond the index cell size and zero-radius self-hits).
  Rng rng(123);
  GridMap map(40, 40);
  std::vector<Tile> tiles;
  for (int i = 0; i < 60; ++i) {
    tiles.push_back(Tile{static_cast<std::int32_t>(rng.uniform_int(0, 39)),
                         static_cast<std::int32_t>(rng.uniform_int(0, 39))});
  }
  WorldState w(&map, tiles);
  for (int probe = 0; probe < 40; ++probe) {
    const Pos center{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    const double radius = rng.uniform(0.0, probe % 4 == 0 ? 60.0 : 8.0);
    std::vector<AgentId> brute;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      if (euclidean(tiles[i].center(), center) <= radius) {
        brute.push_back(static_cast<AgentId>(i));
      }
    }
    EXPECT_EQ(w.agents_within(center, radius), brute)
        << "probe " << probe << " radius " << radius;
  }
}

TEST(WorldStateGraph, NodesAreVenuesMovesFollowEdges) {
  // Graph mode: legality is edge membership, and nodes hold crowds — the
  // exclusive-occupancy rules of grid mode must NOT apply.
  const std::vector<std::vector<std::int32_t>> adj{
      {1}, {0, 2}, {1, 3}, {2}};
  GridMap substrate(4, 1);
  WorldState w(&substrate, {Tile{0, 0}, Tile{1, 0}, Tile{1, 0}}, &adj);
  EXPECT_TRUE(w.graph_world());
  EXPECT_EQ(w.tile_of(1), w.tile_of(2));  // two agents share node 1

  // Edge move onto an occupied node succeeds (venues, not tiles).
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{1, 0};
  auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 0}));  // three agents on node 1 now

  // Non-edge hops are denied: node 1's neighbors are {0, 2}, not 3.
  intents[0].move_to = Tile{3, 0};
  outcomes = w.resolve_conflict_and_commit(1, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 0}));

  // Staying put is always legal; out-of-bounds nodes are denied.
  intents[0].move_to = Tile{1, 0};
  EXPECT_TRUE(w.resolve_conflict_and_commit(2, intents)[0].move_ok);
  intents[0].move_to = Tile{7, 0};
  EXPECT_FALSE(w.resolve_conflict_and_commit(3, intents)[0].move_ok);

  // Two agents converging on the same node both win — no conflict.
  std::vector<StepIntent> both(2);
  both[0].agent = 1;
  both[0].move_to = Tile{2, 0};
  both[1].agent = 2;
  both[1].move_to = Tile{2, 0};
  const auto pair = w.resolve_conflict_and_commit(4, both);
  EXPECT_TRUE(pair[0].move_ok);
  EXPECT_TRUE(pair[1].move_ok);
  EXPECT_EQ(w.tile_of(1), (Tile{2, 0}));
  EXPECT_EQ(w.tile_of(2), (Tile{2, 0}));
}

TEST_F(WorldStateTest, StateHashDetectsDifferences) {
  WorldState a(&map_, {Tile{1, 1}, Tile{2, 2}});
  WorldState b(&map_, {Tile{1, 1}, Tile{2, 2}});
  EXPECT_EQ(a.state_hash(), b.state_hash());
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{1, 2};
  a.resolve_conflict_and_commit(0, intents);
  EXPECT_NE(a.state_hash(), b.state_hash());
  b.resolve_conflict_and_commit(0, intents);
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

// ---- Region partition (equal-width strips) ----

TEST(RegionPartition, EqualWidthStripsAreHalfOpenAndClamped) {
  // Four 25-wide strips over [0, 100]: a position on a boundary belongs
  // to the right strip, and positions outside the range (or NaN) clamp
  // to the edge strips. A box maps to the strip span its x-extent hits.
  const RegionPartition part(4, 0.0, 100.0);
  ASSERT_EQ(part.shards(), 4);
  const std::vector<std::pair<double, std::int32_t>> cases = {
      {-10.0, 0}, {0.0, 0},   {24.999, 0}, {25.0, 1}, {49.0, 1},
      {50.0, 2},  {74.9, 2},  {75.0, 3},   {100.0, 3}, {250.0, 3},
      {std::nan(""), 0}};
  for (const auto& [x, strip] : cases) {
    EXPECT_EQ(part.shard_of(Pos{x, 0.0}), strip) << "x=" << x;
  }
  const auto inside = part.span_of_box(Pos{30.0, 0.0}, 3.0);
  EXPECT_TRUE(inside.single());
  EXPECT_EQ(inside.lo, 1);
  const auto wide = part.span_of_box(Pos{30.0, 0.0}, 30.0);
  EXPECT_EQ(wide.lo, 0);
  EXPECT_EQ(wide.hi, 2);
  // A degenerate x-range puts everything in strip 0.
  const RegionPartition flat(4, 5.0, 5.0);
  for (double x : {-1.0, 5.0, 9.0}) EXPECT_EQ(flat.shard_of(Pos{x, 0.0}), 0);
}

}  // namespace
}  // namespace aimetro::world
