// Reference A*: the original hash-map implementation of world::find_path,
// kept as the oracle for the flat-array version. Same heuristic, same
// (f, deeper g first, insertion order) open-list order and the same
// neighbour order, so the two must return identical paths — not merely
// paths of equal length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "world/grid_map.h"

namespace aimetro::test_support {

inline std::vector<Tile> reference_find_path(const world::GridMap& map,
                                             Tile start, Tile goal) {
  struct Node {
    std::int32_t f;
    std::int32_t g;
    std::uint64_t seq;
    Tile tile;
  };
  struct NodeGreater {
    bool operator()(const Node& a, const Node& b) const {
      if (a.f != b.f) return a.f > b.f;
      if (a.g != b.g) return a.g < b.g;
      return a.seq > b.seq;
    }
  };
  const auto manhattan = [](Tile a, Tile b) {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
  };

  if (!map.walkable(start) || !map.walkable(goal)) return {};
  if (start == goal) return {start};

  std::priority_queue<Node, std::vector<Node>, NodeGreater> open;
  std::unordered_map<Tile, Tile, TileHash> came_from;
  std::unordered_map<Tile, std::int32_t, TileHash> best_g;
  std::uint64_t seq = 0;

  open.push(Node{manhattan(start, goal), 0, seq++, start});
  best_g[start] = 0;

  while (!open.empty()) {
    const Node cur = open.top();
    open.pop();
    if (cur.tile == goal) {
      std::vector<Tile> path{goal};
      Tile t = goal;
      while (!(t == start)) {
        t = came_from.at(t);
        path.push_back(t);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto bit = best_g.find(cur.tile);
    if (bit != best_g.end() && cur.g > bit->second) continue;  // stale entry
    // Spelled out rather than via GridMap, so a change to the map's
    // neighbour order shows up as a difference.
    const Tile candidates[4] = {{cur.tile.x + 1, cur.tile.y},
                                {cur.tile.x - 1, cur.tile.y},
                                {cur.tile.x, cur.tile.y + 1},
                                {cur.tile.x, cur.tile.y - 1}};
    for (Tile next : candidates) {
      if (!map.walkable(next)) continue;
      const std::int32_t g = cur.g + 1;
      auto it = best_g.find(next);
      if (it != best_g.end() && it->second <= g) continue;
      best_g[next] = g;
      came_from[next] = cur.tile;
      open.push(Node{g + manhattan(next, goal), g, seq++, next});
    }
  }
  return {};
}

}  // namespace aimetro::test_support
