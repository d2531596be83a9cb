// A* pathfinding on the grid map (4-connected, Manhattan heuristic).
// Used by the trace generator to produce realistic agent movement and by
// the live gym environment for navigation actions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "world/grid_map.h"

namespace aimetro::world {

/// Reusable A* working memory for one map size: best-cost and parent
/// arrays indexed by x + y*width, valid only where their stamp equals the
/// current query's epoch, so a query never clears them. The trace
/// generator owns one per generate() call (sized to the segment map,
/// never to a whole concatenated metropolis); not thread-safe.
class PathScratch {
 public:
  PathScratch(std::int32_t width, std::int32_t height);
  explicit PathScratch(const GridMap& map)
      : PathScratch(map.width(), map.height()) {}

 private:
  friend std::vector<Tile> find_path(const GridMap& map, Tile start,
                                     Tile goal, PathScratch& scratch);

  struct Node {
    std::int32_t f;     // g + h
    std::int32_t g;     // cost so far
    std::uint64_t seq;  // insertion order for deterministic ties
    std::int32_t tile;  // x + y*width
  };

  /// Starts a query: bumps the epoch, wiping the stamps only when the
  /// 16-bit counter wraps.
  void next_epoch();

  std::int32_t width_;
  std::int32_t height_;
  std::uint16_t epoch_ = 0;
  std::vector<std::uint16_t> stamp_;
  std::vector<std::int32_t> g_;
  std::vector<std::int32_t> came_from_;
  std::vector<Node> open_;  // binary heap storage, reused across queries
};

/// Shortest walkable path from `start` to `goal`, inclusive of both
/// endpoints. Returns an empty vector when no path exists. If
/// start == goal, returns {start}. Deterministic tie-breaking: the open
/// list orders by (f, deeper g first, insertion order) and neighbours
/// expand +x, -x, +y, -y. `scratch` must match the map's size.
std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal,
                            PathScratch& scratch);

/// As above with a one-off scratch (allocates per call).
std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal);

/// Nearest walkable tile to `t` (BFS ring search); returns `t` itself when
/// already walkable. Check-fails if the map has no walkable tile within
/// `max_ring` rings.
Tile nearest_walkable(const GridMap& map, Tile t, std::int32_t max_ring = 64);

}  // namespace aimetro::world
