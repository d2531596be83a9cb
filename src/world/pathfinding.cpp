#include "world/pathfinding.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace aimetro::world {

namespace {

std::int32_t manhattan_tiles(Tile a, Tile b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

}  // namespace

PathScratch::PathScratch(std::int32_t width, std::int32_t height)
    : width_(width), height_(height) {
  AIM_CHECK(width > 0 && height > 0);
  const auto n =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  stamp_.assign(n, 0);
  g_.resize(n);
  came_from_.resize(n);
}

void PathScratch::next_epoch() {
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), std::uint16_t{0});
    epoch_ = 1;
  }
}

std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal,
                            PathScratch& scratch) {
  AIM_CHECK_MSG(
      scratch.width_ == map.width() && scratch.height_ == map.height(),
      "path scratch sized " << scratch.width_ << "x" << scratch.height_
                            << " for a " << map.width() << "x"
                            << map.height() << " map");
  if (!map.walkable(start) || !map.walkable(goal)) return {};
  if (start == goal) return {start};

  using Node = PathScratch::Node;
  // Min-heap on (f, deeper g first, seq) via the std heap algorithms —
  // exactly std::priority_queue's order; seq makes the order total.
  const auto greater = [](const Node& a, const Node& b) {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g < b.g;
    return a.seq > b.seq;
  };
  const std::int32_t width = scratch.width_;
  auto index = [width](Tile t) { return t.x + t.y * width; };

  scratch.next_epoch();
  const std::uint16_t epoch = scratch.epoch_;
  std::uint16_t* stamp = scratch.stamp_.data();
  std::int32_t* best_g = scratch.g_.data();
  std::int32_t* came_from = scratch.came_from_.data();
  std::vector<Node>& open = scratch.open_;
  open.clear();
  std::uint64_t seq = 0;

  const std::int32_t start_idx = index(start);
  const std::int32_t goal_idx = index(goal);
  open.push_back(Node{manhattan_tiles(start, goal), 0, seq++, start_idx});
  stamp[start_idx] = epoch;
  best_g[start_idx] = 0;

  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), greater);
    const Node cur = open.back();
    open.pop_back();
    if (cur.tile == goal_idx) {
      std::vector<Tile> path;
      path.reserve(static_cast<std::size_t>(cur.g) + 1);
      for (std::int32_t i = goal_idx;; i = came_from[i]) {
        path.push_back(Tile{i % width, i / width});
        if (i == start_idx) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    if (cur.g > best_g[cur.tile]) continue;  // stale entry
    const std::int32_t g = cur.g + 1;
    const Tile here{cur.tile % width, cur.tile / width};
    map.for_each_neighbor(here, [&](Tile next) {
      const std::int32_t i = index(next);
      if (stamp[i] == epoch && best_g[i] <= g) return;
      stamp[i] = epoch;
      best_g[i] = g;
      came_from[i] = cur.tile;
      open.push_back(Node{g + manhattan_tiles(next, goal), g, seq++, i});
      std::push_heap(open.begin(), open.end(), greater);
    });
  }
  return {};
}

std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal) {
  PathScratch scratch(map);
  return find_path(map, start, goal, scratch);
}

Tile nearest_walkable(const GridMap& map, Tile t, std::int32_t max_ring) {
  if (map.walkable(t)) return t;
  for (std::int32_t r = 1; r <= max_ring; ++r) {
    // Scan the ring in deterministic order.
    for (std::int32_t dy = -r; dy <= r; ++dy) {
      for (std::int32_t dx = -r; dx <= r; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
        const Tile cand{t.x + dx, t.y + dy};
        if (map.walkable(cand)) return cand;
      }
    }
  }
  AIM_CHECK_MSG(false, "no walkable tile near (" << t.x << "," << t.y << ")");
  return t;  // unreachable
}

}  // namespace aimetro::world
