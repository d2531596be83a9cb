// Uniform-grid spatial index over agent positions.
//
// The dependency graph re-examines an agent's relationships against "any
// other relevant agents" (§3.3) after each step; the index turns that from
// O(n) into a local cell-box probe. query_box returns everything within a
// Chebyshev box, which is a superset of the Euclidean, Manhattan and
// Chebyshev balls of the same radius — callers apply their exact metric on
// the candidates, keeping the index metric-agnostic.
//
// Hot-path design: the cells are a dense, row-major array of buckets over
// the bounding rectangle of every cell ever occupied, indexed
// (cx - x0) + (cy - y0) * cols — the flat `x + y*xs` layout of
// world::find_path's scratch arrays. A box probe clamps to that rectangle
// and walks rows by array index, so the wide, mostly-empty boxes that a
// large lag spread produces cost one bucket-header read per cell instead
// of one hash lookup. Buckets store (id, pos) entries so a probe never
// touches the id->pos map, and query_box_into appends into a caller-owned
// buffer so steady-state queries allocate nothing. Memory: one bucket
// header (24 bytes) per cell of the grid, plus each bucket's entries; a
// bucket keeps its capacity when it empties, so steady-state moves
// allocate nothing either.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace aimetro::world {

class SpatialIndex {
 public:
  explicit SpatialIndex(double cell_size) : cell_size_(cell_size) {
    AIM_CHECK(cell_size > 0.0);
  }

  void insert(AgentId id, Pos pos);
  /// Insert every (id, pos) pair at once (ids must be distinct and not
  /// yet indexed). Sizes the grid to the items' bounding rectangle and
  /// reserves the id map up front, so building an index over an initial
  /// population does one allocation pass instead of grow-as-you-go.
  void bulk_insert(const std::vector<std::pair<AgentId, Pos>>& items);
  /// No-op if absent.
  void remove(AgentId id);
  /// Insert-or-move.
  void update(AgentId id, Pos pos);
  bool contains(AgentId id) const { return positions_.count(id) > 0; }
  Pos position(AgentId id) const;
  std::size_t size() const { return positions_.size(); }
  /// Cells the dense grid spans (bucket headers held): the bounding
  /// rectangle of every cell ever occupied, plus the growth margin.
  std::size_t grid_cells() const { return buckets_.size(); }

  /// All agents with |dx| <= half_extent and |dy| <= half_extent from
  /// `center` (cell-rounded superset; exact box filter applied).
  /// Deterministic order (sorted by id).
  std::vector<AgentId> query_box(Pos center, double half_extent) const;

  /// query_box into a caller-owned buffer: `out` is cleared, filled with
  /// the sorted matches, and keeps its capacity across calls — the
  /// allocation-free form for per-commit hot paths.
  void query_box_into(Pos center, double half_extent,
                      std::vector<AgentId>* out) const;

  /// Agents within Euclidean distance `radius` of `center`, sorted by id.
  std::vector<AgentId> query_radius(Pos center, double radius) const;

 private:
  using Cell = Tile;  // reuse the integer pair

  struct Entry {
    AgentId id;
    Pos pos;
  };
  using Bucket = std::vector<Entry>;

  Cell cell_of(Pos p) const {
    return Cell{static_cast<std::int32_t>(std::floor(p.x / cell_size_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_size_))};
  }
  /// Bucket of a cell inside the grid.
  Bucket& bucket(Cell c) {
    return buckets_[static_cast<std::size_t>(c.x - x0_) +
                    static_cast<std::size_t>(c.y - y0_) *
                        static_cast<std::size_t>(cols_)];
  }
  /// Grow the grid, if needed, so it covers `c`. Each grown side gains a
  /// margin of half the grid's extent along that axis, so a steady drift
  /// re-lays the grid out only geometrically often.
  void cover(Cell c);
  /// Re-lay the grid out over cells [x0, x0 + cols) x [y0, y0 + rows),
  /// which must contain the current grid; buckets move, entries stay.
  void relayout(std::int64_t x0, std::int64_t y0, std::int64_t cols,
                std::int64_t rows);
  /// Calls `fn(entry)` for every entry in a cell the box
  /// [center - half_extent, center + half_extent]^2 overlaps.
  template <typename Fn>
  void for_each_in_box(Pos center, double half_extent, Fn&& fn) const;

  double cell_size_;
  std::unordered_map<AgentId, Pos> positions_;
  // Grid origin (in cells) and shape; row-major buckets, empty until the
  // first insert.
  std::int32_t x0_ = 0;
  std::int32_t y0_ = 0;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  std::vector<Bucket> buckets_;
};

}  // namespace aimetro::world
