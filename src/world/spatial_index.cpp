#include "world/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace aimetro::world {

namespace {

template <typename Bucket>
void erase_entry(Bucket& bucket, AgentId id) {
  const auto it =
      std::find_if(bucket.begin(), bucket.end(),
                   [id](const auto& entry) { return entry.id == id; });
  AIM_CHECK(it != bucket.end());
  // Bucket order is unobservable: every query sorts its result by id.
  *it = bucket.back();
  bucket.pop_back();
}

/// floor(v) clamped to [lo, hi], converted only after clamping so that
/// boxes far larger than the grid stay well defined.
std::int32_t clamped_cell(double v, std::int32_t lo, std::int32_t hi) {
  const double c = std::floor(v);
  if (c <= lo) return lo;
  if (c >= hi) return hi;
  return static_cast<std::int32_t>(c);
}

}  // namespace

void SpatialIndex::relayout(std::int64_t x0, std::int64_t y0,
                            std::int64_t cols, std::int64_t rows) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  AIM_CHECK_MSG(x0 >= kMin && y0 >= kMin && cols > 0 && rows > 0 &&
                    x0 + cols - 1 <= kMax && y0 + rows - 1 <= kMax,
                "spatial index grid out of the int32 cell range");
  std::vector<Bucket> grown(static_cast<std::size_t>(cols) *
                            static_cast<std::size_t>(rows));
  for (std::int32_t r = 0; r < rows_; ++r) {
    for (std::int32_t c = 0; c < cols_; ++c) {
      const std::int64_t nx = x0_ + c - x0;
      const std::int64_t ny = y0_ + r - y0;
      grown[static_cast<std::size_t>(nx + ny * cols)] = std::move(
          buckets_[static_cast<std::size_t>(c) +
                   static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(cols_)]);
    }
  }
  buckets_ = std::move(grown);
  x0_ = static_cast<std::int32_t>(x0);
  y0_ = static_cast<std::int32_t>(y0);
  cols_ = static_cast<std::int32_t>(cols);
  rows_ = static_cast<std::int32_t>(rows);
}

void SpatialIndex::cover(Cell c) {
  if (buckets_.empty()) {
    relayout(c.x, c.y, 1, 1);
    return;
  }
  std::int64_t lo_x = x0_;
  std::int64_t lo_y = y0_;
  std::int64_t hi_x = std::int64_t{x0_} + cols_ - 1;
  std::int64_t hi_y = std::int64_t{y0_} + rows_ - 1;
  if (c.x >= lo_x && c.x <= hi_x && c.y >= lo_y && c.y <= hi_y) return;
  if (c.x < lo_x) lo_x = std::int64_t{c.x} - cols_ / 2;
  if (c.x > hi_x) hi_x = std::int64_t{c.x} + cols_ / 2;
  if (c.y < lo_y) lo_y = std::int64_t{c.y} - rows_ / 2;
  if (c.y > hi_y) hi_y = std::int64_t{c.y} + rows_ / 2;
  relayout(lo_x, lo_y, hi_x - lo_x + 1, hi_y - lo_y + 1);
}

void SpatialIndex::insert(AgentId id, Pos pos) {
  AIM_CHECK_MSG(positions_.count(id) == 0, "agent " << id << " already indexed");
  const Cell c = cell_of(pos);
  cover(c);
  positions_.emplace(id, pos);
  bucket(c).push_back(Entry{id, pos});
}

void SpatialIndex::bulk_insert(const std::vector<std::pair<AgentId, Pos>>& items) {
  if (items.empty()) return;
  // Lay the grid out once over the union of the current grid and the
  // items' bounding rectangle; no margin, the extent is known.
  Cell lo = cell_of(items.front().second);
  Cell hi = lo;
  for (const auto& [id, pos] : items) {
    const Cell c = cell_of(pos);
    lo = Cell{std::min(lo.x, c.x), std::min(lo.y, c.y)};
    hi = Cell{std::max(hi.x, c.x), std::max(hi.y, c.y)};
  }
  if (!buckets_.empty()) {
    lo = Cell{std::min(lo.x, x0_), std::min(lo.y, y0_)};
    hi = Cell{std::max(hi.x, x0_ + cols_ - 1), std::max(hi.y, y0_ + rows_ - 1)};
  }
  relayout(lo.x, lo.y, std::int64_t{hi.x} - lo.x + 1,
           std::int64_t{hi.y} - lo.y + 1);
  positions_.reserve(positions_.size() + items.size());
  for (const auto& [id, pos] : items) insert(id, pos);
}

void SpatialIndex::remove(AgentId id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return;
  erase_entry(bucket(cell_of(it->second)), id);
  positions_.erase(it);
}

void SpatialIndex::update(AgentId id, Pos pos) {
  auto it = positions_.find(id);
  if (it == positions_.end()) {
    insert(id, pos);
    return;
  }
  const Cell old_cell = cell_of(it->second);
  const Cell new_cell = cell_of(pos);
  it->second = pos;
  if (old_cell == new_cell) {
    auto& b = bucket(old_cell);
    const auto eit = std::find_if(b.begin(), b.end(),
                                  [id](const Entry& e) { return e.id == id; });
    AIM_CHECK(eit != b.end());
    eit->pos = pos;
    return;
  }
  cover(new_cell);  // may re-lay the grid out: take bucket refs after
  erase_entry(bucket(old_cell), id);
  bucket(new_cell).push_back(Entry{id, pos});
}

Pos SpatialIndex::position(AgentId id) const {
  auto it = positions_.find(id);
  AIM_CHECK_MSG(it != positions_.end(), "agent " << id << " not indexed");
  return it->second;
}

template <typename Fn>
void SpatialIndex::for_each_in_box(Pos center, double half_extent,
                                   Fn&& fn) const {
  AIM_CHECK(half_extent >= 0.0);
  if (buckets_.empty()) return;
  // The same cell rounding as cell_of, so every entry inside the box lies
  // in a visited cell; clamping to the grid drops only cells that were
  // never occupied.
  const double lo_x = std::floor((center.x - half_extent) / cell_size_);
  const double hi_x = std::floor((center.x + half_extent) / cell_size_);
  const double lo_y = std::floor((center.y - half_extent) / cell_size_);
  const double hi_y = std::floor((center.y + half_extent) / cell_size_);
  const std::int32_t last_x = x0_ + cols_ - 1;
  const std::int32_t last_y = y0_ + rows_ - 1;
  if (hi_x < x0_ || lo_x > last_x || hi_y < y0_ || lo_y > last_y) return;
  const auto col_lo = static_cast<std::size_t>(clamped_cell(lo_x, x0_, last_x) - x0_);
  const auto col_hi = static_cast<std::size_t>(clamped_cell(hi_x, x0_, last_x) - x0_);
  const auto row_lo = static_cast<std::size_t>(clamped_cell(lo_y, y0_, last_y) - y0_);
  const auto row_hi = static_cast<std::size_t>(clamped_cell(hi_y, y0_, last_y) - y0_);
  const auto cols = static_cast<std::size_t>(cols_);
  for (std::size_t r = row_lo; r <= row_hi; ++r) {
    const Bucket* row = buckets_.data() + r * cols;
    for (std::size_t c = col_lo; c <= col_hi; ++c) {
      for (const Entry& e : row[c]) fn(e);
    }
  }
}

void SpatialIndex::query_box_into(Pos center, double half_extent,
                                  std::vector<AgentId>* out) const {
  out->clear();
  for_each_in_box(center, half_extent, [&](const Entry& e) {
    if (std::abs(e.pos.x - center.x) <= half_extent &&
        std::abs(e.pos.y - center.y) <= half_extent) {
      out->push_back(e.id);
    }
  });
  std::sort(out->begin(), out->end());
}

std::vector<AgentId> SpatialIndex::query_box(Pos center,
                                             double half_extent) const {
  std::vector<AgentId> out;
  query_box_into(center, half_extent, &out);
  return out;
}

std::vector<AgentId> SpatialIndex::query_radius(Pos center,
                                                double radius) const {
  std::vector<AgentId> out;
  for_each_in_box(center, radius, [&](const Entry& e) {
    if (std::abs(e.pos.x - center.x) <= radius &&
        std::abs(e.pos.y - center.y) <= radius &&
        euclidean(e.pos, center) <= radius) {
      out.push_back(e.id);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aimetro::world
