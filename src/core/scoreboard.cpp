#include "core/scoreboard.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace aimetro::core {

namespace {

/// Cell size for the live-agent index: coupling-radius cells keep the
/// common probes (coupling, small-lag blocking) within a 3x3 cell box
/// while staying coarse enough that buckets aren't degenerate.
double index_cell_size(const DependencyParams& params) {
  return std::max(1.0, params.coupling_radius());
}

}  // namespace

Scoreboard::Scoreboard(DependencyParams params,
                       std::shared_ptr<const Metric> metric,
                       std::vector<Pos> initial_positions, Step target_step,
                       std::int32_t shards)
    : params_(params), metric_(std::move(metric)), target_step_(target_step) {
  AIM_CHECK(metric_ != nullptr);
  AIM_CHECK(target_step_ >= 0);
  AIM_CHECK(!initial_positions.empty());
  AIM_CHECK_MSG(shards >= 1 && shards <= kMaxShards,
                "shards must be in [1, " << kMaxShards << "], got " << shards);
  if (!metric_->lower_bounded_by_chebyshev()) {
    // Graph metrics can't be probed with Chebyshev boxes, but they expose
    // their adjacency: live agents go into a GraphIndex instead, and every
    // probe site walks a hop-bounded ball (an exact metric ball — hop
    // distances are integral).
    const auto* adjacency = metric_->graph_adjacency();
    AIM_CHECK_MSG(adjacency != nullptr,
                  "metric " << metric_->name()
                            << " is neither Chebyshev-bounded nor a graph "
                               "metric; the scoreboard cannot probe it");
    graph_live_index_ = std::make_unique<world::GraphIndex>(adjacency);
  }
  // The region partition only pays off where probes are strip-local box
  // queries; graph-ball probes collapse to one strip (behavior is
  // identical either way).
  shards_ = use_index() ? shards : 1;
  double x_min = initial_positions.front().x;
  double x_max = x_min;
  for (const Pos& p : initial_positions) {
    x_min = std::min(x_min, p.x);
    x_max = std::max(x_max, p.x);
  }
  partition_ = world::RegionPartition(shards_, x_min, x_max);
  shards_data_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    shards_data_.push_back(std::make_unique<ShardData>(index_cell_size(params)));
  }

  agents_.resize(initial_positions.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i].pos = initial_positions[i];
    if (target_step_ == 0) {
      agents_[i].status = AgentStatus::kDone;
      done_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (target_step_ == 0) return;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    ++shard(partition_.shard_of(agents_[i].pos)).live_steps[0];
  }
  if (use_index()) {
    std::vector<std::vector<std::pair<AgentId, Pos>>> per_strip(
        static_cast<std::size_t>(shards_));
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      per_strip[static_cast<std::size_t>(partition_.shard_of(agents_[i].pos))]
          .emplace_back(static_cast<AgentId>(i), agents_[i].pos);
    }
    for (std::int32_t s = 0; s < shards_; ++s) {
      shard(s).live_index.bulk_insert(per_strip[static_cast<std::size_t>(s)]);
    }
  } else {
    std::vector<std::pair<AgentId, Pos>> items;
    items.reserve(agents_.size());
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      items.emplace_back(static_cast<AgentId>(i), agents_[i].pos);
    }
    graph_live_index_->bulk_insert(items);
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    update_border_registration(static_cast<AgentId>(i), 0);
  }
  // Initial edges and clustering: everyone idle at step 0, so there are no
  // blockers (no lower step, nobody running); only coupling applies. The
  // flood-fill expands each component through coupling-radius probes, so
  // clusters are the coupling components, assigned ids in
  // ascending-smallest-member order.
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i].cluster >= 0) continue;
    const std::int32_t strip = partition_.shard_of(agents_[i].pos);
    const std::int64_t cid = new_cluster(0, strip);
    ClusterRec& rec = shard(strip).clusters.at(cid);
    std::vector<AgentId> frontier{static_cast<AgentId>(i)};
    agents_[i].cluster = cid;
    while (!frontier.empty()) {
      const AgentId u = frontier.back();
      frontier.pop_back();
      rec.members.push_back(u);
      cluster_span_include(cid, partition_.shard_of(agent(u).pos));
      auto consider = [&](AgentId v) {
        AgentNode& node = agent(v);
        if (node.cluster >= 0) return;
        if (coupled(metric_->distance(agent(u).pos, node.pos), 0, 0,
                    params_)) {
          node.cluster = cid;
          frontier.push_back(v);
        }
      };
      for (AgentId v : probe_into(agent(u).pos, params_.coupling_radius())) {
        consider(v);
      }
    }
    std::sort(rec.members.begin(), rec.members.end());
    shard(strip).dirty_clusters.insert(cid);
  }
}

Scoreboard::AgentNode& Scoreboard::agent(AgentId id) {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < agents_.size());
  return agents_[static_cast<std::size_t>(id)];
}

const Scoreboard::AgentNode& Scoreboard::agent(AgentId id) const {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < agents_.size());
  return agents_[static_cast<std::size_t>(id)];
}

const std::vector<AgentId>& Scoreboard::probe_into(const Pos& center,
                                                   double radius) {
  if (!use_index()) {
    graph_live_index_->query_ball_into(center, radius, &shard(0).probe_buf);
    return shard(0).probe_buf;
  }
  const auto span = partition_.span_of_box(center, radius);
  if (span.single()) {
    ShardData& sd = shard(span.lo);
    sd.live_index.query_box_into(center, radius, &sd.probe_buf);
    return sd.probe_buf;
  }
  // Fan out over every overlapped strip and restore global id order. Each
  // strip returns an id-sorted, disjoint slice (an agent is indexed only
  // in its home strip), so the merged result equals what one global index
  // would return. Callers of multi-strip probes hold the board
  // exclusively, so the shared merge buffers are safe.
  multi_probe_buf_.clear();
  for (std::int32_t s = span.lo; s <= span.hi; ++s) {
    shard(s).live_index.query_box_into(center, radius, &strip_tmp_buf_);
    multi_probe_buf_.insert(multi_probe_buf_.end(), strip_tmp_buf_.begin(),
                            strip_tmp_buf_.end());
  }
  std::sort(multi_probe_buf_.begin(), multi_probe_buf_.end());
  return multi_probe_buf_;
}

Step Scoreboard::min_live_step() const {
  Step best = target_step_;
  for (std::int32_t s = 0; s < shards_; ++s) {
    const auto& ls = shard(s).live_steps;
    if (!ls.empty()) best = std::min(best, ls.begin()->first);
  }
  return best;
}

void Scoreboard::live_step_advance(std::int32_t from_strip,
                                   std::int32_t to_strip, Step from, Step to,
                                   bool now_done) {
  auto& from_ls = shard(from_strip).live_steps;
  auto it = from_ls.find(from);
  AIM_CHECK(it != from_ls.end() && it->second > 0);
  if (--it->second == 0) from_ls.erase(it);
  if (!now_done) ++shard(to_strip).live_steps[to];
}

void Scoreboard::update_border_registration(AgentId id, Step floor) {
  if (shards_ == 1) return;
  AgentNode& node = agent(id);
  if (node.border_lo != node.border_hi) {
    for (std::int32_t t = node.border_lo; t <= node.border_hi; ++t) {
      shard(t).border_agents.erase(id);
    }
  }
  const std::int32_t home = partition_.shard_of(node.pos);
  if (node.status == AgentStatus::kDone) {
    node.border_lo = node.border_hi = home;
    return;
  }
  const Step lead = node.step - floor;
  AIM_CHECK(lead >= 0);
  const auto span =
      partition_.span_of_box(node.pos, params_.blocking_radius(lead));
  node.border_lo = span.lo;
  node.border_hi = span.hi;
  if (!span.single()) {
    for (std::int32_t t = span.lo; t <= span.hi; ++t) {
      shard(t).border_agents.insert(id);
    }
  }
}

std::int64_t Scoreboard::new_cluster(Step step, std::int32_t strip) {
  ShardData& sd = shard(strip);
  const std::int64_t cid = (sd.next_cluster_local++ << 6) |
                           static_cast<std::int64_t>(strip);
  ClusterRec& rec = sd.clusters[cid];
  rec.step = step;
  rec.span_lo = rec.span_hi = strip;
  return cid;
}

void Scoreboard::span_counters_remove(const ClusterRec& rec) {
  if (rec.span_lo == rec.span_hi) return;
  for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
    shard(t).cross_clusters.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Scoreboard::span_counters_add(const ClusterRec& rec) {
  if (rec.span_lo == rec.span_hi) return;
  for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
    shard(t).cross_clusters.fetch_add(1, std::memory_order_relaxed);
  }
}

void Scoreboard::cluster_span_include(std::int64_t cid, std::int32_t strip) {
  if (shards_ == 1) return;
  ClusterRec& rec = shard(shard_of_cluster(cid)).clusters.at(cid);
  if (strip >= rec.span_lo && strip <= rec.span_hi) return;
  span_counters_remove(rec);
  rec.span_lo = std::min(rec.span_lo, strip);
  rec.span_hi = std::max(rec.span_hi, strip);
  span_counters_add(rec);
}

void Scoreboard::on_blocked_count_change(AgentId id, bool now_blocked) {
  AgentNode& node = agent(id);
  if (node.cluster < 0) return;
  ShardData& sd = shard(shard_of_cluster(node.cluster));
  auto it = sd.clusters.find(node.cluster);
  AIM_CHECK(it != sd.clusters.end());
  it->second.blocked_members += now_blocked ? 1 : -1;
  AIM_CHECK(it->second.blocked_members >= 0);
  sd.dirty_clusters.insert(node.cluster);
}

void Scoreboard::add_edge(AgentId blocker, AgentId blocked) {
  AgentNode& a = agent(blocked);
  const bool was_blocked = !a.blocked_by.empty();
  if (!a.blocked_by.insert(blocker).second) return;
  agent(blocker).blocks.insert(blocked);
  ++shard(partition_.shard_of(a.pos)).stats.edges_added;
  if (!was_blocked) on_blocked_count_change(blocked, true);
}

void Scoreboard::remove_edge(AgentId blocker, AgentId blocked) {
  AgentNode& a = agent(blocked);
  if (a.blocked_by.erase(blocker) == 0) return;
  agent(blocker).blocks.erase(blocked);
  ++shard(partition_.shard_of(a.pos)).stats.edges_removed;
  if (a.blocked_by.empty()) on_blocked_count_change(blocked, false);
}

void Scoreboard::recompute_blockers(AgentId id, Step floor) {
  AgentNode& node = agent(id);
  // Drop all existing incoming edges, then rebuild. The probe covers the
  // largest radius any live agent could block from: blocking_radius(own
  // step - min live step). Any blocker B at lag L satisfies dist <=
  // blocking_radius(L) <= blocking_radius(max lag), and every such metric
  // ball is inside the probe — a Chebyshev box for metrics with the
  // Chebyshev lower bound, a hop-bounded BFS ball for graph metrics — so
  // the probe is a superset of every agent that blocks `id`. Candidates
  // arrive sorted by id, the order a full scan would visit them (see
  // docs/ARCHITECTURE.md, "Dependency core"). Commits carrying a
  // probe_floor use that lower bound instead of the exact minimum; the
  // probe only widens, and the exact blocks() predicate filters the
  // extras.
  const std::vector<AgentId> previous(node.blocked_by.begin(),
                                      node.blocked_by.end());
  for (AgentId b : previous) remove_edge(b, id);

  if (node.status == AgentStatus::kDone) return;
  std::uint64_t found = 0;
  auto consider = [&](AgentId b) {
    if (b == id) return;
    const AgentNode& other = agent(b);
    if (other.status == AgentStatus::kDone) return;
    const double dist = metric_->distance(node.pos, other.pos);
    if (blocks(dist, node.step, other.step,
               other.status == AgentStatus::kRunning, params_)) {
      add_edge(b, id);
      ++found;
    }
  };
  const Step max_lag = node.step - floor;
  AIM_CHECK(max_lag >= 0);
  for (AgentId b : probe_into(node.pos, params_.blocking_radius(max_lag))) {
    consider(b);
  }
  ShardData& sd = shard(partition_.shard_of(node.pos));
  ++sd.blocker_samples;
  sd.blocker_total += found;
}

void Scoreboard::refresh_outgoing(AgentId id) {
  AgentNode& node = agent(id);
  const std::vector<AgentId> watchers(node.blocks.begin(), node.blocks.end());
  for (AgentId w : watchers) {
    const AgentNode& watcher = agent(w);
    const double dist = metric_->distance(watcher.pos, node.pos);
    if (!blocks(dist, watcher.step, node.step,
                node.status == AgentStatus::kRunning, params_)) {
      remove_edge(id, w);
    }
  }
}

void Scoreboard::cluster_in(AgentId id) {
  AgentNode& node = agent(id);
  AIM_CHECK(node.status == AgentStatus::kIdle && node.cluster < 0);
  const std::int32_t home = partition_.shard_of(node.pos);

  // Find idle same-step agents within the coupling radius; `id` may bridge
  // several existing clusters into one. The coupling-radius probe is
  // filtered to idle, clustered, same-step agents.
  std::set<std::int64_t> neighbors_clusters;
  for (AgentId other : probe_into(node.pos, params_.coupling_radius())) {
    if (other == id) continue;
    const AgentNode& o = agent(other);
    // Mid-commit, sibling members can already be idle but not yet
    // clustered (their own cluster_in hasn't run). Skip them — they will
    // see us when they cluster in.
    if (o.status != AgentStatus::kIdle || o.cluster < 0) continue;
    if (coupled(metric_->distance(node.pos, o.pos), node.step, o.step,
                params_)) {
      neighbors_clusters.insert(o.cluster);
    }
  }

  std::int64_t target;
  if (neighbors_clusters.empty()) {
    target = new_cluster(node.step, home);
  } else {
    // Merge everything into the first (smallest-id) cluster. The merge
    // survivor's identity is unobservable — cluster_of() reports members
    // — so the encoded ids changing the relative order across strips
    // cannot change observable behavior.
    target = *neighbors_clusters.begin();
    ClusterRec& target_rec =
        shard(shard_of_cluster(target)).clusters.at(target);
    for (auto cit = std::next(neighbors_clusters.begin());
         cit != neighbors_clusters.end(); ++cit) {
      ShardData& victim_sd = shard(shard_of_cluster(*cit));
      ClusterRec& victim = victim_sd.clusters.at(*cit);
      for (AgentId m : victim.members) {
        agent(m).cluster = target;
        target_rec.members.push_back(m);
      }
      target_rec.blocked_members += victim.blocked_members;
      if (shards_ > 1 &&
          (victim.span_lo < target_rec.span_lo ||
           victim.span_hi > target_rec.span_hi)) {
        span_counters_remove(target_rec);
        target_rec.span_lo = std::min(target_rec.span_lo, victim.span_lo);
        target_rec.span_hi = std::max(target_rec.span_hi, victim.span_hi);
        span_counters_add(target_rec);
      }
      span_counters_remove(victim);
      victim_sd.clusters.erase(*cit);
      victim_sd.dirty_clusters.erase(*cit);
    }
  }
  ShardData& home_sd = shard(shard_of_cluster(target));
  ClusterRec& rec = home_sd.clusters.at(target);
  node.cluster = target;
  // Members stay unsorted while the cluster grows: sorting here would cost
  // O(n log n) per insert, O(n^2 log n) to build an n-member cluster. The
  // readers that need id order (pop, cluster_of, to_dot) sort once.
  rec.members.push_back(id);
  if (!node.blocked_by.empty()) ++rec.blocked_members;
  cluster_span_include(target, home);
  home_sd.dirty_clusters.insert(target);
}

void Scoreboard::pop_shard_ready_into(std::int32_t strip,
                                      std::vector<AgentCluster>* ready) {
  ShardData& sd = shard(strip);
  for (auto it = sd.dirty_clusters.begin(); it != sd.dirty_clusters.end();) {
    const std::int64_t cid = *it;
    auto cit = sd.clusters.find(cid);
    if (cit == sd.clusters.end()) {
      it = sd.dirty_clusters.erase(it);
      continue;
    }
    ClusterRec& rec = cit->second;
    if (rec.blocked_members > 0) {
      // Stays idle; keep it clean until an edge change re-dirties it.
      it = sd.dirty_clusters.erase(it);
      continue;
    }
    // Dispatch: mark members running, drop from idle structures.
    AgentCluster out;
    out.step = rec.step;
    out.members = std::move(rec.members);
    std::sort(out.members.begin(), out.members.end());
    for (AgentId m : out.members) {
      AgentNode& node = agent(m);
      AIM_CHECK(node.status == AgentStatus::kIdle);
      node.status = AgentStatus::kRunning;
      node.cluster = -1;
      running_count_.fetch_add(1, std::memory_order_relaxed);
    }
    span_counters_remove(rec);
    sd.clusters.erase(cit);
    it = sd.dirty_clusters.erase(it);
    ++sd.stats.clusters_dispatched;
    sd.stats.sum_cluster_sizes += static_cast<double>(out.members.size());
    sd.stats.max_concurrent_running = std::max<std::uint64_t>(
        sd.stats.max_concurrent_running,
        running_count_.load(std::memory_order_relaxed));
    ready->push_back(std::move(out));
  }
}

std::vector<AgentCluster> Scoreboard::pop_ready_clusters() {
  std::vector<AgentCluster> ready;
  for (std::int32_t s = 0; s < shards_; ++s) pop_shard_ready_into(s, &ready);
  std::sort(ready.begin(), ready.end(),
            [](const AgentCluster& a, const AgentCluster& b) {
              if (a.step != b.step) return a.step < b.step;
              return a.members.front() < b.members.front();
            });
  return ready;
}

std::vector<AgentCluster> Scoreboard::pop_ready_clusters_in_shard(
    std::int32_t strip) {
  AIM_CHECK(strip >= 0 && strip < shards_);
  std::vector<AgentCluster> ready;
  pop_shard_ready_into(strip, &ready);
  std::sort(ready.begin(), ready.end(),
            [](const AgentCluster& a, const AgentCluster& b) {
              if (a.step != b.step) return a.step < b.step;
              return a.members.front() < b.members.front();
            });
  return ready;
}

std::int32_t Scoreboard::local_commit_shard(
    const std::vector<std::pair<AgentId, Pos>>& moves,
    Step probe_floor) const {
  if (shards_ == 1 || moves.empty()) return -1;
  AIM_CHECK(probe_floor >= 0);
  // The influence region of a commit: every structure it can touch lies
  // within blocking_radius(max possible lag) of a member's old or new
  // position (existing edges and probe boxes), plus a coupling radius
  // for the idle-cluster merge probe. If every such box sits inside one
  // strip, every agent/cluster the commit reads or writes is homed there.
  const double rb =
      params_.blocking_radius(target_step_ - probe_floor) +
      params_.coupling_radius();
  std::int32_t strip = -1;
  for (const auto& [id, pos] : moves) {
    const AgentNode& node = agent(id);
    const auto old_span = partition_.span_of_box(node.pos, rb);
    const auto new_span = partition_.span_of_box(pos, rb);
    if (!old_span.single() || !new_span.single() ||
        old_span.lo != new_span.lo) {
      return -1;
    }
    if (strip < 0) strip = old_span.lo;
    if (old_span.lo != strip) return -1;
    // A stale (wider) border registration means an earlier, smaller
    // floor put this member's box across a boundary; deregistering it
    // would touch the neighbor strip, so reconcile cross-shard.
    if (node.border_lo != node.border_hi || node.border_lo != strip) {
      return -1;
    }
  }
  // A cluster chain reaching across the boundary couples this strip to
  // its neighbor: any commit here may need to merge into (or unblock) a
  // record owned by another strip, so it reconciles cross-shard.
  if (shard(strip).cross_clusters.load(std::memory_order_relaxed) != 0) {
    return -1;
  }
  return strip;
}

void Scoreboard::commit(const std::vector<std::pair<AgentId, Pos>>& moves,
                        Step probe_floor) {
  AIM_CHECK(!moves.empty());
  // The floor bounds every blocking-radius probe in this commit. The
  // exact path samples the live minimum once, up front: it can only rise
  // during phase 1, so the sample stays a valid lower bound, and a lower
  // floor merely widens probe boxes (the exact predicates filter the
  // extras — observable state is floor-independent).
  const Step floor = probe_floor >= 0 ? probe_floor : min_live_step();
  ++shard(partition_.shard_of(agent(moves.front().first).pos)).stats.commits;
  // Phase 1: advance state (agent table, live-step counts, live index,
  // border registration).
  for (const auto& [id, pos] : moves) {
    AgentNode& node = agent(id);
    AIM_CHECK_MSG(node.status == AgentStatus::kRunning,
                  "commit of non-running agent " << id);
    AIM_CHECK_MSG(
        metric_->distance(node.pos, pos) <= params_.max_vel + 1e-9,
        "agent " << id << " moved faster than max_vel");
    AIM_CHECK(node.step >= floor);
    const std::int32_t old_strip = partition_.shard_of(node.pos);
    const std::int32_t new_strip = partition_.shard_of(pos);
    node.pos = pos;
    node.step += 1;
    AIM_CHECK(node.step <= target_step_);
    running_count_.fetch_sub(1, std::memory_order_relaxed);
    const bool now_done = node.step == target_step_;
    live_step_advance(old_strip, new_strip, node.step - 1, node.step,
                      now_done);
    if (now_done) {
      node.status = AgentStatus::kDone;
      done_count_.fetch_add(1, std::memory_order_release);
      if (use_index()) {
        shard(old_strip).live_index.remove(id);
      } else {
        graph_live_index_->remove(id);
      }
    } else {
      node.status = AgentStatus::kIdle;
      if (!use_index()) {
        graph_live_index_->update(id, pos);
      } else if (old_strip == new_strip) {
        shard(new_strip).live_index.update(id, pos);
      } else {
        shard(old_strip).live_index.remove(id);
        shard(new_strip).live_index.insert(id, pos);
      }
    }
    update_border_registration(id, floor);
  }
  // Phase 2: re-examine relationships. Outgoing edges of committed agents
  // can only shrink (they advanced / are no longer running); incoming edges
  // must be rebuilt because their step and position changed.
  for (const auto& [id, pos] : moves) {
    (void)pos;
    refresh_outgoing(id);
    recompute_blockers(id, floor);
  }
  // Phase 3: idle clustering for members still in flight toward target.
  for (const auto& [id, pos] : moves) {
    (void)pos;
    AgentNode& node = agent(id);
    if (node.status == AgentStatus::kIdle) cluster_in(id);
    if (node.status == AgentStatus::kDone) {
      // A done agent blocks nobody and is blocked by nobody.
      const std::vector<AgentId> watchers(node.blocks.begin(),
                                          node.blocks.end());
      for (AgentId w : watchers) remove_edge(id, w);
      AIM_CHECK(node.blocked_by.empty());
    }
  }
}

std::vector<AgentId> Scoreboard::blockers_of(AgentId id) const {
  const AgentNode& node = agent(id);
  return {node.blocked_by.begin(), node.blocked_by.end()};
}

std::vector<AgentId> Scoreboard::cluster_of(AgentId id) const {
  const AgentNode& node = agent(id);
  if (node.cluster < 0) return {};
  std::vector<AgentId> members =
      shard(shard_of_cluster(node.cluster)).clusters.at(node.cluster).members;
  std::sort(members.begin(), members.end());
  return members;
}

Step Scoreboard::min_step() const { return min_live_step(); }

std::size_t Scoreboard::border_count(std::int32_t s) const {
  AIM_CHECK(s >= 0 && s < shards_);
  return shard(s).border_agents.size();
}

std::int32_t Scoreboard::cross_cluster_count(std::int32_t s) const {
  AIM_CHECK(s >= 0 && s < shards_);
  return shard(s).cross_clusters.load(std::memory_order_relaxed);
}

ScoreboardStats Scoreboard::stats() const {
  ScoreboardStats out;
  for (std::int32_t s = 0; s < shards_; ++s) {
    const ScoreboardStats& ss = shard(s).stats;
    out.clusters_dispatched += ss.clusters_dispatched;
    out.commits += ss.commits;
    out.edges_added += ss.edges_added;
    out.edges_removed += ss.edges_removed;
    // Each per-strip maximum is a snapshot of the one global running
    // counter, so the board-wide peak is the max, not the sum.
    out.max_concurrent_running =
        std::max(out.max_concurrent_running, ss.max_concurrent_running);
    out.sum_cluster_sizes += ss.sum_cluster_sizes;
  }
  return out;
}

const ScoreboardStats& Scoreboard::shard_stats(std::int32_t s) const {
  AIM_CHECK(s >= 0 && s < shards_);
  return shard(s).stats;
}

double Scoreboard::mean_blockers() const {
  std::uint64_t samples = 0;
  std::uint64_t total = 0;
  for (std::int32_t s = 0; s < shards_; ++s) {
    samples += shard(s).blocker_samples;
    total += shard(s).blocker_total;
  }
  return samples ? static_cast<double>(total) / static_cast<double>(samples)
                 : 0.0;
}

void Scoreboard::check_invariants() const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    for (std::size_t j = i + 1; j < agents_.size(); ++j) {
      const AgentNode& a = agents_[i];
      const AgentNode& b = agents_[j];
      const double dist = metric_->distance(a.pos, b.pos);
      AIM_CHECK_MSG(
          state_valid(dist, a.step, b.step, params_),
          "temporal causality violated between agents "
              << i << "@" << a.step << " and " << j << "@" << b.step
              << " at distance " << dist);
    }
  }
  // Edge symmetry and cluster bookkeeping.
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const auto id = static_cast<AgentId>(i);
    const AgentNode& node = agents_[i];
    for (AgentId b : node.blocked_by) {
      AIM_CHECK(agent(b).blocks.count(id) == 1);
    }
    for (AgentId w : node.blocks) {
      AIM_CHECK(agent(w).blocked_by.count(id) == 1);
    }
    if (node.status == AgentStatus::kIdle) {
      AIM_CHECK(node.cluster >= 0);
      const auto& shard_clusters = shard(shard_of_cluster(node.cluster))
                                       .clusters;
      const ClusterRec& rec = shard_clusters.at(node.cluster);
      AIM_CHECK(std::find(rec.members.begin(), rec.members.end(), id) !=
                rec.members.end());
      AIM_CHECK(rec.step == node.step);
    }
  }
  std::vector<std::int32_t> expected_cross(
      static_cast<std::size_t>(shards_), 0);
  for (std::int32_t s = 0; s < shards_; ++s) {
    for (const auto& [cid, rec] : shard(s).clusters) {
      AIM_CHECK(shard_of_cluster(cid) == s);
      std::int32_t blocked = 0;
      std::int32_t span_lo = std::numeric_limits<std::int32_t>::max();
      std::int32_t span_hi = std::numeric_limits<std::int32_t>::min();
      for (AgentId m : rec.members) {
        AIM_CHECK(agent(m).status == AgentStatus::kIdle);
        if (!agent(m).blocked_by.empty()) ++blocked;
        const std::int32_t strip = partition_.shard_of(agent(m).pos);
        span_lo = std::min(span_lo, strip);
        span_hi = std::max(span_hi, strip);
      }
      AIM_CHECK_MSG(blocked == rec.blocked_members,
                    "cluster blocked-count drift: " << blocked << " vs "
                                                    << rec.blocked_members);
      if (shards_ > 1) {
        AIM_CHECK_MSG(span_lo == rec.span_lo && span_hi == rec.span_hi,
                      "cluster strip-span drift for cluster " << cid);
        AIM_CHECK_MSG(rec.span_lo <= s && s <= rec.span_hi,
                      "cluster " << cid << " homed outside its span");
        if (rec.span_lo != rec.span_hi) {
          for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
            ++expected_cross[static_cast<std::size_t>(t)];
          }
        }
      }
    }
  }
  // Live-step counts, the per-strip spatial indexes, the border sets and
  // the cross-strip cluster counters must mirror the agent table.
  std::vector<std::map<Step, std::int32_t>> expected_live(
      static_cast<std::size_t>(shards_));
  std::size_t live = 0;
  const Step floor = min_live_step();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const AgentNode& node = agents_[i];
    const auto id = static_cast<AgentId>(i);
    const std::int32_t home = partition_.shard_of(node.pos);
    if (node.status == AgentStatus::kDone) continue;
    ++live;
    ++expected_live[static_cast<std::size_t>(home)][node.step];
    if (use_index()) {
      const auto& index = shard(home).live_index;
      AIM_CHECK_MSG(index.contains(id),
                    "live agent " << id << " missing from its strip index");
      AIM_CHECK_MSG(index.position(id) == node.pos,
                    "index position drift for agent " << id);
    } else {
      AIM_CHECK_MSG(graph_live_index_->contains(id),
                    "live agent " << id << " missing from the graph index");
      AIM_CHECK_MSG(graph_live_index_->position(id) == node.pos,
                    "graph-index position drift for agent " << id);
    }
    if (shards_ > 1) {
      // The registration was taken against some historical floor <= the
      // current one, so it must still contain the current box.
      const auto span = partition_.span_of_box(
          node.pos, params_.blocking_radius(node.step - floor));
      AIM_CHECK_MSG(node.border_lo <= span.lo && span.hi <= node.border_hi,
                    "border registration of agent "
                        << id << " no longer covers its blocking box");
      for (std::int32_t t = 0; t < shards_; ++t) {
        const bool registered = shard(t).border_agents.count(id) > 0;
        const bool expected = node.border_lo != node.border_hi &&
                              t >= node.border_lo && t <= node.border_hi;
        AIM_CHECK_MSG(registered == expected,
                      "border-set drift for agent " << id << " in strip "
                                                    << t);
      }
    }
  }
  std::size_t indexed_total = 0;
  for (std::int32_t s = 0; s < shards_; ++s) {
    AIM_CHECK_MSG(expected_live[static_cast<std::size_t>(s)] ==
                      shard(s).live_steps,
                  "live-step count drift in strip " << s);
    if (use_index()) indexed_total += shard(s).live_index.size();
    if (shards_ > 1) {
      AIM_CHECK_MSG(
          expected_cross[static_cast<std::size_t>(s)] ==
              shard(s).cross_clusters.load(std::memory_order_relaxed),
          "cross-strip cluster counter drift in strip " << s);
    }
  }
  if (use_index()) {
    AIM_CHECK(indexed_total == live);
  } else {
    AIM_CHECK(graph_live_index_->size() == live);
  }
}

std::string Scoreboard::to_dot() const {
  std::ostringstream os;
  os << "digraph scoreboard {\n  rankdir=LR;\n";
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const AgentNode& a = agents_[i];
    const char* color = a.status == AgentStatus::kRunning ? "green"
                        : a.blocked_by.empty()            ? "white"
                                                          : "orange";
    os << "  a" << i << " [label=\"" << static_cast<char>('A' + (i % 26))
       << "@" << a.step << "\", style=filled, fillcolor=" << color << "];\n";
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    for (AgentId w : agents_[i].blocks) {
      os << "  a" << i << " -> a" << w << ";\n";
    }
  }
  // Coupled relationships (same cluster) rendered as double arrows.
  for (std::int32_t s = 0; s < shards_; ++s) {
    for (const auto& [cid, rec] : shard(s).clusters) {
      (void)cid;
      std::vector<AgentId> members = rec.members;
      std::sort(members.begin(), members.end());
      for (std::size_t k = 0; k + 1 < members.size(); ++k) {
        os << "  a" << members[k] << " -> a" << members[k + 1]
           << " [dir=both, color=blue];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace aimetro::core
