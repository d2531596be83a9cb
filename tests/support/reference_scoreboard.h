// The dependency scoreboard (§3.3–3.4) the simplest way it can be
// written: no neighbor index, no strips, no incremental bookkeeping.
// Every probe scans every agent and applies the exact rules from
// core/dependency_rules.h, so the board is slow (O(n) per blocker
// recompute and per cluster join) but short enough to check by reading.
//
// It exists to be compared against: tests/support/differential.h drives
// a production core::Scoreboard and this board through one schedule and
// asserts that every observable bit agrees. Commits run the production
// phases (advance every member; per member, refresh its outgoing edges,
// then recompute its blockers; cluster in each idle member in move
// order; each done member drops its out-edges), so the edge and
// blocker-sample statistics are defined by the rules and that order
// alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "core/dependency_rules.h"
#include "core/metric.h"
#include "core/scoreboard.h"

namespace aimetro::test_support {

class ReferenceScoreboard {
 public:
  ReferenceScoreboard(core::DependencyParams params,
                      std::shared_ptr<const core::Metric> metric,
                      std::vector<Pos> initial_positions, Step target_step)
      : params_(params), metric_(std::move(metric)), target_(target_step) {
    AIM_CHECK(metric_ != nullptr);
    AIM_CHECK(target_ >= 0);
    nodes_.resize(initial_positions.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].pos = initial_positions[i];
      if (target_ == 0) nodes_[i].status = core::AgentStatus::kDone;
    }
    if (target_ == 0) return;
    // Everyone starts idle at step 0 with no blockers; joining them one
    // by one leaves exactly the coupling components as clusters.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      cluster_in(static_cast<AgentId>(i));
    }
  }

  // ---- The two scheduling operations ----

  /// Every idle cluster with no blocked member, members marked running,
  /// ordered by (step, first member).
  std::vector<core::AgentCluster> pop_ready_clusters() {
    std::vector<core::AgentCluster> ready;
    for (auto it = clusters_.begin(); it != clusters_.end();) {
      const std::vector<AgentId>& members = it->second;
      const bool blocked =
          std::any_of(members.begin(), members.end(), [&](AgentId m) {
            return !node(m).blocked_by.empty();
          });
      if (blocked) {
        ++it;
        continue;
      }
      core::AgentCluster out;
      out.step = node(members.front()).step;
      out.members = members;
      std::sort(out.members.begin(), out.members.end());
      for (AgentId m : out.members) {
        node(m).status = core::AgentStatus::kRunning;
        node(m).cluster = -1;
      }
      running_ += out.members.size();
      ++stats_.clusters_dispatched;
      stats_.sum_cluster_sizes += static_cast<double>(out.members.size());
      stats_.max_concurrent_running =
          std::max<std::uint64_t>(stats_.max_concurrent_running, running_);
      ready.push_back(std::move(out));
      it = clusters_.erase(it);
    }
    std::sort(ready.begin(), ready.end(),
              [](const core::AgentCluster& a, const core::AgentCluster& b) {
                if (a.step != b.step) return a.step < b.step;
                return a.members.front() < b.members.front();
              });
    return ready;
  }

  void commit(const std::vector<std::pair<AgentId, Pos>>& moves) {
    AIM_CHECK(!moves.empty());
    ++stats_.commits;
    for (const auto& [id, pos] : moves) {
      Node& n = node(id);
      AIM_CHECK_MSG(n.status == core::AgentStatus::kRunning,
                    "commit of non-running agent " << id);
      AIM_CHECK_MSG(metric_->distance(n.pos, pos) <= params_.max_vel + 1e-9,
                    "agent " << id << " moved faster than max_vel");
      n.pos = pos;
      n.step += 1;
      AIM_CHECK(n.step <= target_);
      --running_;
      n.status = n.step == target_ ? core::AgentStatus::kDone
                                   : core::AgentStatus::kIdle;
    }
    for (const auto& [id, pos] : moves) {
      (void)pos;
      refresh_outgoing(id);
      recompute_blockers(id);
    }
    for (const auto& [id, pos] : moves) {
      (void)pos;
      Node& n = node(id);
      if (n.status == core::AgentStatus::kIdle) cluster_in(id);
      if (n.status == core::AgentStatus::kDone) {
        const std::vector<AgentId> watchers(n.blocks.begin(), n.blocks.end());
        for (AgentId w : watchers) remove_edge(id, w);
      }
    }
  }

  // ---- Introspection (the subset of core::Scoreboard the tests read) ----

  std::size_t agent_count() const { return nodes_.size(); }
  bool all_done() const {
    return std::all_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
      return n.status == core::AgentStatus::kDone;
    });
  }
  Step step_of(AgentId id) const { return node(id).step; }
  Pos pos_of(AgentId id) const { return node(id).pos; }
  core::AgentStatus status_of(AgentId id) const { return node(id).status; }
  std::vector<AgentId> blockers_of(AgentId id) const {
    return {node(id).blocked_by.begin(), node(id).blocked_by.end()};
  }
  std::vector<AgentId> cluster_of(AgentId id) const {
    if (node(id).cluster < 0) return {};
    std::vector<AgentId> members = clusters_.at(node(id).cluster);
    std::sort(members.begin(), members.end());
    return members;
  }
  /// Smallest step of any agent not yet done; target_step when all are.
  Step min_step() const {
    Step best = target_;
    for (const Node& n : nodes_) {
      if (n.status != core::AgentStatus::kDone) best = std::min(best, n.step);
    }
    return best;
  }
  double mean_blockers() const {
    return blocker_samples_ ? static_cast<double>(blocker_total_) /
                                  static_cast<double>(blocker_samples_)
                            : 0.0;
  }
  core::ScoreboardStats stats() const { return stats_; }

  /// Throws CheckError unless the board is exactly what the rules
  /// define: every pair satisfies the Appendix A validity condition,
  /// every idle agent's blockers are precisely the agents blocks() names
  /// (running agents have none), edges are symmetric, done agents carry
  /// none, and the idle clusters are exactly the coupling components of
  /// the idle agents. O(n^2).
  void check_invariants() const {
    // Every predicate below compares a distance against a radius of at
    // most blocking_radius(largest step gap).
    Step max_step = 0;
    for (const Node& n : nodes_) max_step = std::max(max_step, n.step);
    const double reach = params_.blocking_radius(max_step - min_step());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto a = static_cast<AgentId>(i);
      const Node& na = nodes_[i];
      for (AgentId b : na.blocked_by) AIM_CHECK(node(b).blocks.count(a) == 1);
      for (AgentId w : na.blocks) AIM_CHECK(node(w).blocked_by.count(a) == 1);
      if (na.status == core::AgentStatus::kDone) {
        AIM_CHECK(na.blocked_by.empty() && na.blocks.empty());
        AIM_CHECK(na.cluster < 0);
        continue;
      }
      AIM_CHECK((na.status == core::AgentStatus::kIdle) == (na.cluster >= 0));
      std::set<AgentId> expected;
      const std::vector<double> dists = distances_from(na.pos, reach);
      for (std::size_t j = 0; j < nodes_.size(); ++j) {
        if (j == i) continue;
        const Node& nb = nodes_[j];
        const double dist = dists[j];
        AIM_CHECK_MSG(core::state_valid(dist, na.step, nb.step, params_),
                      "temporal causality violated between agents "
                          << i << "@" << na.step << " and " << j << "@"
                          << nb.step << " at distance " << dist);
        if (nb.status == core::AgentStatus::kDone) continue;
        if (core::blocks(dist, na.step, nb.step,
                         nb.status == core::AgentStatus::kRunning, params_)) {
          expected.insert(static_cast<AgentId>(j));
        }
        const bool both_idle = na.status == core::AgentStatus::kIdle &&
                               nb.status == core::AgentStatus::kIdle;
        if (both_idle && core::coupled(dist, na.step, nb.step, params_)) {
          AIM_CHECK_MSG(na.cluster == nb.cluster,
                        "coupled idle agents " << i << " and " << j
                                               << " in different clusters");
        }
      }
      // A running agent was unblocked when popped and gains no blockers
      // while it runs (its co-running cluster mates satisfy blocks() but
      // are never recorded); an idle agent's blockers are exact.
      if (na.status == core::AgentStatus::kRunning) {
        AIM_CHECK(na.blocked_by.empty());
      } else {
        AIM_CHECK_MSG(expected == na.blocked_by,
                      "blockers of agent " << i << " differ from the rules");
      }
    }
    // Each cluster is one step's idle agents, joined by coupling links
    // (a flood fill from any member reaches every member).
    for (const auto& [cid, members] : clusters_) {
      AIM_CHECK(!members.empty());
      for (AgentId m : members) {
        AIM_CHECK(node(m).cluster == cid);
        AIM_CHECK(node(m).step == node(members.front()).step);
      }
      std::set<AgentId> reached{members.front()};
      std::vector<AgentId> frontier{members.front()};
      while (!frontier.empty()) {
        const AgentId u = frontier.back();
        frontier.pop_back();
        for (AgentId v : members) {
          if (reached.count(v) == 0 &&
              core::coupled(metric_->distance(node(u).pos, node(v).pos),
                            node(u).step, node(v).step, params_)) {
            reached.insert(v);
            frontier.push_back(v);
          }
        }
      }
      AIM_CHECK_MSG(reached.size() == members.size(),
                    "cluster " << cid << " is not coupling-connected");
    }
  }

 private:
  struct Node {
    Step step = 0;
    Pos pos;
    core::AgentStatus status = core::AgentStatus::kIdle;
    std::set<AgentId> blocked_by;  // B in blocked_by => B blocks this agent
    std::set<AgentId> blocks;      // reverse edges
    std::int64_t cluster = -1;     // idle cluster id, -1 when not idle
  };

  Node& node(AgentId id) {
    AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  const Node& node(AgentId id) const {
    AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }

  void add_edge(AgentId blocker, AgentId blocked) {
    if (!node(blocked).blocked_by.insert(blocker).second) return;
    node(blocker).blocks.insert(blocked);
    ++stats_.edges_added;
  }
  void remove_edge(AgentId blocker, AgentId blocked) {
    if (node(blocked).blocked_by.erase(blocker) == 0) return;
    node(blocker).blocks.erase(blocked);
    ++stats_.edges_removed;
  }

  /// Drop the edges from `id` to the agents it no longer blocks.
  void refresh_outgoing(AgentId id) {
    const Node& n = node(id);
    const std::vector<AgentId> watchers(n.blocks.begin(), n.blocks.end());
    for (AgentId w : watchers) {
      if (!core::blocks(metric_->distance(node(w).pos, n.pos), node(w).step,
                        n.step, n.status == core::AgentStatus::kRunning,
                        params_)) {
        remove_edge(id, w);
      }
    }
  }

  /// Rebuild `id`'s blockers from a scan of every live agent.
  void recompute_blockers(AgentId id) {
    const std::vector<AgentId> previous = blockers_of(id);
    for (AgentId b : previous) remove_edge(b, id);
    const Node& n = node(id);
    if (n.status == core::AgentStatus::kDone) return;
    // No live agent lags `id` by more than its step minus the minimum.
    const std::vector<double> dists =
        distances_from(n.pos, params_.blocking_radius(n.step - min_step()));
    std::uint64_t found = 0;
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      const auto b = static_cast<AgentId>(j);
      const Node& other = nodes_[j];
      if (b == id || other.status == core::AgentStatus::kDone) continue;
      if (core::blocks(dists[j], n.step, other.step,
                       other.status == core::AgentStatus::kRunning,
                       params_)) {
        add_edge(b, id);
        ++found;
      }
    }
    ++blocker_samples_;
    blocker_total_ += found;
  }

  /// Join idle agent `id` to every clustered idle agent it couples with,
  /// merging their clusters into one. Idle agents not yet clustered (a
  /// committing sibling whose turn comes later) are skipped; they join
  /// when their own turn comes.
  void cluster_in(AgentId id) {
    std::set<std::int64_t> joined;
    const std::vector<double> dists =
        distances_from(node(id).pos, params_.coupling_radius());
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      const Node& other = nodes_[j];
      if (static_cast<AgentId>(j) == id || other.cluster < 0) continue;
      if (core::coupled(dists[j], node(id).step, other.step, params_)) {
        joined.insert(other.cluster);
      }
    }
    const std::int64_t target = joined.empty() ? next_cluster_++
                                               : *joined.begin();
    std::vector<AgentId>& members = clusters_[target];
    for (std::int64_t cid : joined) {
      if (cid == target) continue;
      for (AgentId m : clusters_.at(cid)) {
        node(m).cluster = target;
        members.push_back(m);
      }
      clusters_.erase(cid);
    }
    node(id).cluster = target;
    members.push_back(id);
  }

  /// The distance from `center` to every agent, indexed by id: exact
  /// where it is <= radius, and some value above radius elsewhere, which
  /// is all the rules need (they only compare distances against radii of
  /// at most `radius`). Graph metrics are answered from one BFS capped
  /// at floor(radius) hops (hop counts are integral); asking the metric
  /// pair by pair would expand a BFS across the whole graph for every far
  /// agent, which makes a 1000-agent social net take minutes.
  std::vector<double> distances_from(Pos center, double radius) const {
    std::vector<double> out(nodes_.size());
    const auto* adjacency = metric_->graph_adjacency();
    if (adjacency == nullptr) {
      for (std::size_t j = 0; j < nodes_.size(); ++j) {
        out[j] = metric_->distance(center, nodes_[j].pos);
      }
      return out;
    }
    // hops_ reads -1 for every node between calls: the nodes labeled
    // here are reset on the way out.
    hops_.resize(adjacency->size(), -1);
    const auto cap = static_cast<std::int32_t>(std::floor(radius));
    std::vector<std::int32_t> labeled{static_cast<std::int32_t>(center.x)};
    hops_[static_cast<std::size_t>(labeled.front())] = 0;
    for (std::size_t k = 0; k < labeled.size(); ++k) {
      const std::int32_t u = labeled[k];
      const std::int32_t depth = hops_[static_cast<std::size_t>(u)];
      if (depth == cap) break;  // breadth-first: every later node is too
      for (std::int32_t v : (*adjacency)[static_cast<std::size_t>(u)]) {
        if (hops_[static_cast<std::size_t>(v)] < 0) {
          hops_[static_cast<std::size_t>(v)] = depth + 1;
          labeled.push_back(v);
        }
      }
    }
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      const std::int32_t h =
          hops_[static_cast<std::size_t>(nodes_[j].pos.x)];
      out[j] = h < 0 ? radius + 1.0 : static_cast<double>(h);
    }
    for (std::int32_t v : labeled) hops_[static_cast<std::size_t>(v)] = -1;
    return out;
  }

  core::DependencyParams params_;
  std::shared_ptr<const core::Metric> metric_;
  Step target_;
  std::vector<Node> nodes_;
  /// Idle clusters by id; members unsorted.
  std::map<std::int64_t, std::vector<AgentId>> clusters_;
  std::int64_t next_cluster_ = 0;
  std::uint64_t running_ = 0;
  core::ScoreboardStats stats_;
  std::uint64_t blocker_samples_ = 0;
  std::uint64_t blocker_total_ = 0;
  /// BFS scratch for distances_from on graph metrics.
  mutable std::vector<std::int32_t> hops_;
};

}  // namespace aimetro::test_support
