#include "core/assign.hpp"

#include <algorithm>

#include "core/workspace.hpp"
#include "graph/components.hpp"
#include "graph/partition_state.hpp"
#include "graph/subgraph.hpp"
#include "support/check.hpp"

namespace pigp::core {

graph::Partitioning extend_assignment(
    const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
    graph::VertexId n_old) {
  PIGP_CHECK(static_cast<graph::VertexId>(old_partitioning.part.size()) ==
                 n_old,
             "old partitioning must cover exactly the old vertices");
  graph::Partitioning result = old_partitioning;
  graph::PartitionState state;
  seed_extension_state(g_new, result, state);
  Workspace ws;
  extend_assignment_state(g_new, result, n_old, state, ws);
  result.validate(g_new);
  return result;
}

void seed_extension_state(const graph::Graph& g_new, graph::Partitioning& p,
                          graph::PartitionState& state) {
  const std::size_t n_old = p.part.size();
  PIGP_CHECK(static_cast<graph::VertexId>(n_old) <= g_new.num_vertices(),
             "partitioning covers more vertices than the graph");
  p.part.resize(static_cast<std::size_t>(g_new.num_vertices()),
                graph::kUnassigned);
  state.rebuild(g_new, p);
  p.part.resize(n_old);
}

void extend_assignment_state(const graph::Graph& g_new, graph::Partitioning& p,
                             graph::VertexId n_old,
                             graph::PartitionState& state, Workspace& ws,
                             const AssignOptions& options) {
  const graph::VertexId n = g_new.num_vertices();
  PIGP_CHECK(n_old >= 0 && n_old <= n, "n_old out of range");
  PIGP_CHECK(static_cast<graph::VertexId>(p.part.size()) == n_old,
             "partitioning must cover exactly the old vertices");
  PIGP_CHECK(n_old > 0, "need at least one previously partitioned vertex");
  (void)options;  // AssignOptions has no fields

  if (n_old == n) return;  // pure repartition tick — nothing to place

  ws.assign_distance.ensure(static_cast<std::size_t>(n));
  ws.assign_label.ensure(static_cast<std::size_t>(n));
  ws.assign_distance.clear();  // O(1): generation bump, not a memset
  ws.assign_label.clear();
  std::vector<graph::VertexId>& frontier = ws.assign_frontier;
  std::vector<graph::VertexId>& next = ws.assign_next;
  frontier.clear();

  // Level-0 seeds: only the old vertices adjacent to the appended tail.
  // In the full multi-source formulation every old vertex is a distance-0
  // seed, but expansion can only ever enter appended vertices, and an
  // appended vertex's old neighbors are all adjacent to the tail — so this
  // seed set yields identical distances and labels.
  for (graph::VertexId v = n_old; v < n; ++v) {
    for (const graph::VertexId u : g_new.neighbors(v)) {
      const auto ui = static_cast<std::size_t>(u);
      if (u >= n_old || ws.assign_distance.contains(ui)) continue;
      ws.assign_distance.set(ui, 0);
      ws.assign_label.set(ui, p.part[ui]);
      frontier.push_back(u);
    }
  }

  std::int32_t level = 0;
  while (!frontier.empty()) {
    // Pass 1: discover the next frontier (an order-independent set; the
    // distance stamp doubles as the claimed flag).
    next.clear();
    for (const graph::VertexId u : frontier) {
      for (const graph::VertexId v : g_new.neighbors(u)) {
        if (v < n_old) continue;  // expansion only enters the appended tail
        const auto vi = static_cast<std::size_t>(v);
        if (ws.assign_distance.contains(vi)) continue;
        ws.assign_distance.set(vi, level + 1);
        next.push_back(v);
      }
    }
    // Pass 2: label each discovered vertex from its level-`level`
    // neighbors; the min-label rule makes the outcome independent of
    // discovery order.
    for (const graph::VertexId v : next) {
      graph::PartId best = -1;
      for (const graph::VertexId u : g_new.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(u);
        if (ws.assign_distance.get_or(ui, -1) != level) continue;
        const graph::PartId lu = ws.assign_label.get(ui);
        if (best < 0 || lu < best) best = lu;
      }
      PIGP_ASSERT(best >= 0);
      ws.assign_label.set(static_cast<std::size_t>(v), best);
    }
    frontier.swap(next);
    ++level;
  }

  // Fallback for appended components containing no old vertex: cluster the
  // orphans and send each cluster, in ascending component order, to the
  // least-loaded partition.  This sub-path allocates (it is rare and never
  // on the steady-state stream).
  bool any_orphan = false;
  for (graph::VertexId v = n_old; v < n && !any_orphan; ++v) {
    any_orphan = !ws.assign_label.contains(static_cast<std::size_t>(v));
  }
  if (any_orphan) {
    // Loads over everything assigned so far: old weights come from the
    // maintained state, labeled appendees are added in ascending order.
    std::vector<double> load = state.weights();
    std::vector<graph::VertexId> orphans;
    for (graph::VertexId v = n_old; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (ws.assign_label.contains(vi)) {
        load[static_cast<std::size_t>(ws.assign_label.get(vi))] +=
            g_new.vertex_weight(v);
      } else {
        orphans.push_back(v);
      }
    }
    const graph::Subgraph sub = graph::induced_subgraph(g_new, orphans);
    const graph::Components comps = graph::connected_components(sub.graph);
    for (const auto& group : comps.members()) {
      double cluster_weight = 0.0;
      for (const graph::VertexId local : group) {
        cluster_weight += sub.graph.vertex_weight(local);
      }
      const auto lightest = static_cast<graph::PartId>(std::distance(
          load.begin(), std::min_element(load.begin(), load.end())));
      for (const graph::VertexId local : group) {
        ws.assign_label.set(
            static_cast<std::size_t>(
                sub.to_global[static_cast<std::size_t>(local)]),
            lightest);
      }
      load[static_cast<std::size_t>(lightest)] += cluster_weight;
    }
  }

  // Placement: grow, then one ascending move_vertex pass — the exact
  // protocol of PartitionState::extend, so the aggregates and the boundary
  // index match the copy-based path move for move.
  p.part.resize(static_cast<std::size_t>(n), graph::kUnassigned);
  state.grow_vertices(n);
  for (graph::VertexId v = n_old; v < n; ++v) {
    state.move_vertex(g_new, p, v,
                      ws.assign_label.get(static_cast<std::size_t>(v)));
  }
}

}  // namespace pigp::core
