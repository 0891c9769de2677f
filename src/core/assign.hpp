#pragma once

/// \file assign.hpp
/// Step 1 of the incremental partitioner (Ou & Ranka §2.1): give every new
/// vertex the partition of its nearest old vertex.
///
/// M'(v) = M(x) where x minimizes d(v, x) over old vertices (eq. 7),
/// computed with one BFS seeded from the old neighbors of the appended
/// tail.  Expansion only ever enters appended vertices, so this equals the
/// multi-source BFS from every old vertex that eq. 7 describes; equidistant
/// ties go to the smallest partition id.  New vertices in components
/// containing no old vertex are clustered and each cluster is assigned to
/// the least-loaded partition (§2.1's fallback strategy).

#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace pigp::graph {
class PartitionState;
}  // namespace pigp::graph

namespace pigp::core {

struct Workspace;

/// Step 1 has no knobs.  The struct survives only as the last parameter
/// of extend_assignment_state, which the benchmark harness still passes.
struct AssignOptions {};

/// Extend \p old_partitioning (covering vertices [0, n_old) of \p g_new) to
/// all vertices of \p g_new.  Vertices below n_old keep their partitions.
/// A copying adapter: seed_extension_state + extend_assignment_state on a
/// call-local state and workspace.
[[nodiscard]] graph::Partitioning extend_assignment(
    const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
    graph::VertexId n_old);

/// Seed \p state in the shape extend_assignment_state expects: \p p
/// covers [0, n_old) of \p g_new, and the state describes it with the
/// appended tail unassigned.  One O(V+E) rescan — for callers that hold
/// no maintained state (the plain Backend::repartition adapter).
void seed_extension_state(const graph::Graph& g_new, graph::Partitioning& p,
                          graph::PartitionState& state);

/// The one step-1 implementation, in place and state-maintained for the
/// streaming hot path: \p p covers [0, n_old) and grows to cover \p g_new,
/// every placement goes through \p state (move_vertex) so the aggregates
/// and the boundary index stay exact, and all per-vertex BFS storage comes
/// from \p ws (epoch-cleared — zero allocations once warm).
///
/// The BFS is seeded only with the old vertices adjacent to the appended
/// tail instead of all n_old of them.  Expansion can only ever enter
/// appended vertices (old ones have distance 0 in the full formulation),
/// and an appended vertex's old neighbors are seeds by construction, so
/// distances and the min-label tie-break equal eq. 7's;
/// tests/core/test_assign.cpp checks them against a bfs_distances oracle.
/// Cost: O(Σ deg(appended) + labeled shell), not O(V + E).
/// The orphan-cluster fallback (appended components with no old vertex)
/// is the one sub-path that may allocate.
void extend_assignment_state(const graph::Graph& g_new, graph::Partitioning& p,
                             graph::VertexId n_old,
                             graph::PartitionState& state, Workspace& ws,
                             const AssignOptions& options = {});

}  // namespace pigp::core
