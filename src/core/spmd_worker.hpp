#pragma once

/// \file spmd_worker.hpp
/// The fully distributed SPMD worker: one process per rank, sharded graph.
///
/// core/spmd_igp runs the paper's protocol with the graph replicated and a
/// shared PartitionState — fine for threads, impossible across processes.
/// This engine runs the SAME per-stage protocol (boundary-seeded,
/// lazily deepened layering of owned partitions, then the one
/// core::spmd_balance_handshake both engines call — allgathered ε
/// capacities, rank-0 α-ladder LP, broadcast deepen-vs-decide — then
/// per-rank selection) against a graph::GraphShard: each rank holds full
/// adjacency rows only for vertices in its owned partitions (plus halo),
/// the partition-id and vertex-weight vectors are replicated, and every
/// rank applies the decided moves to its replica in the same global order
/// so the replicas never diverge.
///
/// Each rank keeps one graph::PartitionState over its shard, seeded once
/// per call; every move goes through it.  When the balancer moves a vertex
/// into a partition owned by another rank, the selection message carries
/// the vertex's full adjacency row and the new owner installs it in place
/// into the shard's mutable graph (the edges its halo row lacks, inserted
/// on both sides and added to the state), maintaining the residency
/// invariant the next stage's BFS needs: part[v] owned by r  ⟹  v's full
/// row is resident on r.  The shard stays symmetric, so the state's
/// boundary bits are exact for owned vertices and seed the layering.
///
/// Parity: with the same seed/config, the final partitioning is
/// bit-identical to spmd_repartition_in_place (and therefore to the
/// shared-memory driver) on the full graph — every floating-point
/// accumulation follows the same operand order (weights in vertex order,
/// moves in (source asc, dest asc, selection order) global order,
/// reductions in rank order),
/// layering reads resident rows byte-identical to the full graph's and is
/// seeded through the same BoundaryLayering::reseed from the state's
/// boundary walk (for owned partitions the same vertex list as the full
/// graph's state), and the LP runs on rank 0 from identical
/// inputs.  tests/core/test_spmd_worker pins this against the in-process
/// oracle.
///
/// Scope: pure rebalancing of an existing assignment (the launcher's
/// steady-state job).  Vertex insertion (step 1) and the refinement pass
/// are global operations the sharded worker does not implement — the
/// engine checks and refuses rather than silently diverging.

#include <cstdint>

#include "core/igp.hpp"
#include "graph/shard.hpp"
#include "runtime/net/transport.hpp"

namespace pigp::core {

/// Per-rank outcome of a distributed rebalance; identical on every rank
/// except rows_migrated/resident counters, which are rank-local.
struct SpmdWorkerStats {
  bool balanced = false;
  int stages = 0;
  double final_max_deviation = 0.0;
  /// Weighted cut of the final partitioning (each cross edge once),
  /// computed distributed: every rank sums its owned partitions' boundary
  /// costs C(q), allreduced in rank order, halved.
  double cut = 0.0;
  std::int64_t vertices_moved = 0;
  /// Adjacency rows this rank installed for vertices migrated into its
  /// owned partitions.
  std::int64_t rows_migrated = 0;
};

/// Rebalance \p shard's partitioning across \p transport's ranks.  The
/// shard must be rank/num_ranks consistent with the transport, fully
/// assigned, and every rank must hold the same replicated partitioning.
/// On return shard.partitioning is the final (replica-identical)
/// assignment and shard.graph holds every migrated row (still symmetric).
///
/// Throws pigp::CheckError when options request the refinement pass
/// (unsupported here — see the file comment); TransportError propagates
/// from the wire.
[[nodiscard]] SpmdWorkerStats spmd_worker_rebalance(net::Transport& transport,
                                                    graph::GraphShard& shard,
                                                    const IgpOptions& options);

}  // namespace pigp::core
