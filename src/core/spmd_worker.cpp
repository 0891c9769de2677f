#include "core/spmd_worker.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "core/spmd_igp.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using graph::PartId;
using graph::VertexId;
using net::Packet;

/// Install the full row (\p nbrs, \p weights) of \p v — a vertex entering
/// an owned partition without its row — into the shard's mutable graph and
/// the state.  v's halo row already holds its edges into resident vertices;
/// every other edge is new to the shard and is inserted on both sides, so
/// rows stay sorted (byte-identical to the full graph's) and the shard
/// stays symmetric: the reverse half-edges join the halo.
void install_row(graph::GraphShard& shard, graph::PartitionState& state,
                 VertexId v, const std::vector<VertexId>& nbrs,
                 const std::vector<double>& weights) {
  graph::Graph& g = shard.graph;
  const auto halo = static_cast<std::int64_t>(g.neighbors(v).size());
  const auto full = static_cast<std::int64_t>(nbrs.size());
  for (std::size_t e = 0; e < nbrs.size(); ++e) {
    if (g.has_edge(v, nbrs[e])) continue;  // insert_edge would sum it
    g.insert_edge(v, nbrs[e], weights[e]);
    state.add_edge(shard.partitioning, v, nbrs[e], weights[e]);
  }
  shard.resident[static_cast<std::size_t>(v)] = 1;
  shard.resident_half_edges += full;
  shard.halo_half_edges += (full - halo) - halo;
}

/// The residency invariant the stage's BFS needs: part[v] owned  ⟹  v's
/// full row is resident.  Every build checks the stage's owned seeds
/// (O(boundary)); Debug and PIGP_VALIDATE builds audit every owned vertex,
/// and that the state's boundary bit is its row's — the exactness the
/// seeding relies on.
void check_residency(const graph::GraphShard& shard,
                     const graph::PartitionState& state,
                     const BoundaryLayering& layering) {
  const auto require_row = [&shard](VertexId v) {
    PIGP_CHECK(shard.resident[static_cast<std::size_t>(v)] != 0,
               "residency invariant broken: owned vertex without its "
               "adjacency row");
  };
  for (const PartId q : shard.owned_parts) {
    for (const VertexId v : layering.labeled(q)) require_row(v);
  }
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
  const graph::Partitioning& p = shard.partitioning;
  for (VertexId v = 0; v < shard.graph.num_vertices(); ++v) {
    const PartId q = p.part[static_cast<std::size_t>(v)];
    if (!shard.owns(q)) continue;
    require_row(v);
    const auto nbrs = shard.graph.neighbors(v);
    const bool boundary =
        std::any_of(nbrs.begin(), nbrs.end(), [&p, q](VertexId w) {
          return p.part[static_cast<std::size_t>(w)] != q;
        });
    PIGP_CHECK(state.is_boundary(v) == boundary,
               "shard state's boundary bit disagrees with an owned row");
  }
#else
  (void)state;
#endif
}

}  // namespace

SpmdWorkerStats spmd_worker_rebalance(net::Transport& transport,
                                      graph::GraphShard& shard,
                                      const IgpOptions& options) {
  PIGP_CHECK(!options.refine,
             "spmd_worker_rebalance: the refinement pass needs the full "
             "graph and is not supported on sharded workers; set "
             "options.refine = false");
  PIGP_CHECK(shard.rank == transport.rank() &&
                 shard.num_ranks == transport.num_ranks(),
             "shard rank/num_ranks do not match the transport");
  graph::Graph& g = shard.graph;
  graph::Partitioning& p = shard.partitioning;
  const auto parts = static_cast<std::size_t>(p.num_parts);
  const VertexId n = g.num_vertices();
  PIGP_CHECK(p.part.size() == static_cast<std::size_t>(n),
             "shard partitioning does not cover the graph");
  for (VertexId v = 0; v < n; ++v) {
    PIGP_CHECK(p.part[static_cast<std::size_t>(v)] >= 0 &&
                   p.part[static_cast<std::size_t>(v)] < p.num_parts,
               "spmd_worker_rebalance needs a fully assigned partitioning");
  }

  // Vertex weights are replicated, so every rank derives identical targets
  // (total_vertex_weight accumulates in vertex order, like the oracle's).
  const std::vector<double> targets =
      graph::balance_targets(g.total_vertex_weight(), p.num_parts);

  // One rank-local state over the shard.  Its weights accumulate in vertex
  // order and every move goes through move_vertex, as in the in-process
  // engine, so the replicated excess matches it bit for bit.  Its boundary
  // bits are exact for owned vertices: their full rows are resident and
  // the shard is symmetric.
  graph::PartitionState state(g, p);

  SpmdWorkerStats stats;
  const std::vector<PartId>& owned = shard.owned_parts;

  // This rank's buffers for the call: layering, flow, transfer selection.
  Workspace ws;
  BoundaryLayering& layering = ws.layering;
  layering.bind(g, p);  // rows are installed in place: the graph stays put
  std::vector<double> excess(parts, 0.0);
  const std::vector<std::int64_t>& moves_flat = ws.spmd_moves_flat;
  std::vector<VertexId>& movers = ws.spmd_movers;
  std::vector<VertexId> row_nbrs;
  std::vector<double> row_weights;

  for (int stage = 0; stage < options.balance.max_stages; ++stage) {
    // Excess off the replicated weights — identical on every rank.
    if (compute_excess(state.weights(), targets, excess) <=
        options.balance.tolerance) {
      stats.balanced = true;
      break;
    }

    // The owned partitions' seed shell, then the shared deepen-vs-decide
    // handshake; this engine needs only the agreed moves, not rank 0's
    // stage statistics.
    layering.reseed(state, &owned);
    check_residency(shard, state, layering);
    const SpmdStageOutcome outcome =
        spmd_balance_handshake(transport, owned, excess, options.balance, ws);
    if (!outcome.progress) break;
    ++stats.stages;

    // Select the transfers out of our owned partitions (same ordering as
    // the oracle) and ship, per selected vertex, its full adjacency row so
    // the receiving owner can install it.
    Packet sel_packet;
    for (const PartId q : owned) {
      const std::int64_t* move_row =
          moves_flat.data() + static_cast<std::size_t>(q) * parts;
      ws.transfer.chosen.clear();
      select_partition_transfers(g, p, layering.label(), layering.layer(),
                                 layering.labeled(q), q, move_row,
                                 ws.transfer);
      // Destination j's movers are the next move_row[j] chosen vertices.
      std::span<const VertexId> rest = ws.transfer.chosen;
      for (std::size_t j = 0; j < parts; ++j) {
        const auto count =
            static_cast<std::size_t>(std::max<std::int64_t>(move_row[j], 0));
        sel_packet.pack_vector(rest.first(count));
        for (const VertexId v : rest.first(count)) {
          sel_packet.pack_vector(g.neighbors(v));
          sel_packet.pack_vector(g.incident_edge_weights(v));
        }
        rest = rest.subspan(count);
      }
    }
    std::vector<Packet> all_selections =
        transport.allgather(std::move(sel_packet));

    // Parse everyone's selections and apply each move as it is read.
    // Every rank packed its owned sources in ascending order, so walking
    // q ascending and reading q's rows from its owner's packet visits the
    // moves in the oracle's global order (source asc, dest asc, selection
    // order), and every move goes through the state, so replicated
    // weights and part stay bit-identical across ranks and to the
    // in-process engine.  Each vertex moves at most once per stage, so
    // applying while parsing changes nothing; a vertex entering our owned
    // partitions without its full row gets it installed before it moves.
    // Each rank writes only its own shard and state, and the next stage's
    // handshake allgather orders the ranks, so no barrier follows.
    for (PartId q = 0; q < p.num_parts; ++q) {
      const int owner = graph::shard_owner(q, transport.num_ranks());
      Packet& pk = all_selections[static_cast<std::size_t>(owner)];
      for (std::size_t j = 0; j < parts; ++j) {
        const auto to = static_cast<PartId>(j);
        pk.unpack_vector_into(movers);
        for (const VertexId v : movers) {
          if (shard.owns(to) &&
              shard.resident[static_cast<std::size_t>(v)] == 0) {
            pk.unpack_vector_into(row_nbrs);
            pk.unpack_vector_into(row_weights);
            install_row(shard, state, v, row_nbrs, row_weights);
            ++stats.rows_migrated;
          } else {
            pk.skip_vector<VertexId>();  // only the new owner keeps the row
            pk.skip_vector<double>();
          }
          if (p.part[static_cast<std::size_t>(v)] == to) continue;
          state.move_vertex(g, p, v, to);
          ++stats.vertices_moved;
        }
      }
    }
  }

  if (!stats.balanced) {
    stats.final_max_deviation =
        compute_excess(state.weights(), targets, excess);
    stats.balanced = stats.final_max_deviation <= options.balance.tolerance;
  }

  // Distributed weighted cut: C(q) of an owned partition is exact (its
  // members' rows are resident), the rank-ordered allreduce makes the sum
  // deterministic, and every undirected cross edge was counted from both
  // endpoints — halve it.
  double local_cut = 0.0;
  for (const PartId q : owned) {
    local_cut += state.boundary_costs()[static_cast<std::size_t>(q)];
  }
  stats.cut = transport.allreduce(
                  local_cut, [](double a, double b) { return a + b; }) /
              2.0;
  return stats;
}

}  // namespace pigp::core
