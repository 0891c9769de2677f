#include "core/spmd_worker.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "core/spmd_igp.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

using graph::PartId;
using graph::VertexId;
using net::Packet;

/// Full adjacency row received for a vertex migrating into one of our
/// owned partitions; folded into the CSR at the next stage boundary.
struct OverlayRow {
  std::vector<VertexId> nbrs;
  std::vector<double> weights;
};

/// Rebuild the shard CSR with the pending overlay rows swapped in.  The
/// Graph constructor does not validate symmetry — rows of vertices that
/// migrated *away* keep their stale full rows (harmless: the BFS and the
/// selection only ever read rows of current owned-partition members, and a
/// stale row equals the vertex's true full row anyway).
void fold_overlays(graph::GraphShard& shard,
                   std::unordered_map<VertexId, OverlayRow>& overlays) {
  const graph::Graph& g = shard.graph;
  const VertexId n = g.num_vertices();
  std::int64_t extra = 0;
  for (const auto& entry : overlays) {
    extra += static_cast<std::int64_t>(entry.second.nbrs.size());
  }
  std::vector<graph::EdgeIndex> xadj;
  xadj.reserve(static_cast<std::size_t>(n) + 1);
  xadj.push_back(0);
  std::vector<VertexId> adjncy;
  adjncy.reserve(static_cast<std::size_t>(g.num_half_edges() + extra));
  std::vector<double> eweights;
  eweights.reserve(adjncy.capacity());
  for (VertexId v = 0; v < n; ++v) {
    const auto it = overlays.find(v);
    if (it != overlays.end()) {
      const OverlayRow& row = it->second;
      shard.resident_half_edges +=
          static_cast<std::int64_t>(row.nbrs.size());
      shard.halo_half_edges -=
          static_cast<std::int64_t>(g.neighbors(v).size());
      adjncy.insert(adjncy.end(), row.nbrs.begin(), row.nbrs.end());
      eweights.insert(eweights.end(), row.weights.begin(),
                      row.weights.end());
    } else {
      const auto nbrs = g.neighbors(v);
      const auto ws = g.incident_edge_weights(v);
      adjncy.insert(adjncy.end(), nbrs.begin(), nbrs.end());
      eweights.insert(eweights.end(), ws.begin(), ws.end());
    }
    xadj.push_back(static_cast<graph::EdgeIndex>(adjncy.size()));
  }
  shard.graph = graph::Graph(std::move(xadj), std::move(adjncy),
                             g.vertex_weights(), std::move(eweights));
  overlays.clear();
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
  graph::Partitioning& p = shard.partitioning;
  const auto parts = static_cast<std::size_t>(p.num_parts);
  const VertexId n = shard.graph.num_vertices();
  PIGP_CHECK(p.part.size() == static_cast<std::size_t>(n),
             "shard partitioning does not cover the graph");
  for (VertexId v = 0; v < n; ++v) {
    PIGP_CHECK(p.part[static_cast<std::size_t>(v)] >= 0 &&
                   p.part[static_cast<std::size_t>(v)] < p.num_parts,
               "spmd_worker_rebalance needs a fully assigned partitioning");
  }

  // Vertex weights are replicated, so every rank derives identical targets
  // (total_vertex_weight accumulates in vertex order, like the oracle's).
  const std::vector<double> targets = graph::balance_targets(
      shard.graph.total_vertex_weight(), p.num_parts);

  // Replicated partition weights, accumulated in vertex order — the exact
  // float-op order of PartitionState::rebuild, so excess values match the
  // in-process engine bit for bit.
  std::vector<double> W(parts, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    W[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])] +=
        shard.graph.vertex_weight(v);
  }

  SpmdWorkerStats stats;
  const std::vector<PartId>& owned = shard.owned_parts;

  // This rank's buffers for the call: layering, flow, transfer selection.
  Workspace ws;
  BoundaryLayering& layering = ws.layering;
  std::vector<double> excess(parts, 0.0);
  const std::vector<std::int64_t>& moves_flat = ws.spmd_moves_flat;
  std::vector<VertexId> seeds;
  std::vector<VertexId> movers;
  std::unordered_map<VertexId, OverlayRow> overlays;
  bool graph_dirty = false;

  for (int stage = 0; stage < options.balance.max_stages; ++stage) {
    // Excess off the replicated weights — identical on every rank.
    if (compute_excess(W, targets, excess) <= options.balance.tolerance) {
      stats.balanced = true;
      break;
    }

    // Fold last stage's migrated rows in before the BFS reads them, then
    // (re)bind — the graph object may have moved.
    if (graph_dirty) {
      fold_overlays(shard, overlays);
      graph_dirty = false;
    }
    layering.bind(shard.graph, p);

    // Seed layer 0 from one ascending scan for owned-partition boundary
    // members.  The predicate (a neighbor in another partition, read from
    // the member's resident full row) is exactly PartitionState's boundary
    // rule, so the list is what the in-process engine seeds from and the
    // seeding is bit-identical to it.
    seeds.clear();
    for (VertexId v = 0; v < n; ++v) {
      const PartId q = p.part[static_cast<std::size_t>(v)];
      if (!shard.owns(q)) continue;
      PIGP_CHECK(shard.resident[static_cast<std::size_t>(v)] != 0,
                 "residency invariant broken: owned vertex without its "
                 "adjacency row");
      for (const VertexId w : shard.graph.neighbors(v)) {
        if (p.part[static_cast<std::size_t>(w)] != q) {
          seeds.push_back(v);
          break;
        }
      }
    }
    layering.reseed(seeds, 1, &owned);

    // The deepen-vs-decide handshake the in-process engine runs; this
    // engine needs only the agreed moves, not rank 0's stage statistics.
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
      select_partition_transfers(shard.graph, p, layering.label(),
                                 layering.layer(), layering.labeled(q), q,
                                 move_row, ws.transfer);
      // Destination j's movers are the next move_row[j] chosen vertices.
      std::span<const VertexId> rest = ws.transfer.chosen;
      for (std::size_t j = 0; j < parts; ++j) {
        const auto count =
            static_cast<std::size_t>(std::max<std::int64_t>(move_row[j], 0));
        sel_packet.pack_vector(rest.first(count));
        for (const VertexId v : rest.first(count)) {
          sel_packet.pack_vector(shard.graph.neighbors(v));
          sel_packet.pack_vector(shard.graph.incident_edge_weights(v));
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
    // order); each move uses the exact subtract-then-add float-op order of
    // PartitionState::move_vertex, so replicated W and part stay
    // bit-identical across ranks and to the in-process engine.  Each
    // vertex moves at most once per stage, so applying while parsing
    // changes nothing, and the parse-time residency test is the
    // apply-time one: rows of vertices entering our owned partitions
    // whose full row we lack are stashed for the next fold.
    for (PartId q = 0; q < p.num_parts; ++q) {
      const int owner = graph::shard_owner(q, transport.num_ranks());
      Packet& pk = all_selections[static_cast<std::size_t>(owner)];
      for (std::size_t j = 0; j < parts; ++j) {
        pk.unpack_vector_into(movers);
        for (const VertexId v : movers) {
          if (shard.owns(static_cast<PartId>(j)) &&
              shard.resident[static_cast<std::size_t>(v)] == 0) {
            shard.resident[static_cast<std::size_t>(v)] = 1;
            OverlayRow& row = overlays[v];
            pk.unpack_vector_into(row.nbrs);
            pk.unpack_vector_into(row.weights);
            graph_dirty = true;
            ++stats.rows_migrated;
          } else {
            pk.skip_vector<VertexId>();  // only the new owner keeps the row
            pk.skip_vector<double>();
          }
          const PartId from = p.part[static_cast<std::size_t>(v)];
          if (from == static_cast<PartId>(j)) continue;
          const double vw = shard.graph.vertex_weight(v);
          W[static_cast<std::size_t>(from)] -= vw;
          W[j] += vw;
          p.part[static_cast<std::size_t>(v)] = static_cast<PartId>(j);
          ++stats.vertices_moved;
        }
      }
    }
    transport.barrier();  // stage complete everywhere before the next scan
  }

  if (!stats.balanced) {
    stats.final_max_deviation = compute_excess(W, targets, excess);
    stats.balanced = stats.final_max_deviation <= options.balance.tolerance;
  }

  // Leave the shard consistent: fold any rows migrated in the last stage.
  if (graph_dirty) fold_overlays(shard, overlays);

  // Distributed weighted cut: each rank sums the directed cross edges of
  // its owned partitions' members (their rows are resident), the
  // rank-ordered allreduce makes the sum deterministic, and every
  // undirected cross edge was counted from both endpoints — halve it.
  double local_cut = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const PartId q = p.part[static_cast<std::size_t>(v)];
    if (!shard.owns(q)) continue;
    const auto nbrs = shard.graph.neighbors(v);
    const auto ws = shard.graph.incident_edge_weights(v);
    for (std::size_t e = 0; e < nbrs.size(); ++e) {
      if (p.part[static_cast<std::size_t>(nbrs[e])] != q) {
        local_cut += ws[e];
      }
    }
  }
  stats.cut = transport.allreduce(
                  local_cut, [](double a, double b) { return a + b; }) /
              2.0;
  return stats;
}

}  // namespace pigp::core
