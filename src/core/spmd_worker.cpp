#include "core/spmd_worker.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/layering.hpp"
#include "core/spmd_igp.hpp"
#include "core/transfer.hpp"
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
  std::vector<int> owned_index(parts, -1);
  for (std::size_t k = 0; k < owned.size(); ++k) {
    owned_index[static_cast<std::size_t>(owned[k])] = static_cast<int>(k);
  }

  BoundaryLayering layering;
  std::vector<double> excess(parts, 0.0);
  std::vector<std::int64_t> moves_flat;
  std::vector<std::int64_t> eps_rows;
  std::vector<std::vector<VertexId>> buckets(owned.size());
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

    // Seed layer 0 from a full scan for owned-partition boundary members.
    // The membership predicate (any neighbor in a different partition)
    // matches PartitionState's boundary index, and reseed_from_buckets
    // sorts candidates like reseed() sorts the state's buckets — so the
    // seeding is bit-identical to the in-process engine's.
    for (auto& bucket : buckets) bucket.clear();
    for (VertexId v = 0; v < n; ++v) {
      const PartId q = p.part[static_cast<std::size_t>(v)];
      const int k = owned_index[static_cast<std::size_t>(q)];
      if (k < 0) continue;
      PIGP_CHECK(shard.resident[static_cast<std::size_t>(v)] != 0,
                 "residency invariant broken: owned vertex without its "
                 "adjacency row");
      for (const VertexId w : shard.graph.neighbors(v)) {
        if (p.part[static_cast<std::size_t>(w)] != q) {
          buckets[static_cast<std::size_t>(k)].push_back(v);
          break;
        }
      }
    }
    layering.reseed_from_buckets(buckets, owned, 1);

    // The deepen-vs-decide handshake the in-process engine runs; this
    // engine needs only the agreed moves, not rank 0's stage statistics.
    const SpmdStageOutcome outcome = spmd_balance_handshake(
        transport, layering, owned, excess, options.balance, eps_rows,
        moves_flat);
    if (!outcome.progress) break;
    ++stats.stages;

    // Select the transfers out of our owned partitions (same ordering as
    // the oracle) and ship, per selected vertex, its full adjacency row so
    // the receiving owner can install it.
    Packet sel_packet;
    for (const PartId q : owned) {
      const auto selections = select_partition_transfers(
          shard.graph, p, layering.label(), layering.layer(),
          layering.labeled(q), q,
          moves_flat.data() + static_cast<std::size_t>(q) * parts);
      for (std::size_t j = 0; j < parts; ++j) {
        sel_packet.pack_vector(selections[j]);
        for (const VertexId v : selections[j]) {
          const auto nbrs = shard.graph.neighbors(v);
          const auto ws = shard.graph.incident_edge_weights(v);
          sel_packet.pack_vector(
              std::vector<VertexId>(nbrs.begin(), nbrs.end()));
          sel_packet.pack_vector(
              std::vector<double>(ws.begin(), ws.end()));
        }
      }
    }
    const std::vector<Packet> all_selections =
        transport.allgather(std::move(sel_packet));

    // Parse everyone's selections; stash rows for vertices entering our
    // owned partitions whose full row we lack (each vertex moves at most
    // once per stage, so the parse-time residency test is the apply-time
    // one).
    std::vector<std::vector<std::vector<VertexId>>> by_source(parts);
    for (int r = 0; r < transport.num_ranks(); ++r) {
      Packet pk = all_selections[static_cast<std::size_t>(r)];
      for (PartId q = 0; q < p.num_parts; ++q) {
        if (graph::shard_owner(q, transport.num_ranks()) != r) continue;
        auto& rows = by_source[static_cast<std::size_t>(q)];
        rows.resize(parts);
        for (std::size_t j = 0; j < parts; ++j) {
          rows[j] = pk.unpack_vector<VertexId>();
          for (const VertexId v : rows[j]) {
            OverlayRow row;
            row.nbrs = pk.unpack_vector<VertexId>();
            row.weights = pk.unpack_vector<double>();
            if (shard.owns(static_cast<PartId>(j)) &&
                shard.resident[static_cast<std::size_t>(v)] == 0) {
              shard.resident[static_cast<std::size_t>(v)] = 1;
              overlays[v] = std::move(row);
              graph_dirty = true;
              ++stats.rows_migrated;
            }
          }
        }
      }
    }

    // Every rank applies every move to its replica in the oracle's global
    // order (source asc, dest asc, selection order), with the exact
    // subtract-then-add float-op order of PartitionState::move_vertex —
    // replicated W and part stay bit-identical across ranks and to the
    // in-process engine.
    for (std::size_t i = 0; i < parts; ++i) {
      if (by_source[i].empty()) continue;
      for (std::size_t j = 0; j < parts; ++j) {
        for (const VertexId v : by_source[i][j]) {
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
    double max_dev = 0.0;
    for (std::size_t q = 0; q < parts; ++q) {
      max_dev = std::max(max_dev, std::abs(W[q] - targets[q]));
    }
    stats.final_max_deviation = max_dev;
    stats.balanced = max_dev <= options.balance.tolerance;
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
