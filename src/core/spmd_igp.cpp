#include "core/spmd_igp.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <utility>

#include "core/layering.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/shard.hpp"
#include "support/check.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {
namespace {

using graph::PartId;
using graph::VertexId;
using net::Packet;

}  // namespace

// pigp:steady-state
SpmdStageOutcome spmd_balance_handshake(
    net::Transport& transport, const std::vector<PartId>& owned,
    const std::vector<double>& excess, const BalanceOptions& options,
    Workspace& ws) {
  const std::size_t parts = excess.size();
  BoundaryLayering& layering = ws.layering;
  std::vector<std::int64_t>& eps_rows = ws.spmd_eps_rows;
  std::vector<std::int64_t>& moves_flat = ws.spmd_moves_flat;
  LayerDepth depth(options.max_layers);
  layering.grow(depth.budget);

  // Allgather (exhausted flag, owned eps rows); rank 0 applies the stage
  // rule to the assembled capacities and broadcasts either "deepen"
  // (everyone grows and the loop repeats) or the final move matrix —
  // balance_load's loop with communication in the middle.
  const StageDecision& decision = ws.flow.decision;  // rank 0 decides
  while (true) {
    Packet mine;
    mine.pack(layering.exhausted() ? 1 : 0);
    eps_rows.assign(owned.size() * parts, 0);
    for (std::size_t k = 0; k < owned.size(); ++k) {
      const auto row = layering.eps().row(static_cast<std::size_t>(owned[k]));
      std::copy(row.begin(), row.end(), eps_rows.begin() + k * parts);
    }
    mine.pack_vector(eps_rows);
    std::vector<Packet> gathered = transport.allgather(std::move(mine));

    Packet decision_packet;
    if (transport.rank() == 0) {
      bool all_exhausted = true;
      pigp::DenseMatrix<std::int64_t>& eps = ws.spmd_eps;
      eps.assign(parts, parts, 0);
      std::vector<std::int64_t>& rows = ws.spmd_gathered_rows;
      for (int r = 0; r < transport.num_ranks(); ++r) {
        Packet& p = gathered[static_cast<std::size_t>(r)];
        all_exhausted &= p.unpack<int>() != 0;
        p.unpack_vector_into(rows);
        std::size_t k = 0;
        for (PartId q = 0; q < static_cast<PartId>(parts); ++q) {
          if (graph::shard_owner(q, transport.num_ranks()) != r) continue;
          std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(k * parts),
                      parts, eps.row(static_cast<std::size_t>(q)).begin());
          ++k;
        }
      }
      decide_stage(eps, excess, all_exhausted, depth.budget, options, ws.flow);
      decision_packet.pack(decision.deepen ? 1 : 0);
      if (!decision.deepen) {
        decision_packet.pack(decision.progress ? 1 : 0);
        decision_packet.pack_vector(std::span<const std::int64_t>(
            decision.moves.data(), parts * parts));
      }
    }
    Packet received = transport.broadcast(0, std::move(decision_packet));
    if (received.unpack<int>() != 0) {  // deepen
      layering.grow(depth.deepen());
      continue;
    }
    SpmdStageOutcome outcome;
    outcome.progress = received.unpack<int>() != 0;
    if (outcome.progress) received.unpack_vector_into(moves_flat);
    if (transport.rank() == 0) outcome.stage = decision.stats;
    return outcome;
  }
}

IgpResult spmd_repartition_in_place(SpmdExecutor& executor,
                                    const graph::Graph& g_new,
                                    graph::Partitioning& partitioning,
                                    VertexId n_old, const IgpOptions& options,
                                    graph::PartitionState& state,
                                    Workspace& ws,
                                    std::vector<Workspace>& rank_ws) {
  // Step 1: seeded in-place assignment through the maintained state (the
  // SPMD engine replicates the graph, so step 1 is a single global pass).
  extend_assignment_state(g_new, partitioning, n_old, state, ws);

  rank_ws.resize(static_cast<std::size_t>(executor.num_ranks()));
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  std::vector<double>& targets = ws.balance_targets;  // read by every rank
  graph::balance_targets_into(g_new.total_vertex_weight(),
                              partitioning.num_parts, targets);

  IgpResult result;
  // Every rank reseeds its owned partitions' seeds; their counts add up.
  std::atomic<std::int64_t> seeds_analyzed{0};

  // ---------------------------------------------------- balance stages
  executor.run([&](net::Transport& ctx) {
    // Rank-local ownership and resumable layering.  The per-vertex arrays
    // live in this rank's persistent Workspace: bind() refreshes the
    // graph/partitioning pointers and only pays a full reset after an
    // id remap or a shrink, so steady-state stages reset in O(labeled).
    Workspace& mine_ws = rank_ws[static_cast<std::size_t>(ctx.rank())];
    std::vector<PartId>& owned = mine_ws.spmd_owned;
    owned.clear();
    for (PartId q = 0; q < partitioning.num_parts; ++q) {
      if (graph::shard_owner(q, ctx.num_ranks()) == ctx.rank()) {
        owned.push_back(q);
      }
    }
    bool layering_bound = false;
    std::vector<double>& excess = mine_ws.balance_excess;
    excess.assign(parts, 0.0);
    const std::vector<std::int64_t>& moves_flat = mine_ws.spmd_moves_flat;
    std::vector<VertexId>& movers = mine_ws.spmd_movers;  // rank 0's parse

    for (int stage = 0; stage < options.balance.max_stages; ++stage) {
      // Every rank reads the excess off the shared state's maintained
      // weights — O(P), identical on all ranks (rank 0 is the only writer
      // and the stage ends in a barrier).
      if (compute_excess(state.weights(), targets, excess) <=
          options.balance.tolerance) {
        if (ctx.rank() == 0) result.balance_result.balanced = true;
        break;
      }

      // The owned partitions' seed shell, then the shared deepen-vs-decide
      // handshake, which labels deeper layers only on request.
      BoundaryLayering& layering = mine_ws.layering;
      if (!layering_bound) {
        layering.bind(g_new, partitioning);
        layering_bound = true;
      }
      // Each rank fills only its owned partitions' slots of the shared
      // state's analysis cache.
      seeds_analyzed += layering.reseed(state, &owned);
      const SpmdStageOutcome outcome =
          spmd_balance_handshake(ctx, owned, excess, options.balance, mine_ws);
      if (!outcome.progress) break;
      if (ctx.rank() == 0) {
        result.balance_result.stages.push_back(outcome.stage);
      }

      // Each rank selects the transfers out of its owned partitions with
      // the same ordering as the shared-memory driver (selection reads the
      // pre-move `partitioning` state).  The selections are then gathered
      // and rank 0 applies every move through the state in the flat
      // driver's order (source asc, dest asc, selection order) so the
      // aggregates and the boundary index evolve bit-identically.
      Packet sel_packet;
      TransferScratch& transfer = mine_ws.transfer;
      for (const PartId q : owned) {
        const std::int64_t* move_row =
            moves_flat.data() + static_cast<std::size_t>(q) * parts;
        transfer.chosen.clear();
        select_partition_transfers(g_new, partitioning, layering.label(),
                                   layering.layer(), layering.labeled(q), q,
                                   move_row, transfer);
        // Destination j's movers are the next move_row[j] chosen vertices.
        std::span<const VertexId> rest = transfer.chosen;
        for (std::size_t j = 0; j < parts; ++j) {
          const auto count =
              static_cast<std::size_t>(std::max<std::int64_t>(move_row[j], 0));
          sel_packet.pack_vector(rest.first(count));
          rest = rest.subspan(count);
        }
      }
      std::vector<Packet> all_selections = ctx.allgather(std::move(sel_packet));
      if (ctx.rank() == 0) {
        // Every rank packed its owned sources in ascending order, so
        // walking q ascending and reading q's rows from its owner's packet
        // visits the moves in the global order.  Selection read only the
        // pre-move assignment and each vertex moves at most once per
        // stage, so applying while parsing changes nothing.
        for (PartId q = 0; q < partitioning.num_parts; ++q) {
          const int owner = graph::shard_owner(q, ctx.num_ranks());
          Packet& rows = all_selections[static_cast<std::size_t>(owner)];
          for (std::size_t j = 0; j < parts; ++j) {
            rows.unpack_vector_into(movers);
            for (const VertexId v : movers) {
              state.move_vertex(g_new, partitioning, v,
                                static_cast<PartId>(j));
            }
          }
        }
      }
      ctx.barrier();  // all transfers + state updates visible everywhere
    }
  });

  BalanceResult& balance = result.balance_result;
  balance.seeds_analyzed = seeds_analyzed.load();
  if (!balance.balanced) {
    // Final deviation for reporting — O(P) off the maintained weights.
    std::vector<double>& excess = ws.balance_excess;
    excess.assign(parts, 0.0);
    balance.final_max_deviation =
        compute_excess(state.weights(), targets, excess);
    balance.balanced = balance.final_max_deviation <= options.balance.tolerance;
  }

  // ---------------------------------------------------- refinement
  // Refinement runs the shared-memory path unchanged, after the ranks'
  // balance stages.
  if (options.refine) {
    result.refine_stats = refine_partitioning(g_new, partitioning, state,
                                              options.refinement, &ws);
  }
  return result;
}

}  // namespace pigp::core
