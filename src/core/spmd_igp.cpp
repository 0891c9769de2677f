#include "core/spmd_igp.hpp"

#include <algorithm>
#include <cmath>
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

SpmdStageOutcome spmd_balance_handshake(
    net::Transport& transport, BoundaryLayering& layering,
    const std::vector<PartId>& owned, const std::vector<double>& excess,
    const BalanceOptions& options, std::vector<std::int64_t>& eps_rows,
    std::vector<std::int64_t>& moves_flat) {
  const std::size_t parts = excess.size();
  LayerDepth depth(options.max_layers);
  layering.grow(depth.budget, 1);

  // Allgather (exhausted flag, owned eps rows); rank 0 applies the stage
  // rule to the assembled capacities and broadcasts either "deepen"
  // (everyone grows and the loop repeats) or the final move matrix —
  // balance_load's loop with communication in the middle.
  StageDecision decision;
  while (true) {
    Packet mine;
    mine.pack(layering.exhausted() ? 1 : 0);
    eps_rows.assign(owned.size() * parts, 0);
    for (std::size_t k = 0; k < owned.size(); ++k) {
      const auto row = layering.eps().row(static_cast<std::size_t>(owned[k]));
      std::copy(row.begin(), row.end(), eps_rows.begin() + k * parts);
    }
    mine.pack_vector(eps_rows);
    const std::vector<Packet> gathered = transport.allgather(std::move(mine));

    Packet decision_packet;
    if (transport.rank() == 0) {
      bool all_exhausted = true;
      pigp::DenseMatrix<std::int64_t> eps(parts, parts, 0);
      for (int r = 0; r < transport.num_ranks(); ++r) {
        Packet p = gathered[static_cast<std::size_t>(r)];
        all_exhausted &= p.unpack<int>() != 0;
        const std::vector<std::int64_t> rows = p.unpack_vector<std::int64_t>();
        std::size_t k = 0;
        for (PartId q = 0; q < static_cast<PartId>(parts); ++q) {
          if (graph::shard_owner(q, transport.num_ranks()) != r) continue;
          for (std::size_t j = 0; j < parts; ++j) {
            eps(static_cast<std::size_t>(q), j) = rows[k * parts + j];
          }
          ++k;
        }
      }
      decision = decide_stage(eps, excess, all_exhausted, depth.budget,
                              options);
      decision_packet.pack(decision.deepen ? 1 : 0);
      if (!decision.deepen) {
        decision_packet.pack(decision.progress ? 1 : 0);
        moves_flat.assign(decision.moves.data(),
                          decision.moves.data() + parts * parts);
        decision_packet.pack_vector(moves_flat);
      }
    }
    Packet received = transport.broadcast(0, std::move(decision_packet));
    if (received.unpack<int>() != 0) {  // deepen
      layering.grow(depth.deepen(), 1);
      continue;
    }
    SpmdStageOutcome outcome;
    outcome.progress = received.unpack<int>() != 0;
    if (outcome.progress) {
      moves_flat = received.unpack_vector<std::int64_t>();
    }
    outcome.stage = decision.stats;
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
  AssignOptions assign_options;
  assign_options.num_threads = 1;
  extend_assignment_state(g_new, partitioning, n_old, state, ws,
                          assign_options);

  rank_ws.resize(static_cast<std::size_t>(executor.num_ranks()));
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  const std::vector<double> targets = graph::balance_targets(
      g_new.total_vertex_weight(), partitioning.num_parts);

  IgpResult result;

  // ---------------------------------------------------- balance stages
  executor.run([&](net::Transport& ctx) {
    // Rank-local ownership and resumable layering.  The per-vertex arrays
    // live in this rank's persistent Workspace: bind() refreshes the
    // graph/partitioning pointers and only pays a full reset after an
    // id remap or a shrink, so steady-state stages reset in O(labeled).
    Workspace& mine_ws = rank_ws[static_cast<std::size_t>(ctx.rank())];
    std::vector<PartId> owned;
    for (PartId q = 0; q < partitioning.num_parts; ++q) {
      if (graph::shard_owner(q, ctx.num_ranks()) == ctx.rank()) {
        owned.push_back(q);
      }
    }
    bool layering_bound = false;
    std::vector<double> excess(parts, 0.0);
    std::vector<std::int64_t>& moves_flat = mine_ws.spmd_moves_flat;

    for (int stage = 0; stage < options.balance.max_stages; ++stage) {
      // Every rank reads the excess off the shared state's maintained
      // weights — O(P), identical on all ranks (rank 0 is the only writer
      // and the stage ends in a barrier).
      if (compute_excess(state.weights(), targets, excess) <=
          options.balance.tolerance) {
        if (ctx.rank() == 0) result.balance_result.balanced = true;
        break;
      }

      // Boundary-seeded, depth-capped layering of the owned partitions,
      // then the shared deepen-vs-decide handshake.
      BoundaryLayering& layering = mine_ws.layering;
      if (!layering_bound) {
        layering.bind(g_new, partitioning);
        layering_bound = true;
      }
      layering.reseed(state, 1, &owned);
      const SpmdStageOutcome outcome = spmd_balance_handshake(
          ctx, layering, owned, excess, options.balance, mine_ws.spmd_eps_rows,
          moves_flat);
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
      for (const PartId q : owned) {
        const auto selections = select_partition_transfers(
            g_new, partitioning, layering.label(), layering.layer(),
            layering.labeled(q), q,
            moves_flat.data() + static_cast<std::size_t>(q) * parts);
        for (std::size_t j = 0; j < parts; ++j) {
          sel_packet.pack_vector(selections[j]);
        }
      }
      const std::vector<Packet> all_selections =
          ctx.allgather(std::move(sel_packet));
      if (ctx.rank() == 0) {
        std::vector<std::vector<std::vector<VertexId>>> by_source(parts);
        for (int r = 0; r < ctx.num_ranks(); ++r) {
          Packet p = all_selections[static_cast<std::size_t>(r)];
          for (PartId q = 0; q < partitioning.num_parts; ++q) {
            if (graph::shard_owner(q, ctx.num_ranks()) != r) continue;
            auto& rows = by_source[static_cast<std::size_t>(q)];
            rows.resize(parts);
            for (std::size_t j = 0; j < parts; ++j) {
              rows[j] = p.unpack_vector<VertexId>();
            }
          }
        }
        for (std::size_t i = 0; i < parts; ++i) {
          if (by_source[i].empty()) continue;
          for (std::size_t j = 0; j < parts; ++j) {
            for (const VertexId v : by_source[i][j]) {
              state.move_vertex(g_new, partitioning, v,
                                static_cast<PartId>(j));
            }
          }
        }
      }
      ctx.barrier();  // all transfers + state updates visible everywhere
    }
  });

  result.stages = static_cast<int>(result.balance_result.stages.size());
  result.balanced = result.balance_result.balanced;
  if (!result.balanced) {
    // Final deviation for reporting — O(P) off the maintained weights.
    double max_dev = 0.0;
    for (std::size_t q = 0; q < parts; ++q) {
      max_dev = std::max(max_dev, std::abs(state.weights()[q] - targets[q]));
    }
    result.balance_result.final_max_deviation = max_dev;
    result.balanced = max_dev <= options.balance.tolerance;
    result.balance_result.balanced = result.balanced;
  }

  // ---------------------------------------------------- refinement
  // The refinement LP is identical to the shared-memory path; candidate
  // gathering is the parallel part and reuses the OpenMP implementation.
  if (options.refine) {
    result.refine_stats = refine_partitioning(g_new, partitioning, state,
                                              options.refinement, &ws);
  }
  return result;
}

IgpResult spmd_repartition(SpmdExecutor& executor, const graph::Graph& g_new,
                           const graph::Partitioning& old_partitioning,
                           VertexId n_old, const IgpOptions& options,
                           graph::PartitionState* state) {
  graph::Partitioning working = old_partitioning;
  graph::PartitionState local_state;
  if (state == nullptr) {
    seed_extension_state(g_new, working, local_state);
    state = &local_state;
  }
  Workspace ws;
  std::vector<Workspace> rank_ws;
  IgpResult result = spmd_repartition_in_place(
      executor, g_new, working, n_old, options, *state, ws, rank_ws);
  result.partitioning = std::move(working);
  return result;
}

}  // namespace pigp::core
