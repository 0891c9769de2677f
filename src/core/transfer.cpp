#include "core/transfer.hpp"

#include <algorithm>
#include <cstddef>

#include "support/check.hpp"

namespace pigp::core {

// pigp:steady-state
void select_partition_transfers(const graph::Graph& g,
                                const graph::Partitioning& partitioning,
                                const std::vector<graph::PartId>& label,
                                const std::vector<std::int32_t>& layer,
                                const std::vector<graph::VertexId>& members,
                                graph::PartId source,
                                const std::int64_t* move_row,
                                TransferScratch& scratch) {
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  auto& buckets = scratch.buckets;
  if (buckets.size() < parts) buckets.resize(parts);
  for (std::size_t j = 0; j < parts; ++j) {
    if (move_row[j] > 0) buckets[j].clear();
  }

  // Bucket this partition's movable vertices by destination label.
  for (const graph::VertexId v : members) {
    const graph::PartId to = label[static_cast<std::size_t>(v)];
    if (to >= 0 && move_row[static_cast<std::size_t>(to)] > 0) {
      buckets[static_cast<std::size_t>(to)].push_back(v);
    }
  }

  for (std::size_t j = 0; j < parts; ++j) {
    const std::int64_t count = move_row[j];
    if (count <= 0) continue;
    const auto& bucket = buckets[j];
    PIGP_CHECK(static_cast<std::int64_t>(bucket.size()) >= count,
               "LP requested more transfers than labeled vertices");

    // Attraction to the destination: edge weight into j minus half the edge
    // weight kept inside the source — within a layer, peel the vertices
    // that most belong to the receiving boundary.
    auto& ranked = scratch.ranked;
    ranked.resize(bucket.size());
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const graph::VertexId v = bucket[k];
      const auto nbrs = g.neighbors(v);
      const auto weights = g.incident_edge_weights(v);
      double attraction = 0.0;
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const graph::PartId q =
            partitioning.part[static_cast<std::size_t>(nbrs[e])];
        if (q == static_cast<graph::PartId>(j)) {
          attraction += weights[e];
        } else if (q == source) {
          attraction -= 0.5 * weights[e];
        }
      }
      // The LP counts vertices but the excess is weight: a vertex heavier
      // than the whole request overshoots it, and near balance the same
      // heavy vertex would bounce between two partitions stage after
      // stage.  Within a layer it goes last (never, on unit weights).
      const bool overshoots = g.vertex_weight(v) > static_cast<double>(count);
      ranked[k] = {layer[static_cast<std::size_t>(v)], overshoots, attraction,
                   v};
    }
    // (layer asc, overshoots last, attraction desc, vertex asc) is a strict
    // total order, so the first `count` are the same vertices in the same
    // order as a full sort.
    const auto last = ranked.begin() + static_cast<std::ptrdiff_t>(count);
    std::partial_sort(
        ranked.begin(), last, ranked.end(),
        [](const TransferScratch::Ranked& a, const TransferScratch::Ranked& b) {
          if (a.layer != b.layer) return a.layer < b.layer;
          if (a.overshoots != b.overshoots) return b.overshoots;
          if (a.attraction != b.attraction) return a.attraction > b.attraction;
          return a.vertex < b.vertex;
        });
    for (auto it = ranked.begin(); it != last; ++it) {
      scratch.chosen.push_back(it->vertex);
    }
  }
}

// pigp:steady-state
void apply_balance_transfers(const graph::Graph& g,
                             graph::Partitioning& partitioning,
                             const BoundaryLayering& layering,
                             const pigp::DenseMatrix<std::int64_t>& moves,
                             graph::PartitionState& state,
                             TransferScratch* scratch) {
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  PIGP_CHECK(moves.rows() == parts && moves.cols() == parts,
             "move matrix shape mismatch");
  TransferScratch local;
  TransferScratch& s = scratch != nullptr ? *scratch : local;

  // Select everything first against the pre-move state, then write.  Only
  // labeled vertices can be selected, so the labeled lists stand in for
  // full member lists.  The selections land in s.chosen in (source asc,
  // dest asc) blocks of moves(i, j) vertices each.
  s.chosen.clear();
  for (std::size_t i = 0; i < parts; ++i) {
    select_partition_transfers(
        g, partitioning, layering.label(), layering.layer(),
        layering.labeled(static_cast<graph::PartId>(i)),
        static_cast<graph::PartId>(i), moves.row(i).data(), s);
  }
  auto next = s.chosen.begin();
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      for (std::int64_t k = 0; k < moves(i, j); ++k) {
        state.move_vertex(g, partitioning, *next++,
                          static_cast<graph::PartId>(j));
      }
    }
  }
}

// pigp:steady-state
void apply_gain_transfers(
    const graph::Graph& g, graph::Partitioning& partitioning,
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    const pigp::DenseMatrix<std::int64_t>& moves,
    graph::PartitionState& state, std::vector<GainCandidate>& selection) {
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  PIGP_CHECK(moves.rows() == parts && moves.cols() == parts,
             "move matrix shape mismatch");
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      const std::int64_t count = moves(i, j);
      if (count <= 0) continue;
      const std::vector<GainCandidate>& list = candidates(i, j);
      PIGP_CHECK(static_cast<std::int64_t>(list.size()) >= count,
                 "LP requested more transfers than candidates");
      // (gain desc, vertex asc) is a strict total order, so the first
      // `count` are the same vertices in the same order as a full sort.
      selection.resize(static_cast<std::size_t>(count));
      std::partial_sort_copy(
          list.begin(), list.end(), selection.begin(), selection.end(),
          [](const GainCandidate& a, const GainCandidate& b) {
            if (a.gain != b.gain) return a.gain > b.gain;
            return a.vertex < b.vertex;
          });
      for (const GainCandidate& c : selection) {
        state.move_vertex(g, partitioning, c.vertex,
                          static_cast<graph::PartId>(j));
      }
    }
  }
}

}  // namespace pigp::core
