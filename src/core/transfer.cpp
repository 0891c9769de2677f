#include "core/transfer.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pigp::core {

std::vector<std::vector<graph::VertexId>> select_partition_transfers(
    const graph::Graph& g, const graph::Partitioning& partitioning,
    const std::vector<graph::PartId>& label,
    const std::vector<std::int32_t>& layer,
    const std::vector<graph::VertexId>& members, graph::PartId source,
    const std::int64_t* move_row) {
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  std::vector<std::vector<graph::VertexId>> chosen(parts);

  // Bucket this partition's movable vertices by destination label.
  std::vector<std::vector<graph::VertexId>> buckets(parts);
  for (const graph::VertexId v : members) {
    const graph::PartId to = label[static_cast<std::size_t>(v)];
    if (to >= 0 && move_row[static_cast<std::size_t>(to)] > 0) {
      buckets[static_cast<std::size_t>(to)].push_back(v);
    }
  }

  for (std::size_t j = 0; j < parts; ++j) {
    const std::int64_t count = move_row[j];
    if (count <= 0) continue;
    auto& bucket = buckets[j];
    PIGP_CHECK(static_cast<std::int64_t>(bucket.size()) >= count,
               "LP requested more transfers than labeled vertices");

    // Attraction to the destination: edge weight into j minus half the edge
    // weight kept inside the source — within a layer, peel the vertices
    // that most belong to the receiving boundary.
    std::vector<double> attraction(bucket.size(), 0.0);
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const graph::VertexId v = bucket[k];
      const auto nbrs = g.neighbors(v);
      const auto weights = g.incident_edge_weights(v);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const graph::PartId q =
            partitioning.part[static_cast<std::size_t>(nbrs[e])];
        if (q == static_cast<graph::PartId>(j)) {
          attraction[k] += weights[e];
        } else if (q == source) {
          attraction[k] -= 0.5 * weights[e];
        }
      }
    }
    std::vector<std::size_t> order(bucket.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto la = layer[static_cast<std::size_t>(bucket[a])];
      const auto lb = layer[static_cast<std::size_t>(bucket[b])];
      if (la != lb) return la < lb;
      if (attraction[a] != attraction[b]) return attraction[a] > attraction[b];
      return bucket[a] < bucket[b];
    });
    chosen[j].reserve(static_cast<std::size_t>(count));
    for (std::int64_t k = 0; k < count; ++k) {
      chosen[j].push_back(bucket[order[static_cast<std::size_t>(k)]]);
    }
  }
  return chosen;
}

void apply_balance_transfers(const graph::Graph& g,
                             graph::Partitioning& partitioning,
                             const BoundaryLayering& layering,
                             const pigp::DenseMatrix<std::int64_t>& moves,
                             graph::PartitionState& state) {
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  PIGP_CHECK(moves.rows() == parts && moves.cols() == parts,
             "move matrix shape mismatch");

  // Select everything first against the pre-move state, then write.  Only
  // labeled vertices can be selected, so the labeled lists stand in for
  // full member lists.
  std::vector<std::vector<std::vector<graph::VertexId>>> selections(parts);
  for (std::size_t i = 0; i < parts; ++i) {
    selections[i] = select_partition_transfers(
        g, partitioning, layering.label(), layering.layer(),
        layering.labeled(static_cast<graph::PartId>(i)),
        static_cast<graph::PartId>(i), moves.row(i).data());
  }
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      for (const graph::VertexId v : selections[i][j]) {
        state.move_vertex(g, partitioning, v,
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
