#pragma once

/// \file partition.hpp
/// Partition assignments and the quality metrics the paper reports.
///
/// A partitioning is the mapping M : V -> P of §1.1.  The evaluation tables
/// (Figures 11 and 14) report, per partitioner, the "Cutset" columns
/// Total / Max / Min:
///   * Total — the number of distinct cross-partition edges (each counted
///     once; ~734 for mesh A at P=32),
///   * Max / Min — the largest and smallest per-partition boundary cost
///     C(q) = Σ w_e(v_i, v_j) over edges leaving partition q (eq. 2).
/// Load balance is W(q) = Σ w_i over vertices of q (eq. 1).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pigp::graph {

/// Partition index; dense in [0, num_parts).
using PartId = std::int32_t;

inline constexpr PartId kUnassigned = -1;

/// Vertex-to-partition assignment.
struct Partitioning {
  std::vector<PartId> part;  ///< one entry per vertex
  PartId num_parts = 0;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(part.size());
  }
  /// Throws if any entry is outside [0, num_parts) or sizes mismatch \p g.
  void validate(const Graph& g) const;
};

/// Scalar quality summary of a partitioning.  Producing one (e.g. per
/// absorbed delta in a SessionReport) allocates nothing; callers that need
/// the per-partition breakdown ask for a full PartitionMetrics.
struct PartitionSummary {
  double cut_total = 0.0;   ///< cross edges, each counted once (weighted)
  double cut_max = 0.0;     ///< max over partitions of boundary cost C(q)
  double cut_min = 0.0;     ///< min over partitions of boundary cost C(q)
  double max_weight = 0.0;
  double min_weight = 0.0;
  double avg_weight = 0.0;
  /// max W(q) / average W — 1.0 is perfect balance.
  double imbalance = 0.0;
};

/// Quality summary of a partitioning: the scalars plus the O(P)
/// per-partition vectors.
struct PartitionMetrics : PartitionSummary {
  std::vector<double> boundary_cost;  ///< C(q) per partition
  std::vector<double> weight;         ///< W(q) per partition
};

/// Full O(V+E) rescan; implemented as PartitionState::rebuild + snapshot
/// (partition_state.hpp), which is also the O(Δ)-maintained incremental
/// path — both share one definition of every metric.  Edge cases (same
/// contract on both paths): a graph whose total vertex weight is zero
/// reports avg_weight == 0 and the imbalance fallback 1.0; self-loop edges
/// contribute nothing to boundary costs or the cut (Graph::validate
/// rejects them structurally, and both metric paths skip them anyway).
[[nodiscard]] PartitionMetrics compute_metrics(const Graph& g,
                                               const Partitioning& p);

/// Load-balance targets: per-partition integral weight targets that sum to
/// the total weight, differing by at most one for unit weights (largest
/// remainder apportionment of total/num_parts).
[[nodiscard]] std::vector<double> balance_targets(double total_weight,
                                                  PartId num_parts);

/// Same, written into \p out (resized to num_parts) — the allocation-free
/// variant the steady-state balance driver calls with a pooled buffer.
void balance_targets_into(double total_weight, PartId num_parts,
                          std::vector<double>& out);

/// True when every partition weight is within \p tolerance of its target.
[[nodiscard]] bool is_balanced(const Graph& g, const Partitioning& p,
                               double tolerance = 1.0);

}  // namespace pigp::graph
