#include "core/workspace.hpp"

namespace pigp::core {

void Workspace::invalidate_vertex_ids() {
  layering.invalidate();
  ++remap_generation;
}

void Workspace::release_memory() {
  assign_distance.release();
  assign_label.release();
  std::vector<graph::VertexId>().swap(assign_frontier);
  std::vector<graph::VertexId>().swap(assign_next);
  std::vector<double>().swap(balance_targets);
  std::vector<double>().swap(balance_excess);
  layering.release();
  transfer = TransferScratch();
  flow = FlowWorkspace();
  std::vector<graph::VertexId>().swap(refine_boundary);
  refine_tally = PartTally();
  refine_candidates = pigp::DenseMatrix<std::vector<GainCandidate>>();
  std::vector<GainCandidate>().swap(refine_selection);
  std::vector<graph::PartId>().swap(spmd_owned);
  std::vector<std::int64_t>().swap(spmd_eps_rows);
  std::vector<std::int64_t>().swap(spmd_gathered_rows);
  spmd_eps = pigp::DenseMatrix<std::int64_t>();
  std::vector<std::int64_t>().swap(spmd_moves_flat);
  std::vector<graph::VertexId>().swap(spmd_movers);
}

}  // namespace pigp::core
