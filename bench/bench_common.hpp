#pragma once

/// \file bench_common.hpp
/// Shared helpers for the paper-table reproduction binaries.

#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "api/backend.hpp"
#include "api/config.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "runtime/timer.hpp"
#include "spectral/partitioners.hpp"
#include "support/table.hpp"

namespace pigp::bench {

/// Number of partitions used throughout the paper's evaluation.
inline constexpr graph::PartId kPaperPartitions = 32;

struct TimedPartition {
  graph::Partitioning partitioning;
  double seconds = 0.0;
  int stages = 0;
};

/// Recursive spectral bisection from scratch, timed (the SB rows).
inline TimedPartition run_sb(const graph::Graph& g, graph::PartId parts) {
  runtime::WallTimer timer;
  TimedPartition out;
  out.partitioning = spectral::recursive_spectral_bisection(g, parts);
  out.seconds = timer.seconds();
  return out;
}

/// The backend \p config names, with its options derived by the canonical
/// SessionConfig::resolve() path.
inline std::unique_ptr<Backend> make_backend(const SessionConfig& config) {
  return BackendRegistry::global().create(config.backend, config.resolve());
}

/// One IGP/IGPR repartitioning through Backend::repartition's copying
/// front end (copy + state seed + pipeline), timed.
inline TimedPartition run_igp(const graph::Graph& g_new,
                              const graph::Partitioning& old_p,
                              graph::VertexId n_old, bool refine) {
  SessionConfig config;
  config.num_parts = old_p.num_parts;
  config.backend = refine ? "igpr" : "igp";
  const std::unique_ptr<Backend> backend = make_backend(config);
  runtime::WallTimer timer;
  TimedPartition out;
  BackendResult result = backend->repartition(g_new, old_p, n_old);
  out.seconds = timer.seconds();
  out.partitioning = std::move(result.partitioning);
  out.stages = static_cast<int>(result.balance_result.stages.size());
  return out;
}

inline std::string fmt_cut(const graph::PartitionMetrics& m) {
  return std::to_string(static_cast<long long>(m.cut_total));
}

}  // namespace pigp::bench
