#pragma once

/// \file bench_common.hpp
/// Shared helpers for the paper-table reproduction binaries.

#include <iostream>
#include <string>

#include "api/config.hpp"
#include "core/igp.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "spectral/partitioners.hpp"
#include "support/table.hpp"

namespace pigp::bench {

/// Number of partitions used throughout the paper's evaluation.
inline constexpr graph::PartId kPaperPartitions = 32;

/// Threads for the "Time-p" columns (the paper used a 32-node CM-5; we use
/// min(32, hardware) worker threads).
inline int parallel_threads() {
  return std::min(32, runtime::ThreadPool::hardware_threads());
}

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

/// Fully-propagated IgpOptions via the canonical SessionConfig::resolve()
/// derivation path.
inline core::IgpOptions make_igp_options(graph::PartId num_parts, bool refine,
                                         int threads) {
  SessionConfig config;
  config.num_parts = num_parts;
  config.backend = refine ? "igpr" : "igp";
  config.num_threads = threads;
  core::IgpOptions options = config.resolve().igp;
  options.refine = refine;
  return options;
}

/// One IGP/IGPR repartitioning, timed.
inline TimedPartition run_igp(const graph::Graph& g_new,
                              const graph::Partitioning& old_p,
                              graph::VertexId n_old, bool refine,
                              int threads) {
  const core::IgpOptions options =
      make_igp_options(old_p.num_parts, refine, threads);
  const core::IncrementalPartitioner igp(options);
  runtime::WallTimer timer;
  TimedPartition out;
  core::IgpResult result = igp.repartition(g_new, old_p, n_old);
  out.seconds = timer.seconds();
  out.partitioning = std::move(result.partitioning);
  out.stages = result.stages;
  return out;
}

inline std::string fmt_cut(const graph::PartitionMetrics& m) {
  return std::to_string(static_cast<long long>(m.cut_total));
}

}  // namespace pigp::bench
