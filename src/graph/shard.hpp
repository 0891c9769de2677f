#pragma once

/// \file shard.hpp
/// Key-range sharded graph loading for multi-process SPMD workers.
///
/// The distributed worker (core/spmd_worker) keeps the *adjacency payload*
/// — the O(E) term that dominates graph memory — sharded: rank r holds the
/// full adjacency rows only of the vertices in the partitions it owns
/// (partition q belongs to rank q % num_ranks, matching the SPMD engine's
/// round-robin ownership), plus the reverse "halo" edges pointing back at
/// them from non-resident neighbors.  The O(V) scalar vectors (partition
/// ids, vertex weights) stay replicated — the paper's CM-5 implementation
/// replicated exactly those small arrays too — so the per-rank footprint
/// is O(V + E/ranks + boundary) with the E term sharded.
///
/// Sharding is *by key range* in the intended deployment: the initial
/// partitioning handed to the loader is contiguous
/// (contiguous_partitioning below), so each worker streams the METIS file
/// and keeps a contiguous slice of adjacency rows.  The structures are
/// partitioning-agnostic, though: any replicated initial partitioning
/// works, and the worker protocol migrates adjacency rows as the balancer
/// moves vertices between ranks.
///
/// Parity invariants (the reason the shard keeps GLOBAL vertex ids and
/// whole rows rather than compacting):
///   * resident rows are byte-identical to the full graph's rows — the
///     layering's floating tally sums follow stored row order — and every
///     id keeps the full graph's vertex key, which its tie-breaks hash
///     (make_shard copies the keys; a shard loaded from a METIS file,
///     like the full graph read from it, has key = id);
///   * a vertex in an owned partition always has its full row resident
///     (the worker maintains this across migrations);
///   * halo rows keep only edges into resident vertices, which preserves
///     symmetry: a loaded shard passes Graph::validate(), and so does a
///     shard after migration — the worker installs a migrated row in place
///     with its reverse half-edges, which join the halo, so
///     resident_half_edges + halo_half_edges == graph.num_half_edges().

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace pigp::graph {

/// Rank that owns partition \p q — must match the SPMD engine's
/// round-robin ownership (core/spmd_igp) or parity dies.
[[nodiscard]] inline int shard_owner(PartId q, int num_ranks) {
  return static_cast<int>(q) % num_ranks;
}

/// Contiguous key-range partitioning of [0, n): partition q covers one
/// consecutive id range.  \p skew = 0 splits evenly; \p skew > 0 makes
/// range sizes proportional to 1 + skew * q, so the demo starts visibly
/// imbalanced and the LP balancer has real work to show.
[[nodiscard]] Partitioning contiguous_partitioning(VertexId n, PartId parts,
                                                   double skew = 0.0);

/// One worker's resident slice of a graph; see the file comment for the
/// residency and parity invariants.
struct GraphShard {
  int rank = 0;
  int num_ranks = 1;
  /// Partitions this rank owns (q % num_ranks == rank), ascending.
  std::vector<PartId> owned_parts;
  /// Full-vertex-count CSR: resident vertices carry their complete rows,
  /// non-resident vertices only their halo edges (and most carry none).
  Graph graph;
  /// Replicated initial partitioning the shard was cut against.
  Partitioning partitioning;
  /// resident[v] != 0 iff v's full adjacency row is present.
  std::vector<std::uint8_t> resident;
  /// Directed edge counts: resident rows, halo rows, and the full graph
  /// (the O(V/ranks + boundary) memory claim made measurable).
  std::int64_t resident_half_edges = 0;
  std::int64_t halo_half_edges = 0;
  std::int64_t total_half_edges = 0;

  [[nodiscard]] bool owns(PartId q) const {
    return shard_owner(q, num_ranks) == rank;
  }
};

/// Stream a METIS graph, keeping only rank \p rank's slice under \p p
/// (replicated; p.part.size() must equal the header's vertex count).
/// Non-resident lines are parsed and dropped save for halo edges and the
/// vertex weight, so peak memory tracks the shard, not the graph.  The
/// shard is validated (Graph::validate) like make_shard's, so self-loops
/// and unsorted or asymmetric rows throw pigp::CheckError.
[[nodiscard]] GraphShard load_shard(std::istream& is, const Partitioning& p,
                                    int rank, int num_ranks);

[[nodiscard]] GraphShard load_shard_file(const std::string& path,
                                         const Partitioning& p, int rank,
                                         int num_ranks);

/// Cut a shard from an in-memory graph — the single-process path used by
/// tests and the in-process oracle (bit-identical to load_shard of the
/// same graph's METIS serialization).
[[nodiscard]] GraphShard make_shard(const Graph& g, const Partitioning& p,
                                    int rank, int num_ranks);

}  // namespace pigp::graph
