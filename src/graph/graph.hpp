#pragma once

/// \file graph.hpp
/// Undirected graph in slotted (blocked) adjacency form — mutable in O(Δ).
///
/// This is the substrate every other pigp module builds on: the meshes from
/// pigp::mesh are converted to Graphs, the spectral and incremental
/// partitioners consume Graphs, and GraphDelta (delta.hpp) mutates or
/// rebuilds them.  Vertices carry computation weights w_i and edges carry
/// communication weights w_e(u,v) exactly as in §1.1 of Ou & Ranka.
///
/// Representation.  Historically this was an immutable CSR; the streaming
/// path's O(V+E) wall was the rebuild a structural delta forced.  The graph
/// is now *slotted*: every vertex owns a row [row_begin_[v],
/// row_begin_[v] + row_len_[v]) inside shared adjacency slabs, with
/// row_cap_[v] >= row_len_[v] slots of capacity; the cap - len free slots
/// of a row are its *reserve*.  Construction from CSR produces tight rows
/// (cap == len, slabs == CSR arrays, no overhead); compact() leaves each
/// row a reserve of len/4.  A row that outgrows its capacity is relocated
/// to the end of the slab with doubled capacity (the *overflow arena*),
/// leaving its old slots behind as *garbage*, and a removed vertex leaves
/// its whole row behind the same way.  Garbage is the only memory the
/// graph loses: a slot freed by remove_edge stays in its row's reserve.
/// Rows stay sorted by neighbor id, so every read-side guarantee
/// of the CSR era still holds: neighbors()/incident_edge_weights() return
/// contiguous sorted spans, has_edge()/edge_weight() binary-search.
///
/// Mutation contract (all bounds independent of |V| and |E|):
///   * insert_edge(u, v, w): amortized O(deg(u) + deg(v)) — a sorted
///     in-row insertion, plus an occasional relocation whose cost is
///     amortized by the doubling capacity;
///   * remove_edge(u, v): O(deg(u) + deg(v));
///   * add_vertex(w): amortized O(1);
///   * remove_vertex(v): O(Σ_{u ∈ N(v)} deg(u)) — each incident edge is
///     also removed from the neighbor's row.  A removed vertex becomes a
///     *dead* (tombstoned) id: it keeps its slot in the id space, is not
///     live(), has weight 0 and an empty row.  Dead vertices are therefore
///     completely isolated — no adjacency walk can ever reach one — which
///     is the invariant that lets every boundary-local pipeline phase run
///     unmodified over a graph with tombstones.
///   * compact(): O(V + E) — rewrites the graph into fresh slabs, dropping
///     dead ids and garbage, with a reserve of len/4 per row so that the
///     next inserts do not all relocate, and slab capacity for a quarter
///     more slots so that the next relocations do not reallocate the
///     slab.  The mapping is order-preserving (surviving vertices keep
///     their relative order), matching the id-compaction convention of
///     apply_delta.
///
/// Memory bound.  adjacency_slack() counts garbage only, so a caller that
/// compacts once garbage exceeds a fraction s < 1 of the slab (Session's
/// deferred trigger) has slab <= (Σ_v row_cap(v)) / (1 - s) after every
/// check.  A row's capacity is at most max(4, 2 · its peak degree since
/// the last compaction): compaction leaves 1.25 · len, and a row relocates
/// only when full, to twice its capacity (an empty row goes to 4).  A
/// relocation of a full row abandons as many slots as the reserve it
/// opens, so the reserve that relocations create never outgrows the
/// garbage the trigger already bounds.
///
/// Vertex keys.  Every vertex also carries a *birth key*: its id at the
/// moment it was created.  The CSR constructor gives vertex v key v and
/// sets the key counter to n; add_vertex takes the counter and advances
/// it; compact() moves each key with its vertex and leaves the counter
/// alone.  A key therefore never changes while its vertex lives, no two
/// vertices created by one graph's history share a key (until 2^32
/// creations wrap the counter), and on a graph that never compacted the
/// key equals the id.  Copies carry the keys.  The layering's tie-break
/// hashes the key, not the id, so a compaction cannot change a decision.
/// Anything that rebuilds a graph from an existing one and must keep its
/// decisions carries the keys explicitly (apply_delta, Session's
/// extension path, make_shard); a graph read back from a METIS file
/// starts over with key = id.
///
/// Aggregates (num_edges, total_vertex_weight, adjacency_slack) are
/// maintained incrementally; the first two count live vertices/edges only.
///
/// Thread safety: const member functions are safe to call concurrently;
/// any mutation requires exclusive access (same rule as the containers it
/// is built from).

#include <cstdint>
#include <span>
#include <vector>

namespace pigp::graph {

/// Vertex identifier; dense in [0, num_vertices()).  With deferred
/// compaction some ids in that range may be dead — see is_live().
using VertexId = std::int32_t;
/// Index into the adjacency slabs.
using EdgeIndex = std::int64_t;

inline constexpr VertexId kInvalidVertex = -1;

/// Undirected graph in slotted adjacency form.  Each undirected edge {u,v}
/// is stored twice, once in each endpoint's row; rows are sorted by
/// neighbor id and contain no self-loops or duplicates.
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  /// Construct from raw CSR arrays (rows become tight slots: cap == len).
  /// \p xadj has size n+1, \p adjncy size xadj[n]; \p vertex_weights size
  /// n; \p edge_weights parallel to \p adjncy.  Call validate() afterwards
  /// if the arrays come from an untrusted source.  Every vertex is live.
  Graph(std::vector<EdgeIndex> xadj, std::vector<VertexId> adjncy,
        std::vector<double> vertex_weights, std::vector<double> edge_weights);

  /// Size of the id space, including dead (tombstoned) ids.
  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(row_begin_.size());
  }

  /// True when \p v has not been removed.  O(1).
  [[nodiscard]] bool is_live(VertexId v) const {
    return live_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] VertexId num_dead_vertices() const noexcept {
    return num_dead_;
  }
  [[nodiscard]] VertexId num_live_vertices() const noexcept {
    return num_vertices() - num_dead_;
  }

  /// Number of undirected edges between live vertices (each {u,v} once).
  [[nodiscard]] std::int64_t num_edges() const noexcept {
    return num_half_edges_ / 2;
  }

  /// Number of directed half-edges (== 2 * num_edges()).  Maintained, O(1).
  [[nodiscard]] EdgeIndex num_half_edges() const noexcept {
    return num_half_edges_;
  }

  /// Abandoned adjacency slots (garbage): the old blocks of relocated rows
  /// and the rows of removed vertices, since the last compact().  A row's
  /// own reserve (cap - len) is not counted — it is not lost, the row's
  /// next inserts use it.  The deferred-compaction trigger watches this
  /// against adjacency_capacity().  O(1).
  [[nodiscard]] EdgeIndex adjacency_slack() const noexcept {
    return garbage_;
  }
  /// Total allocated adjacency slots: live half-edges, row reserves and
  /// garbage.  O(1).
  [[nodiscard]] EdgeIndex adjacency_capacity() const noexcept {
    return static_cast<EdgeIndex>(adj_.size());
  }

  /// Sorted neighbor list of \p v (empty for dead vertices).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  /// Edge weights parallel to neighbors(v).
  [[nodiscard]] std::span<const double> incident_edge_weights(VertexId v) const;

  [[nodiscard]] EdgeIndex degree(VertexId v) const;

  /// Weight of \p v (0 for dead vertices).
  [[nodiscard]] double vertex_weight(VertexId v) const;

  /// Sum of all live vertex weights.  Maintained, O(1).
  [[nodiscard]] double total_vertex_weight() const noexcept {
    return total_vertex_weight_;
  }

  /// True iff the undirected edge {u, v} exists (binary search).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Weight of edge {u, v}, or 0.0 if the edge does not exist.
  [[nodiscard]] double edge_weight(VertexId u, VertexId v) const;

  /// Birth key of \p v (see the file comment).  O(1).
  [[nodiscard]] std::uint32_t vertex_key(VertexId v) const {
    return key_[static_cast<std::size_t>(v)];
  }
  /// Every id's birth key (dead ids keep theirs until compact()).
  [[nodiscard]] const std::vector<std::uint32_t>& vertex_keys()
      const noexcept {
    return key_;
  }
  /// The key the next add_vertex() takes.
  [[nodiscard]] std::uint32_t next_vertex_key() const noexcept {
    return next_key_;
  }
  /// Replace every id's key and the key counter — for a graph rebuilt
  /// from another one that must keep that graph's keys.  \p keys has one
  /// entry per id; validate() rejects any other size.
  void set_vertex_keys(std::vector<std::uint32_t> keys,
                       std::uint32_t next_key);

  /// True when every live vertex and edge weight equals 1 (the paper's
  /// default).  O(V + E).
  [[nodiscard]] bool has_unit_weights() const;

  /// Per-id vertex weights (dead entries are 0).  Kept for bulk consumers
  /// (io, the sharded SPMD loader); adjacency has no raw-array accessor —
  /// use the per-vertex spans.
  [[nodiscard]] const std::vector<double>& vertex_weights() const noexcept {
    return vertex_weights_;
  }

  // --- O(Δ) mutators -----------------------------------------------------

  /// Append one live vertex with no edges; returns its id.  It takes the
  /// next vertex key.  Amortized O(1).
  VertexId add_vertex(double weight);

  /// Insert the undirected edge {u, v} (both endpoints live, u != v).
  /// Returns true when the edge is structurally new; a duplicate merges by
  /// summing \p w onto the existing weight (GraphBuilder semantics) and
  /// returns false.  Amortized O(deg(u) + deg(v)).
  bool insert_edge(VertexId u, VertexId v, double w);

  /// Remove the undirected edge {u, v} (must exist); returns its weight.
  /// The freed slots stay in the two rows' reserves.  O(deg(u) + deg(v)).
  double remove_edge(VertexId u, VertexId v);

  /// Remove \p v (must be live): every incident edge goes too, the id
  /// becomes dead with weight 0 and an empty row, and the row's capacity
  /// becomes garbage.  Ids do not shift — use compact() to reclaim them.
  /// O(Σ_{u ∈ N(v)} deg(u)).
  void remove_vertex(VertexId v);

  /// Drop dead ids and garbage: surviving vertices are renumbered
  /// order-preservingly into slabs sized exactly to Σ cap, each row with
  /// cap = len + len/4 (the slabs' allocations hold a quarter more for
  /// the overflow arena), and \p old_to_new receives the mapping (size =
  /// the old id space; removed ids map to kInvalidVertex).
  /// adjacency_slack() is 0 afterwards.  Every survivor keeps its vertex
  /// key.  Returns the new vertex count.  O(V + E).
  VertexId compact(std::vector<VertexId>& old_to_new);

  /// Throws pigp::CheckError if the structure is malformed: out-of-range or
  /// dead neighbors, self-loops, unsorted or duplicate row entries,
  /// asymmetric edges or weights, rows escaping the slab, dead rows that
  /// hold slots, a per-vertex array (the keys included) of the wrong size,
  /// or maintained counters that disagree with a recount (the garbage
  /// counter against slab size - Σ row_cap).
  void validate() const;

  /// Semantic equality: same id space, same liveness, and identical
  /// weights and sorted adjacency per live vertex.  Slot layout (capacity
  /// slack, relocation history) is not observable, and neither are the
  /// vertex keys: compare vertex_keys() where they matter.
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  /// Insert \p v into \p u's sorted row; true if {u,v} already existed (the
  /// weight is merged instead).
  bool half_insert(VertexId u, VertexId v, double w);
  /// Remove \p v from \p u's sorted row (must be present).  Returns the
  /// stored weight.
  double half_remove(VertexId u, VertexId v);
  /// Move \p u's row to the end of the slab with capacity \p new_cap; its
  /// old block becomes garbage.
  void relocate_row(VertexId u, EdgeIndex new_cap);

  /// compact() gives each row len / kCompactReserveDivisor spare slots,
  /// and the overflow arena slab / kCompactReserveDivisor.
  static constexpr EdgeIndex kCompactReserveDivisor = 4;

  std::vector<EdgeIndex> row_begin_;
  std::vector<EdgeIndex> row_len_;
  std::vector<EdgeIndex> row_cap_;
  std::vector<VertexId> adj_;  ///< adjacency slab (rows + reserve + garbage)
  std::vector<double> ew_;     ///< edge-weight slab, parallel to adj_
  std::vector<double> vertex_weights_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> key_;  ///< birth key per id
  std::uint32_t next_key_ = 0;      ///< key of the next add_vertex()
  VertexId num_dead_ = 0;
  EdgeIndex num_half_edges_ = 0;
  EdgeIndex garbage_ = 0;  ///< abandoned slots since the last compact()
  double total_vertex_weight_ = 0.0;
};

}  // namespace pigp::graph
