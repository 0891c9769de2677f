#include "core/layering.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pigp::core {
namespace {

/// Deterministic integer mixer (murmur3 finalizer).  Raw vertex ids are
/// heavily correlated with mesh structure (e.g. a grid column shares its id
/// parity), so ties must be spread by a hash, not by the id itself.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// The largest positive tally seen so far and the extremes of its tie set.
struct TallyTop {
  double sum = 0.0;
  int tied = 0;  ///< parts sharing `sum` (0 until a positive tally)
  graph::PartId lo = -1;
  graph::PartId hi = -1;
};

void note_tally(TallyTop& top, graph::PartId q, double sum) {
  if (sum > top.sum) {
    top = {sum, 1, q, q};
  } else if (sum == top.sum && top.tied > 0) {
    ++top.tied;
    top.lo = std::min(top.lo, q);
    top.hi = std::max(top.hi, q);
  }
}

/// The label with the largest tally (-1 when no tally is positive); the
/// paper breaks ties "arbitrarily" — we spread tied vertices across the
/// tied partitions by the hash of their vertex key (the pick-th tied part
/// in ascending id order), which is deterministic but avoids piling all
/// tied capacity onto one partition (that can make the balance LP
/// structurally infeasible, e.g. on striped partitionings).  The key, not
/// the id, so that a compaction's renumbering picks nothing differently.
/// The first and last tied parts come straight from \p top; only a middle
/// pick scans \p tally.
graph::PartId pick_label(const PartTally& tally, const TallyTop& top,
                         std::uint32_t key) {
  const std::uint64_t h = mix(key);
  // No tie (lo == hi) or a two-way one, the common cases: h % 2 == h & 1,
  // and a select instead of a hard-to-predict branch on the tie.
  if (top.tied <= 2) return (h & 1) != 0 ? top.hi : top.lo;
  const auto pick =
      static_cast<int>(h % static_cast<std::uint64_t>(top.tied));
  if (pick == 0) return top.lo;
  if (pick == top.tied - 1) return top.hi;
  for (const graph::PartId q : tally.touched()) {
    if (tally.sum(q) != top.sum) continue;
    int smaller = 0;  // tied parts below q
    for (const graph::PartId r : tally.touched()) {
      smaller += static_cast<int>(r < q && tally.sum(r) == top.sum);
    }
    if (smaller == pick) return q;
  }
  PIGP_ASSERT(false);  // exactly one tied part has `pick` smaller ones
  return -1;
}

/// pick_label over the whole tally, then clear the tally.  O(parts
/// touched).
graph::PartId majority_label(PartTally& tally, std::uint32_t key) {
  TallyTop top;
  for (const graph::PartId q : tally.touched()) {
    note_tally(top, q, tally.sum(q));
  }
  const graph::PartId chosen = pick_label(tally, top, key);
  tally.clear();
  return chosen;
}

/// Expand partition \p target's BFS one level past \p frontier (whose
/// vertices sit at \p level): discover, sort, and label the next layer
/// into \p out (also recorded in label/layer/eps_row).  The shared level
/// step of the batch and resumable layerings — their bit-identical results
/// come from sharing this code.
void advance_one_level(const graph::Graph& g, const graph::Partitioning& p,
                       graph::PartId target,
                       const std::vector<graph::VertexId>& frontier,
                       std::int32_t level,
                       std::vector<graph::PartId>& label,
                       std::vector<std::int32_t>& layer,
                       std::int64_t* eps_row, PartTally& tally,
                       std::vector<graph::VertexId>& out) {
  out.clear();
  for (const graph::VertexId u : frontier) {
    for (const graph::VertexId w : g.neighbors(u)) {
      if (p.part[static_cast<std::size_t>(w)] != target) continue;
      if (layer[static_cast<std::size_t>(w)] >= 0) continue;  // seen
      layer[static_cast<std::size_t>(w)] = level + 1;  // enqueue marker
      out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  for (const graph::VertexId w : out) {
    const auto nbrs = g.neighbors(w);
    const auto weights = g.incident_edge_weights(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::VertexId u = nbrs[i];
      if (p.part[static_cast<std::size_t>(u)] == target &&
          layer[static_cast<std::size_t>(u)] == level &&
          label[static_cast<std::size_t>(u)] >= 0) {
        // label == -1 (a vertex whose edges into the boundary all have
        // weight zero) carries no label to propagate.
        tally.add(label[static_cast<std::size_t>(u)], weights[i]);
      }
    }
    const graph::PartId best = majority_label(tally, g.vertex_key(w));
    // best == -1 is only reachable when every edge into the previous
    // layer has weight zero; such a vertex stays unlabeled (and counts
    // toward no eps entry), exactly like the batch member sweep did.
    label[static_cast<std::size_t>(w)] = best;  // layer set at enqueue
    if (eps_row != nullptr && best >= 0) {
      ++eps_row[static_cast<std::size_t>(best)];
    }
  }
}

/// Label \p v as a layer-0 seed with \p seed, its closest outside
/// partition.
void label_seed(graph::VertexId v, graph::PartId seed,
                std::vector<graph::PartId>& label,
                std::vector<std::int32_t>& layer, std::int64_t* eps_row) {
  label[static_cast<std::size_t>(v)] = seed;
  layer[static_cast<std::size_t>(v)] = 0;
  if (eps_row != nullptr && seed >= 0) {
    ++eps_row[static_cast<std::size_t>(seed)];
  }
}

/// Boundary vertex \p v's analysis from \p state; an invalid slot is
/// analysed and filled first, and counted in \p analysed.
graph::PartitionState::VertexAnalysis cached_analysis(
    const graph::Graph& g, const graph::Partitioning& p,
    const graph::PartitionState& state, graph::VertexId v, PartTally& tally,
    std::int64_t& analysed) {
  if (const auto cached = state.analysis(v)) return *cached;
  const auto a = analyze_vertex(g, p, v, tally);
  PIGP_ASSERT(a);  // the boundary holds no interior vertex
  state.store_analysis(v, *a);
  ++analysed;
  return *a;
}

/// Layer partition \p target to exhaustion from a full scan of its
/// \p members, writing only its entries of \p label / \p layer and the eps
/// row \p eps_row (size num_parts) — the batch oracle's per-partition
/// BFS.  \p scratch is reused across partitions.
void layer_one_partition(const graph::Graph& g, const graph::Partitioning& p,
                         graph::PartId target,
                         const std::vector<graph::VertexId>& members,
                         std::vector<graph::PartId>& label,
                         std::vector<std::int32_t>& layer,
                         std::int64_t* eps_row, LayerScratch& scratch) {
  scratch.tally.resize(static_cast<std::size_t>(p.num_parts));
  scratch.frontier.clear();

  // Seed layer 0: boundary vertices labeled with the outside partition they
  // share the largest edge weight with.  eps is tallied per labeled vertex
  // (identical to a final member sweep — integer counts are order-free).
  for (const graph::VertexId v : members) {
    if (const auto a = analyze_vertex(g, p, v, scratch.tally)) {
      label_seed(v, a->seed, label, layer, eps_row);
      scratch.frontier.push_back(v);
    }
  }

  // Grow layers inward.  Each candidate adopts the label carried by the
  // largest edge weight into the previous layer.
  std::int32_t level = 0;
  while (!scratch.frontier.empty()) {
    advance_one_level(g, p, target, scratch.frontier, level, label, layer,
                      eps_row, scratch.tally, scratch.next);
    scratch.frontier.swap(scratch.next);
    ++level;
  }
}

}  // namespace

// pigp:steady-state
std::optional<graph::PartitionState::VertexAnalysis> analyze_vertex(
    const graph::Graph& g, const graph::Partitioning& p, graph::VertexId v,
    PartTally& tally) {
  const graph::PartId from = p.part[static_cast<std::size_t>(v)];
  const auto nbrs = g.neighbors(v);
  const auto weights = g.incident_edge_weights(v);
  double in = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
    if (q == from) {
      in += weights[i];
    } else {
      tally.add(q, weights[i]);
    }
  }
  if (tally.touched().empty()) return std::nullopt;  // interior vertex
  // One walk of the touched parts serves both decisions.
  graph::PartitionState::VertexAnalysis a;
  TallyTop top;
  for (const graph::PartId q : tally.touched()) {
    const double out = tally.sum(q);
    if (out <= 0.0) continue;
    const double gain = out - in;
    if (a.best < 0 || gain > a.gain || (gain == a.gain && q < a.best)) {
      a.best = q;
      a.gain = gain;
    }
    note_tally(top, q, out);
  }
  a.seed = pick_label(tally, top, g.vertex_key(v));
  tally.clear();
  return a;
}

// pigp:steady-state
std::int64_t refresh_analyses(const graph::Graph& g,
                              const graph::Partitioning& p,
                              const graph::PartitionState& state,
                              std::span<const graph::VertexId> vertices,
                              PartTally& tally) {
  tally.resize(static_cast<std::size_t>(p.num_parts));
  std::int64_t analysed = 0;
  for (const graph::VertexId v : vertices) {
    (void)cached_analysis(g, p, state, v, tally, analysed);
  }
  return analysed;
}

#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
// pigp:steady-state
void audit_analysis(const graph::Graph& g, const graph::Partitioning& p,
                    const graph::PartitionState& state,
                    std::span<const graph::VertexId> vertices,
                    PartTally& tally) {
  for (const graph::VertexId v : vertices) {
    const auto cached = state.analysis(v);
    const auto fresh = analyze_vertex(g, p, v, tally);
    PIGP_CHECK(cached && fresh && cached->seed == fresh->seed &&
                   cached->best == fresh->best && cached->gain == fresh->gain,
               "cached vertex analysis is out of date");
  }
}
#endif

std::vector<std::vector<graph::VertexId>> partition_members(
    const graph::Partitioning& p) {
  std::vector<std::vector<graph::VertexId>> members(
      static_cast<std::size_t>(p.num_parts));
  for (std::size_t v = 0; v < p.part.size(); ++v) {
    // Dead ids awaiting deferred compaction are unassigned: no member.
    if (p.part[v] == graph::kUnassigned) continue;
    members[static_cast<std::size_t>(p.part[v])].push_back(
        static_cast<graph::VertexId>(v));
  }
  return members;
}

LayeringResult layer_partitions(const graph::Graph& g,
                                const graph::Partitioning& p) {
  p.validate(g);
  LayeringResult result;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  result.label.assign(n, -1);
  result.layer.assign(n, -1);
  result.eps = pigp::DenseMatrix<std::int64_t>(
      static_cast<std::size_t>(p.num_parts),
      static_cast<std::size_t>(p.num_parts), 0);

  const auto members = partition_members(p);
  LayerScratch scratch;
  for (graph::PartId q = 0; q < p.num_parts; ++q) {
    layer_one_partition(g, p, q, members[static_cast<std::size_t>(q)],
                        result.label, result.layer,
                        result.eps.row(static_cast<std::size_t>(q)).data(),
                        scratch);
  }
  return result;
}

// ---------------------------------------------------------------------------
// BoundaryLayering

BoundaryLayering::BoundaryLayering(const graph::Graph& g,
                                   const graph::Partitioning& p) {
  bind(g, p);
}

void BoundaryLayering::bind(const graph::Graph& g,
                            const graph::Partitioning& p) {
  g_ = &g;
  p_ = &p;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto parts = static_cast<std::size_t>(p.num_parts);
  if (dirty_ || label_.size() > n || eps_.rows() != parts) {
    // Remapped ids / shrunk graph / changed part count / fresh or
    // taken-from object: the labeled lists can no longer undo the previous
    // stage, so reset everything once.  (This path is only reached after
    // a delta with removals — itself an O(V) operation — or on first use.)
    label_.assign(n, -1);
    layer_.assign(n, -1);
    eps_ = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
    frontier_.assign(parts, {});
    labeled_.assign(parts, {});
    depth_.assign(parts, 0);
    seeded_.clear();
    dirty_ = false;
  } else if (label_.size() < n) {
    // Appended vertices: grow with unlabeled tails (amortized, and only
    // when the graph actually grew).  Existing entries still match the
    // labeled lists, so the O(labeled) reseed undo stays valid.
    label_.resize(n, -1);
    layer_.resize(n, -1);
  }
}

std::int64_t BoundaryLayering::reseed(
    const graph::PartitionState& state,
    const std::vector<graph::PartId>* owned_parts) {
  PIGP_CHECK(label_.size() ==
                 static_cast<std::size_t>(g_->num_vertices()),
             "BoundaryLayering reused after take_result()");
  // Undo the previous stage in O(labeled), not O(V).
  for (const graph::PartId q : seeded_) {
    const auto qi = static_cast<std::size_t>(q);
    for (const graph::VertexId v : labeled_[qi]) {
      label_[static_cast<std::size_t>(v)] = -1;
      layer_[static_cast<std::size_t>(v)] = -1;
    }
    labeled_[qi].clear();
    frontier_[qi].clear();
    depth_[qi] = 0;
  }
  eps_.fill(0);

  if (owned_parts != nullptr) {
    seeded_ = *owned_parts;
  } else {
    seeded_.resize(static_cast<std::size_t>(p_->num_parts));
    for (graph::PartId q = 0; q < p_->num_parts; ++q) {
      seeded_[static_cast<std::size_t>(q)] = q;
    }
  }

  // One ascending walk of the state's boundary hands every seeded
  // partition its seeds already sorted (the batch member scan's order).
  // The undo above left every labeled list empty.
  seeded_mask_.assign(static_cast<std::size_t>(p_->num_parts), 0);
  for (const graph::PartId q : seeded_) {
    seeded_mask_[static_cast<std::size_t>(q)] = 1;
  }
  state.for_each_boundary([this](graph::VertexId v) {
    const auto q =
        static_cast<std::size_t>(p_->part[static_cast<std::size_t>(v)]);
    if (seeded_mask_[q] != 0) labeled_[q].push_back(v);
  });

  // Seeds read their cached label; only a slot a mutator invalidated
  // since the last analysis is recomputed.
  scratch_.tally.resize(static_cast<std::size_t>(p_->num_parts));
  std::int64_t analysed = 0;
  for (const graph::PartId q : seeded_) {
    const auto qi = static_cast<std::size_t>(q);
    const auto& seeds = labeled_[qi];
    for (const graph::VertexId v : seeds) {
      const auto a =
          cached_analysis(*g_, *p_, state, v, scratch_.tally, analysed);
      label_seed(v, a.seed, label_, layer_, eps_.row(qi).data());
    }
    frontier_[qi] = seeds;
  }
#if defined(PIGP_VALIDATE) || !defined(NDEBUG)
  // Debug / PIGP_VALIDATE auditor: every seed's cached analysis equals a
  // from-scratch one.  The tally is already sized, so the audit allocates
  // nothing.
  for (const graph::PartId q : seeded_) {
    audit_analysis(*g_, *p_, state, labeled_[static_cast<std::size_t>(q)],
                   scratch_.tally);
  }
#endif
  return analysed;
}

void BoundaryLayering::release() {
  std::vector<graph::PartId>().swap(label_);
  std::vector<std::int32_t>().swap(layer_);
  eps_ = pigp::DenseMatrix<std::int64_t>();
  std::vector<std::vector<graph::VertexId>>().swap(frontier_);
  std::vector<std::vector<graph::VertexId>>().swap(labeled_);
  std::vector<std::int32_t>().swap(depth_);
  std::vector<graph::PartId>().swap(seeded_);
  std::vector<std::uint8_t>().swap(seeded_mask_);
  scratch_ = LayerScratch();
  dirty_ = true;
}

void BoundaryLayering::grow(int levels) {
  if (levels == 0) return;
  scratch_.tally.resize(static_cast<std::size_t>(p_->num_parts));
  for (const graph::PartId q : seeded_) {
    const auto qi = static_cast<std::size_t>(q);
    int remaining = levels;
    while (!frontier_[qi].empty() && remaining != 0) {
      advance_one_level(*g_, *p_, q, frontier_[qi], depth_[qi], label_,
                        layer_, eps_.row(qi).data(), scratch_.tally,
                        scratch_.next);
      labeled_[qi].insert(labeled_[qi].end(), scratch_.next.begin(),
                          scratch_.next.end());
      frontier_[qi].swap(scratch_.next);
      ++depth_[qi];
      if (remaining > 0) --remaining;
    }
  }
}

bool BoundaryLayering::exhausted() const {
  for (const graph::PartId q : seeded_) {
    if (!frontier_[static_cast<std::size_t>(q)].empty()) return false;
  }
  return true;
}

LayeringResult BoundaryLayering::take_result() {
  LayeringResult result;
  result.label = std::move(label_);
  result.layer = std::move(layer_);
  result.eps = std::move(eps_);
  seeded_.clear();
  // The moved-from eps_ may keep its shape (only the storage moved), which
  // bind()'s cheap checks cannot distinguish from a live matrix — force
  // the next bind() onto the full-reset path.
  dirty_ = true;
  return result;
}

LayeringResult layer_partitions_from(const graph::Graph& g,
                                     const graph::Partitioning& p,
                                     const graph::PartitionState& state) {
  BoundaryLayering layering(g, p);
  layering.reseed(state);
  layering.grow(-1);
  return layering.take_result();
}

}  // namespace pigp::core
