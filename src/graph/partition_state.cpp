#include "graph/partition_state.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace pigp::graph {
namespace {

std::size_t bit_words(std::size_t n) { return (n + 63) / 64; }

}  // namespace

PartitionState::PartitionState(const Graph& g, const Partitioning& p) {
  rebuild(g, p);
}

// pigp:steady-state
void PartitionState::set_boundary(PartId q, VertexId v, bool member) {
  const auto vi = static_cast<std::size_t>(v);
  std::uint64_t& word = boundary_bits_[vi / 64];
  const std::uint64_t bit = std::uint64_t{1} << (vi % 64);
  if (((word & bit) != 0) == member) return;
  word ^= bit;
  boundary_count_[static_cast<std::size_t>(q)] += member ? 1 : -1;
}

// pigp:steady-state
void PartitionState::boundary_ascending(std::vector<VertexId>& out) const {
  out.clear();
  for_each_boundary([&out](VertexId v) { out.push_back(v); });
}

void PartitionState::rebuild(const Graph& g, const Partitioning& p) {
  PIGP_CHECK(static_cast<VertexId>(p.part.size()) == g.num_vertices(),
             "partitioning size does not match graph");
  PIGP_CHECK(p.num_parts >= 1, "need at least one partition");
  if (journal_windows_ > 0) journal_rebased_ = true;
  num_parts_ = p.num_parts;
  weight_.assign(static_cast<std::size_t>(num_parts_), 0.0);
  boundary_cost_.assign(static_cast<std::size_t>(num_parts_), 0.0);
  cut_total_ = 0.0;
  ext_degree_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  boundary_bits_.assign(
      bit_words(static_cast<std::size_t>(g.num_vertices())), 0);
  boundary_count_.assign(static_cast<std::size_t>(num_parts_), 0);
  analysis_.assign(static_cast<std::size_t>(g.num_vertices()), {});

  // Accumulation order matches the historical compute_metrics() loop so
  // floating-point results are bit-identical to the pre-PartitionState
  // implementation.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p.part[static_cast<std::size_t>(v)];
    // kUnassigned entries (retired or not-yet-placed ids) contribute
    // nothing — same rule as move_vertex.
    if (pv == kUnassigned) continue;
    PIGP_CHECK(pv >= 0 && pv < num_parts_, "partition id out of range");
    weight_[static_cast<std::size_t>(pv)] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto weights = g.incident_edge_weights(v);
    std::int32_t ext = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId pu = p.part[static_cast<std::size_t>(nbrs[i])];
      if (pu == kUnassigned) continue;  // invisible until placed
      if (pu == pv) continue;  // internal edges and self-loops: no cost
      boundary_cost_[static_cast<std::size_t>(pv)] += weights[i];
      if (nbrs[i] > v) cut_total_ += weights[i];  // count each edge once
      ++ext;
    }
    if (ext > 0) {
      ext_degree_[static_cast<std::size_t>(v)] = ext;
      set_boundary(pv, v, true);
    }
  }
}

// pigp:steady-state
void PartitionState::move_vertex(const Graph& g, Partitioning& p, VertexId v,
                                 PartId to) {
  const PartId from = p.part[static_cast<std::size_t>(v)];
  if (from == to) return;
  PIGP_CHECK(to == kUnassigned || (to >= 0 && to < num_parts_),
             "move_vertex destination out of range");
  if (journal_windows_ > 0 && !journal_replaying_) {
    journal_.push_back({v, from});
  }

  const auto nbrs = g.neighbors(v);
  const auto weights = g.incident_edge_weights(v);
  std::int32_t new_ext = 0;
  invalidate_analysis(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    invalidate_analysis(nbrs[i]);
    if (nbrs[i] == v) continue;  // self-loops contribute nothing
    const PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
    if (q == kUnassigned) continue;  // counted when the neighbor is placed
    const double w = weights[i];
    const bool was_external = from != kUnassigned && q != from;
    const bool is_external = to != kUnassigned && q != to;
    if (was_external) {
      boundary_cost_[static_cast<std::size_t>(from)] -= w;
      boundary_cost_[static_cast<std::size_t>(q)] -= w;
      cut_total_ -= w;
    }
    if (is_external) {
      boundary_cost_[static_cast<std::size_t>(to)] += w;
      boundary_cost_[static_cast<std::size_t>(q)] += w;
      cut_total_ += w;
      ++new_ext;
    }
    if (was_external != is_external) {
      const auto ui = static_cast<std::size_t>(nbrs[i]);
      ext_degree_[ui] += is_external ? 1 : -1;
      set_boundary(q, nbrs[i], ext_degree_[ui] > 0);
    }
  }
  if (from != kUnassigned) {
    weight_[static_cast<std::size_t>(from)] -= g.vertex_weight(v);
    set_boundary(from, v, false);
  }
  if (to != kUnassigned) {
    weight_[static_cast<std::size_t>(to)] += g.vertex_weight(v);
    set_boundary(to, v, new_ext > 0);
  }
  ext_degree_[static_cast<std::size_t>(v)] =
      to == kUnassigned ? 0 : new_ext;
  p.part[static_cast<std::size_t>(v)] = to;
}

// pigp:steady-state
void PartitionState::add_edge(const Partitioning& p, VertexId u, VertexId v,
                              double weight) {
  invalidate_analysis(u);
  invalidate_analysis(v);
  if (u == v) return;  // self-loops contribute nothing
  const PartId pu = p.part[static_cast<std::size_t>(u)];
  const PartId pv = p.part[static_cast<std::size_t>(v)];
  if (pu == kUnassigned || pv == kUnassigned || pu == pv) return;
  boundary_cost_[static_cast<std::size_t>(pu)] += weight;
  boundary_cost_[static_cast<std::size_t>(pv)] += weight;
  cut_total_ += weight;
  ++ext_degree_[static_cast<std::size_t>(u)];
  ++ext_degree_[static_cast<std::size_t>(v)];
  set_boundary(pu, u, true);
  set_boundary(pv, v, true);
}

// pigp:steady-state
void PartitionState::remove_edge(const Partitioning& p, VertexId u, VertexId v,
                                 double weight) {
  invalidate_analysis(u);
  invalidate_analysis(v);
  if (u == v) return;
  const PartId pu = p.part[static_cast<std::size_t>(u)];
  const PartId pv = p.part[static_cast<std::size_t>(v)];
  if (pu == kUnassigned || pv == kUnassigned || pu == pv) return;
  boundary_cost_[static_cast<std::size_t>(pu)] -= weight;
  boundary_cost_[static_cast<std::size_t>(pv)] -= weight;
  cut_total_ -= weight;
  set_boundary(pu, u, --ext_degree_[static_cast<std::size_t>(u)] > 0);
  set_boundary(pv, v, --ext_degree_[static_cast<std::size_t>(v)] > 0);
}

void PartitionState::adjust_edge_weight(const Partitioning& p, VertexId u,
                                        VertexId v, double delta_weight) {
  invalidate_analysis(u);
  invalidate_analysis(v);
  if (u == v) return;
  const PartId pu = p.part[static_cast<std::size_t>(u)];
  const PartId pv = p.part[static_cast<std::size_t>(v)];
  if (pu == kUnassigned || pv == kUnassigned || pu == pv) return;
  boundary_cost_[static_cast<std::size_t>(pu)] += delta_weight;
  boundary_cost_[static_cast<std::size_t>(pv)] += delta_weight;
  cut_total_ += delta_weight;
}

void PartitionState::grow_vertices(VertexId n) {
  PIGP_CHECK(static_cast<std::size_t>(n) >= ext_degree_.size(),
             "grow_vertices cannot shrink the vertex-id space");
  ext_degree_.resize(static_cast<std::size_t>(n), 0);
  boundary_bits_.resize(bit_words(static_cast<std::size_t>(n)), 0);
  analysis_.resize(static_cast<std::size_t>(n));
}

void PartitionState::extend(const Graph& g, Partitioning& p,
                            VertexId first_new, const Partitioning& placed) {
  PIGP_CHECK(placed.num_vertices() == g.num_vertices(),
             "placed partitioning does not cover the extended graph");
  PIGP_CHECK(static_cast<VertexId>(p.part.size()) <= placed.num_vertices(),
             "current partitioning larger than the extended one");
  p.part.resize(static_cast<std::size_t>(g.num_vertices()), kUnassigned);
  grow_vertices(g.num_vertices());
  for (VertexId v = first_new; v < g.num_vertices(); ++v) {
    move_vertex(g, p, v, placed.part[static_cast<std::size_t>(v)]);
  }
}

void PartitionState::transition(const Graph& g, Partitioning& p,
                                const Partitioning& target) {
  PIGP_CHECK(target.num_vertices() == g.num_vertices(),
             "target partitioning does not cover the graph");
  PIGP_CHECK(static_cast<VertexId>(p.part.size()) <= target.num_vertices(),
             "current partitioning larger than the target");
  p.part.resize(static_cast<std::size_t>(g.num_vertices()), kUnassigned);
  grow_vertices(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId want = target.part[static_cast<std::size_t>(v)];
    if (p.part[static_cast<std::size_t>(v)] != want) {
      move_vertex(g, p, v, want);
    }
  }
}

void PartitionState::remap_vertices(const std::vector<VertexId>& old_to_new,
                                    VertexId new_num_vertices) {
  if (journal_windows_ > 0) journal_rebased_ = true;
  std::vector<std::int32_t> ext(static_cast<std::size_t>(new_num_vertices),
                                0);
  std::vector<std::uint64_t> bits(
      bit_words(static_cast<std::size_t>(new_num_vertices)), 0);
  // Only boundary vertices carry information (ext_degree > 0 iff the bit
  // is set), and a remap keeps every vertex in its partition, so the
  // per-partition counts carry over unchanged.  The analyses move down in
  // place, in ascending order, so no boundary slot is overwritten before
  // it is read.  An interior vertex's slot may keep a stale value: it is
  // never read before the mutator that makes the vertex boundary
  // invalidates it.  Every boundary analysis survives the renumbering: it
  // reads the vertex key, never the id.
  for_each_boundary([&](VertexId old_v) {
    PIGP_CHECK(old_v < static_cast<VertexId>(old_to_new.size()),
               "remap_vertices: boundary vertex out of range");
    const VertexId new_v = old_to_new[static_cast<std::size_t>(old_v)];
    PIGP_CHECK(new_v != kInvalidVertex,
               "remap_vertices: boundary vertex was removed but not "
               "retired first");
    PIGP_CHECK(new_v <= old_v,
               "remap_vertices: the compaction must preserve id order");
    ext[static_cast<std::size_t>(new_v)] =
        ext_degree_[static_cast<std::size_t>(old_v)];
    const auto vi = static_cast<std::size_t>(new_v);
    bits[vi / 64] |= std::uint64_t{1} << (vi % 64);
    analysis_[vi] = analysis_[static_cast<std::size_t>(old_v)];
  });
  ext_degree_ = std::move(ext);
  boundary_bits_ = std::move(bits);
  analysis_.resize(static_cast<std::size_t>(new_num_vertices));
}

PartitionState::EdgeDiff PartitionState::reconcile_extension(
    const Graph& g_old, const Graph& g_new, const Partitioning& p,
    VertexId n_old) {
  PIGP_CHECK(n_old == g_old.num_vertices() && g_new.num_vertices() >= n_old,
             "reconcile_extension: new graph must extend the old one");
  EdgeDiff diff;
  for (VertexId v = 0; v < n_old; ++v) {
    const double dw = g_new.vertex_weight(v) - g_old.vertex_weight(v);
    if (dw != 0.0) {
      const PartId pv = p.part[static_cast<std::size_t>(v)];
      if (pv != kUnassigned) weight_[static_cast<std::size_t>(pv)] += dw;
    }
    // Merge-walk the sorted adjacencies; only edges with the higher id on
    // the other side so each undirected old-old edge is handled once.  New
    // vertices (ids >= n_old) sort last and are skipped: they are invisible
    // until placed.
    const auto old_nbrs = g_old.neighbors(v);
    const auto old_w = g_old.incident_edge_weights(v);
    const auto new_nbrs = g_new.neighbors(v);
    const auto new_w = g_new.incident_edge_weights(v);
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < old_nbrs.size() || b < new_nbrs.size()) {
      const VertexId ua = a < old_nbrs.size() ? old_nbrs[a] : kInvalidVertex;
      const VertexId ub = (b < new_nbrs.size() && new_nbrs[b] < n_old)
                              ? new_nbrs[b]
                              : kInvalidVertex;
      if (ua == kInvalidVertex && ub == kInvalidVertex) break;
      if (ub == kInvalidVertex || (ua != kInvalidVertex && ua < ub)) {
        if (ua > v) {  // edge removed by the extension
          remove_edge(p, v, ua, old_w[a]);
          ++diff.removed;
        }
        ++a;
      } else if (ua == kInvalidVertex || ub < ua) {
        if (ub > v) {  // edge created by the extension
          add_edge(p, v, ub, new_w[b]);
          ++diff.added;
        }
        ++b;
      } else {  // same neighbor; adjust if the weight changed
        if (ua > v && new_w[b] != old_w[a]) {
          adjust_edge_weight(p, v, ua, new_w[b] - old_w[a]);
        }
        ++a;
        ++b;
      }
    }
  }
  return diff;
}

// pigp:steady-state
PartitionState::RollbackWindow::RollbackWindow(PartitionState& state)
    : state_(state),
      mark_(state.journal_.size()),
      depth_(static_cast<std::size_t>(state.journal_windows_)) {
  if (state_.window_aggregates_.size() <= depth_) {
    state_.window_aggregates_.resize(depth_ + 1);
  }
  // Vector assignment reuses the pooled capacity: no allocation once warm.
  AggregateSnapshot& saved = state_.window_aggregates_[depth_];
  saved.weight = state_.weight_;
  saved.boundary_cost = state_.boundary_cost_;
  saved.cut_total = state_.cut_total_;
  ++state_.journal_windows_;
}

// pigp:steady-state
PartitionState::RollbackWindow::~RollbackWindow() {
  if (--state_.journal_windows_ == 0) {
    state_.journal_.clear();
    state_.journal_rebased_ = false;
  }
}

// pigp:steady-state
void PartitionState::RollbackWindow::undo(const Graph& g, Partitioning& p) {
  undo(g, p, false);
}

// pigp:steady-state
void PartitionState::RollbackWindow::undo_keeping_analysis(const Graph& g,
                                                           Partitioning& p) {
  undo(g, p, true);
}

// pigp:steady-state
void PartitionState::RollbackWindow::undo(const Graph& g, Partitioning& p,
                                          bool keep_analysis) {
  PIGP_CHECK(!state_.journal_rebased_,
             "undo journal invalidated by a rebuild/remap inside the window");
  std::vector<JournalEntry>& journal = state_.journal_;
  state_.journal_replaying_ = true;
  for (std::size_t k = journal.size(); k > mark_; --k) {
    state_.move_vertex(g, p, journal[k - 1].v, journal[k - 1].from);
  }
  state_.journal_replaying_ = false;
  if (keep_analysis) {
    // The replay invalidated exactly these slots and kept their values,
    // which were exact for the restored partitioning.
    const auto revalidate = [this](VertexId u) {
      if (state_.is_boundary(u)) {
        state_.analysis_[static_cast<std::size_t>(u)].valid = 1;
      }
    };
    for (std::size_t k = mark_; k < journal.size(); ++k) {
      revalidate(journal[k].v);
      for (const VertexId u : g.neighbors(journal[k].v)) revalidate(u);
    }
  }
  journal.resize(mark_);
  const AggregateSnapshot& saved = state_.window_aggregates_[depth_];
  state_.weight_ = saved.weight;
  state_.boundary_cost_ = saved.boundary_cost;
  state_.cut_total_ = saved.cut_total;
}

PartitionMetrics PartitionState::snapshot() const {
  PIGP_CHECK(num_parts_ >= 1, "snapshot of an empty PartitionState");
  return PartitionMetrics{summary(), boundary_cost_, weight_};
}

// pigp:steady-state
PartitionSummary PartitionState::summary() const {
  PIGP_CHECK(num_parts_ >= 1, "summary of an empty PartitionState");
  PartitionSummary s;
  s.cut_total = cut_total_;
  s.cut_max = *std::max_element(boundary_cost_.begin(), boundary_cost_.end());
  s.cut_min = *std::min_element(boundary_cost_.begin(), boundary_cost_.end());
  s.max_weight = *std::max_element(weight_.begin(), weight_.end());
  s.min_weight = *std::min_element(weight_.begin(), weight_.end());
  s.avg_weight = std::accumulate(weight_.begin(), weight_.end(), 0.0) /
                 static_cast<double>(num_parts_);
  s.imbalance = imbalance();
  return s;
}

double PartitionState::imbalance() const noexcept {
  double max_weight = 0.0;
  double total = 0.0;
  for (const double w : weight_) {
    max_weight = std::max(max_weight, w);
    total += w;
  }
  const double avg = total / static_cast<double>(num_parts_);
  // Zero-weight fallback: an empty load profile is "perfectly balanced".
  return avg > 0.0 ? max_weight / avg : 1.0;
}

}  // namespace pigp::graph
