#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.hpp"

namespace pigp::graph {

Graph::Graph(std::vector<EdgeIndex> xadj, std::vector<VertexId> adjncy,
             std::vector<double> vertex_weights,
             std::vector<double> edge_weights)
    : adj_(std::move(adjncy)),
      ew_(std::move(edge_weights)),
      vertex_weights_(std::move(vertex_weights)) {
  PIGP_CHECK(!xadj.empty(), "xadj must have at least one entry");
  PIGP_CHECK(xadj.size() == vertex_weights_.size() + 1,
             "vertex weight array size mismatch");
  PIGP_CHECK(adj_.size() == ew_.size(), "edge weight array size mismatch");
  PIGP_CHECK(xadj.back() == static_cast<EdgeIndex>(adj_.size()),
             "xadj terminator must equal adjncy size");
  const auto n = vertex_weights_.size();
  row_begin_.resize(n);
  row_len_.resize(n);
  row_cap_.resize(n);
  live_.assign(n, 1);
  key_.resize(n);
  next_key_ = static_cast<std::uint32_t>(n);
  for (std::size_t v = 0; v < n; ++v) {
    PIGP_CHECK(xadj[v] <= xadj[v + 1], "xadj must be non-decreasing");
    key_[v] = static_cast<std::uint32_t>(v);
    row_begin_[v] = xadj[v];
    row_len_[v] = xadj[v + 1] - xadj[v];
    row_cap_[v] = row_len_[v];
    total_vertex_weight_ += vertex_weights_[v];
  }
  num_half_edges_ = static_cast<EdgeIndex>(adj_.size());
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  PIGP_ASSERT(v >= 0 && v < num_vertices());
  return {adj_.data() + row_begin_[v], static_cast<std::size_t>(row_len_[v])};
}

std::span<const double> Graph::incident_edge_weights(VertexId v) const {
  PIGP_ASSERT(v >= 0 && v < num_vertices());
  return {ew_.data() + row_begin_[v], static_cast<std::size_t>(row_len_[v])};
}

EdgeIndex Graph::degree(VertexId v) const {
  PIGP_ASSERT(v >= 0 && v < num_vertices());
  return row_len_[v];
}

double Graph::vertex_weight(VertexId v) const {
  PIGP_ASSERT(v >= 0 && v < num_vertices());
  return vertex_weights_[v];
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::edge_weight(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  return ew_[static_cast<std::size_t>(
      row_begin_[u] + std::distance(nbrs.begin(), it))];
}

void Graph::set_vertex_keys(std::vector<std::uint32_t> keys,
                            std::uint32_t next_key) {
  key_ = std::move(keys);
  next_key_ = next_key;
}

bool Graph::has_unit_weights() const {
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (!is_live(v)) continue;
    if (vertex_weights_[static_cast<std::size_t>(v)] != 1.0) return false;
    for (const double w : incident_edge_weights(v)) {
      if (w != 1.0) return false;
    }
  }
  return true;
}

VertexId Graph::add_vertex(double weight) {
  PIGP_CHECK(weight >= 0.0, "vertex weight must be non-negative");
  const VertexId v = num_vertices();
  row_begin_.push_back(static_cast<EdgeIndex>(adj_.size()));
  row_len_.push_back(0);
  row_cap_.push_back(0);
  vertex_weights_.push_back(weight);
  live_.push_back(1);
  key_.push_back(next_key_++);
  total_vertex_weight_ += weight;
  return v;
}

void Graph::relocate_row(VertexId u, EdgeIndex new_cap) {
  const auto len = static_cast<std::size_t>(row_len_[u]);
  const auto old_begin = static_cast<std::size_t>(row_begin_[u]);
  const auto new_begin = adj_.size();
  garbage_ += row_cap_[u];
  adj_.resize(new_begin + static_cast<std::size_t>(new_cap));
  ew_.resize(new_begin + static_cast<std::size_t>(new_cap));
  std::copy_n(adj_.begin() + static_cast<std::ptrdiff_t>(old_begin), len,
              adj_.begin() + static_cast<std::ptrdiff_t>(new_begin));
  std::copy_n(ew_.begin() + static_cast<std::ptrdiff_t>(old_begin), len,
              ew_.begin() + static_cast<std::ptrdiff_t>(new_begin));
  row_begin_[u] = static_cast<EdgeIndex>(new_begin);
  row_cap_[u] = new_cap;
}

bool Graph::half_insert(VertexId u, VertexId v, double w) {
  const auto begin = adj_.begin() + row_begin_[u];
  const auto end = begin + row_len_[u];
  const auto it = std::lower_bound(begin, end, v);
  if (it != end && *it == v) {
    ew_[static_cast<std::size_t>(row_begin_[u] + (it - begin))] += w;
    return true;
  }
  EdgeIndex pos = it - begin;
  if (row_len_[u] == row_cap_[u]) {
    relocate_row(u, std::max<EdgeIndex>(4, row_cap_[u] * 2));
  }
  const auto base = static_cast<std::ptrdiff_t>(row_begin_[u]);
  std::copy_backward(adj_.begin() + base + pos,
                     adj_.begin() + base + row_len_[u],
                     adj_.begin() + base + row_len_[u] + 1);
  std::copy_backward(ew_.begin() + base + pos, ew_.begin() + base + row_len_[u],
                     ew_.begin() + base + row_len_[u] + 1);
  adj_[static_cast<std::size_t>(base + pos)] = v;
  ew_[static_cast<std::size_t>(base + pos)] = w;
  ++row_len_[u];
  return false;
}

bool Graph::insert_edge(VertexId u, VertexId v, double w) {
  PIGP_CHECK(u >= 0 && u < num_vertices() && v >= 0 && v < num_vertices(),
             "edge endpoint out of range");
  PIGP_CHECK(u != v, "self-loop");
  PIGP_CHECK(is_live(u) && is_live(v), "edge endpoint is a dead vertex");
  PIGP_CHECK(w >= 0.0, "edge weight must be non-negative");
  const bool existed = half_insert(u, v, w);
  const bool existed_back = half_insert(v, u, w);
  PIGP_CHECK(existed == existed_back, "asymmetric adjacency detected");
  if (!existed) num_half_edges_ += 2;
  return !existed;
}

double Graph::half_remove(VertexId u, VertexId v) {
  const auto begin = adj_.begin() + row_begin_[u];
  const auto end = begin + row_len_[u];
  const auto it = std::lower_bound(begin, end, v);
  PIGP_CHECK(it != end && *it == v, "edge to remove does not exist");
  const auto base = static_cast<std::ptrdiff_t>(row_begin_[u]);
  const auto pos = it - begin;
  const double w = ew_[static_cast<std::size_t>(base + pos)];
  std::copy(adj_.begin() + base + pos + 1, adj_.begin() + base + row_len_[u],
            adj_.begin() + base + pos);
  std::copy(ew_.begin() + base + pos + 1, ew_.begin() + base + row_len_[u],
            ew_.begin() + base + pos);
  --row_len_[u];
  return w;
}

double Graph::remove_edge(VertexId u, VertexId v) {
  PIGP_CHECK(u >= 0 && u < num_vertices() && v >= 0 && v < num_vertices(),
             "edge endpoint out of range");
  PIGP_CHECK(is_live(u) && is_live(v), "edge endpoint is a dead vertex");
  const double w = half_remove(u, v);
  const double w_back = half_remove(v, u);
  PIGP_CHECK(w == w_back, "asymmetric edge weights detected");
  num_half_edges_ -= 2;
  return w;
}

void Graph::remove_vertex(VertexId v) {
  PIGP_CHECK(v >= 0 && v < num_vertices(), "vertex id out of range");
  PIGP_CHECK(is_live(v), "vertex already removed");
  // Remove the back half-edges first; v's own row is dropped wholesale.
  const auto nbrs = neighbors(v);
  for (const VertexId u : nbrs) {
    half_remove(u, v);
  }
  num_half_edges_ -= 2 * row_len_[v];
  garbage_ += row_cap_[v];
  row_len_[v] = 0;
  row_cap_[v] = 0;
  total_vertex_weight_ -= vertex_weights_[static_cast<std::size_t>(v)];
  vertex_weights_[static_cast<std::size_t>(v)] = 0.0;
  live_[static_cast<std::size_t>(v)] = 0;
  ++num_dead_;
}

VertexId Graph::compact(std::vector<VertexId>& old_to_new) {
  const VertexId n = num_vertices();
  old_to_new.assign(static_cast<std::size_t>(n), kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (is_live(v)) old_to_new[static_cast<std::size_t>(v)] = next++;
  }
  const VertexId new_n = next;

  // Each survivor gets len + len/4 slots, so the inserts that follow a
  // compaction fill the reserve before any row relocates again, and the
  // slabs keep a quarter more capacity for the overflow arena, so the
  // relocations that do follow append instead of reallocating (and
  // copying) the whole slab.
  std::vector<EdgeIndex> begin(static_cast<std::size_t>(new_n));
  std::vector<EdgeIndex> len(static_cast<std::size_t>(new_n));
  std::vector<EdgeIndex> cap(static_cast<std::size_t>(new_n));
  std::vector<double> vw(static_cast<std::size_t>(new_n));
  EdgeIndex slab = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!is_live(v)) continue;
    const auto nv =
        static_cast<std::size_t>(old_to_new[static_cast<std::size_t>(v)]);
    begin[nv] = slab;
    len[nv] = row_len_[v];
    cap[nv] = row_len_[v] + row_len_[v] / kCompactReserveDivisor;
    slab += cap[nv];
  }
  const auto arena = static_cast<std::size_t>(slab / kCompactReserveDivisor);
  std::vector<VertexId> adj;
  std::vector<double> ew;
  adj.reserve(static_cast<std::size_t>(slab) + arena);
  ew.reserve(static_cast<std::size_t>(slab) + arena);
  adj.resize(static_cast<std::size_t>(slab));
  ew.resize(static_cast<std::size_t>(slab));
  for (VertexId v = 0; v < n; ++v) {
    if (!is_live(v)) continue;
    const auto nv =
        static_cast<std::size_t>(old_to_new[static_cast<std::size_t>(v)]);
    vw[nv] = vertex_weights_[static_cast<std::size_t>(v)];
    // Keys move down in place: nv <= v, so none is overwritten unread.
    key_[nv] = key_[static_cast<std::size_t>(v)];
    const auto nbrs = neighbors(v);
    const auto ws = incident_edge_weights(v);
    const auto out = static_cast<std::size_t>(begin[nv]);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Order-preserving mapping keeps rows sorted after renumbering.
      adj[out + i] = old_to_new[static_cast<std::size_t>(nbrs[i])];
      ew[out + i] = ws[i];
    }
  }

  row_begin_ = std::move(begin);
  row_len_ = std::move(len);
  row_cap_ = std::move(cap);
  adj_ = std::move(adj);
  ew_ = std::move(ew);
  vertex_weights_ = std::move(vw);
  live_.assign(static_cast<std::size_t>(new_n), 1);
  key_.resize(static_cast<std::size_t>(new_n));
  num_dead_ = 0;
  garbage_ = 0;
  return new_n;
}

void Graph::validate() const {
  const VertexId n = num_vertices();
  PIGP_CHECK(row_len_.size() == static_cast<std::size_t>(n) &&
                 row_cap_.size() == static_cast<std::size_t>(n) &&
                 vertex_weights_.size() == static_cast<std::size_t>(n) &&
                 live_.size() == static_cast<std::size_t>(n) &&
                 key_.size() == static_cast<std::size_t>(n),
             "per-vertex array size mismatch");
  PIGP_CHECK(adj_.size() == ew_.size(), "slab size mismatch");
  EdgeIndex half_edges = 0;
  EdgeIndex row_slots = 0;
  VertexId dead = 0;
  double total_weight = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    PIGP_CHECK(row_len_[v] >= 0 && row_len_[v] <= row_cap_[v],
               "row length exceeds capacity");
    row_slots += row_cap_[v];
    PIGP_CHECK(row_begin_[v] >= 0 &&
                   row_begin_[v] + row_cap_[v] <=
                       static_cast<EdgeIndex>(adj_.size()),
               "row escapes the adjacency slab");
    if (!is_live(v)) {
      PIGP_CHECK(row_cap_[v] == 0, "dead vertex holds adjacency slots");
      PIGP_CHECK(vertex_weights_[static_cast<std::size_t>(v)] == 0.0,
                 "dead vertex has non-zero weight");
      ++dead;
      continue;
    }
    half_edges += row_len_[v];
    total_weight += vertex_weights_[static_cast<std::size_t>(v)];
    const auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      PIGP_CHECK(u >= 0 && u < n, "neighbor id out of range");
      PIGP_CHECK(u != v, "self-loop");
      PIGP_CHECK(is_live(u), "live vertex adjacent to a dead vertex");
      if (i > 0) {
        PIGP_CHECK(nbrs[i - 1] < u, "adjacency must be sorted and unique");
      }
      PIGP_CHECK(has_edge(u, v), "edge must be symmetric");
      PIGP_CHECK(edge_weight(u, v) == edge_weight(v, u),
                 "edge weights must be symmetric");
    }
  }
  PIGP_CHECK(half_edges == num_half_edges_, "half-edge counter out of sync");
  PIGP_CHECK(dead == num_dead_, "dead-vertex counter out of sync");
  PIGP_CHECK(garbage_ == static_cast<EdgeIndex>(adj_.size()) - row_slots,
             "abandoned-slot counter out of sync");
  PIGP_CHECK(total_weight == total_vertex_weight_ ||
                 std::abs(total_weight - total_vertex_weight_) <=
                     1e-9 * (1.0 + std::abs(total_weight)),
             "total vertex weight out of sync");
}

bool operator==(const Graph& a, const Graph& b) {
  const VertexId n = a.num_vertices();
  if (n != b.num_vertices() || a.num_half_edges_ != b.num_half_edges_) {
    return false;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (a.is_live(v) != b.is_live(v)) return false;
    if (!a.is_live(v)) continue;
    if (a.vertex_weight(v) != b.vertex_weight(v)) return false;
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    if (!std::equal(an.begin(), an.end(), bn.begin(), bn.end())) return false;
    const auto aw = a.incident_edge_weights(v);
    const auto bw = b.incident_edge_weights(v);
    if (!std::equal(aw.begin(), aw.end(), bw.begin(), bw.end())) return false;
  }
  return true;
}

}  // namespace pigp::graph
