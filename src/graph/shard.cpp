#include "graph/shard.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace pigp::graph {
namespace {

/// Shared assembly: row filtering + CSR build, fed one vertex row at a
/// time by both the streaming loader and the in-memory cutter so the two
/// produce byte-identical shards.
class ShardAssembler {
 public:
  ShardAssembler(const Partitioning& p, int rank, int num_ranks)
      : p_(p), rank_(rank), num_ranks_(num_ranks) {
    PIGP_CHECK(num_ranks >= 1, "shard needs at least one rank");
    PIGP_CHECK(rank >= 0 && rank < num_ranks, "shard rank out of range");
    PIGP_CHECK(p.num_parts >= 1, "shard needs a partitioned graph");
    const auto n = p.part.size();
    shard_.rank = rank;
    shard_.num_ranks = num_ranks;
    shard_.partitioning = p;
    shard_.resident.assign(n, 0);
    for (PartId q = 0; q < p.num_parts; ++q) {
      if (shard_owner(q, num_ranks) == rank) {
        shard_.owned_parts.push_back(q);
      }
    }
    xadj_.reserve(n + 1);
    xadj_.push_back(0);
    vweights_.reserve(n);
  }

  [[nodiscard]] bool is_resident(VertexId v) const {
    const PartId q = p_.part[static_cast<std::size_t>(v)];
    return q >= 0 && shard_owner(q, num_ranks_) == rank_;
  }

  /// Append vertex \p v's full row (sorted neighbor ids + weights).  Rows
  /// must arrive in ascending vertex order.
  void add_row(VertexId v, double vertex_weight,
               const std::vector<VertexId>& nbrs,
               const std::vector<double>& weights) {
    PIGP_CHECK(static_cast<std::size_t>(v) + 1 == xadj_.size(),
               "shard rows must arrive in vertex order");
    vweights_.push_back(vertex_weight);
    if (is_resident(v)) {
      // Resident: the row is kept byte-identical to the full graph's —
      // layering tally order and selection order read it as stored.
      shard_.resident[static_cast<std::size_t>(v)] = 1;
      adjncy_.insert(adjncy_.end(), nbrs.begin(), nbrs.end());
      eweights_.insert(eweights_.end(), weights.begin(), weights.end());
      shard_.resident_half_edges += static_cast<std::int64_t>(nbrs.size());
    } else {
      // Halo: keep only the reverse edges into resident vertices, which
      // preserves symmetry (validate()) and gives the boundary term of
      // the O(V/ranks + boundary) footprint.
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (!is_resident(nbrs[i])) continue;
        adjncy_.push_back(nbrs[i]);
        eweights_.push_back(weights[i]);
        ++shard_.halo_half_edges;
      }
    }
    xadj_.push_back(static_cast<EdgeIndex>(adjncy_.size()));
    shard_.total_half_edges += static_cast<std::int64_t>(nbrs.size());
  }

  [[nodiscard]] GraphShard finish() {
    PIGP_CHECK(xadj_.size() == p_.part.size() + 1,
               "shard loader saw fewer rows than the partitioning");
    shard_.graph = Graph(std::move(xadj_), std::move(adjncy_),
                         std::move(vweights_), std::move(eweights_));
    return std::move(shard_);
  }

 private:
  const Partitioning& p_;
  int rank_;
  int num_ranks_;
  GraphShard shard_;
  std::vector<EdgeIndex> xadj_;
  std::vector<VertexId> adjncy_;
  std::vector<double> vweights_;
  std::vector<double> eweights_;
};

}  // namespace

Partitioning contiguous_partitioning(VertexId n, PartId parts, double skew) {
  PIGP_CHECK(parts >= 1, "need at least one partition");
  PIGP_CHECK(n >= parts, "fewer vertices than partitions");
  PIGP_CHECK(skew >= 0.0, "skew must be non-negative");
  Partitioning p;
  p.num_parts = parts;
  p.part.resize(static_cast<std::size_t>(n));
  // Range sizes proportional to 1 + skew * q, fixed by cumulative rounding
  // so the ranges tile [0, n) exactly and deterministically.
  double total = 0.0;
  for (PartId q = 0; q < parts; ++q) total += 1.0 + skew * q;
  double prefix = 0.0;
  VertexId begin = 0;
  for (PartId q = 0; q < parts; ++q) {
    prefix += 1.0 + skew * q;
    VertexId end = q + 1 == parts
                       ? n
                       : static_cast<VertexId>(
                             static_cast<double>(n) * prefix / total);
    // Guarantee every partition at least one vertex even under rounding.
    end = std::max(end, begin + 1);
    end = std::min<VertexId>(end, n - (parts - 1 - q));
    for (VertexId v = begin; v < end; ++v) {
      p.part[static_cast<std::size_t>(v)] = q;
    }
    begin = end;
  }
  return p;
}

GraphShard load_shard(std::istream& is, const Partitioning& p, int rank,
                      int num_ranks) {
  std::string line;
  const auto next_line = [&is, &line]() -> bool {
    while (std::getline(is, line)) {
      if (!line.empty() && line[0] != '%') return true;
    }
    return false;
  };

  PIGP_CHECK(next_line(), "METIS stream missing header");
  std::istringstream header(line);
  std::int64_t n = 0;
  std::int64_t m = 0;
  std::string fmt = "0";
  header >> n >> m;
  PIGP_CHECK(!header.fail(), "malformed METIS header");
  header >> fmt;  // optional
  const bool vwgt = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';
  const bool ewgt = !fmt.empty() && fmt.back() == '1' && fmt != "0";
  PIGP_CHECK(static_cast<std::size_t>(n) == p.part.size(),
             "partitioning size does not match the METIS header");

  ShardAssembler assembler(p, rank, num_ranks);
  std::vector<VertexId> nbrs;
  std::vector<double> weights;
  for (std::int64_t v = 0; v < n; ++v) {
    PIGP_CHECK(next_line(), "METIS stream truncated");
    std::istringstream row(line);
    double vweight = 1.0;
    if (vwgt) {
      row >> vweight;
      PIGP_CHECK(!row.fail(), "missing vertex weight");
    }
    nbrs.clear();
    weights.clear();
    std::int64_t u = 0;
    while (row >> u) {
      PIGP_CHECK(u >= 1 && u <= n, "neighbor id out of range");
      double w = 1.0;
      if (ewgt) {
        row >> w;
        PIGP_CHECK(!row.fail(), "missing edge weight");
      }
      nbrs.push_back(static_cast<VertexId>(u - 1));
      weights.push_back(w);
    }
    assembler.add_row(static_cast<VertexId>(v), vweight, nbrs, weights);
  }
  GraphShard shard = assembler.finish();
  PIGP_CHECK(shard.total_half_edges == 2 * m,
             "edge count does not match header");
  // Outside input: reject self-loops and unsorted or asymmetric rows, which
  // the worker's in-place row install and byte-identical rows rely on.
  shard.graph.validate();
  return shard;
}

GraphShard load_shard_file(const std::string& path, const Partitioning& p,
                           int rank, int num_ranks) {
  std::ifstream is(path);
  PIGP_CHECK(is.good(), "cannot open file for reading: " + path);
  return load_shard(is, p, rank, num_ranks);
}

GraphShard make_shard(const Graph& g, const Partitioning& p, int rank,
                      int num_ranks) {
  PIGP_CHECK(static_cast<std::size_t>(g.num_vertices()) == p.part.size(),
             "partitioning size does not match the graph");
  ShardAssembler assembler(p, rank, num_ranks);
  std::vector<VertexId> nbrs;
  std::vector<double> weights;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto row_nbrs = g.neighbors(v);
    const auto row_weights = g.incident_edge_weights(v);
    nbrs.assign(row_nbrs.begin(), row_nbrs.end());
    weights.assign(row_weights.begin(), row_weights.end());
    assembler.add_row(v, g.vertex_weight(v), nbrs, weights);
  }
  GraphShard shard = assembler.finish();
  // The shard keeps the full graph's ids, so it keeps its keys too.
  shard.graph.set_vertex_keys(g.vertex_keys(), g.next_vertex_key());
  shard.graph.validate();  // freshly cut shards are symmetric by design
  return shard;
}

}  // namespace pigp::graph
