// Reproduction of the paper's parallel-speedup claim (§3): "The algorithm
// provides speedup of around 15 to 20 on a 32 node CM-5."
//
// Experiments, all through the pigp::Session API:
//  1. SPMD engine: IGPR over the in-process message-passing carrier vs
//     rank count (the communication structure of the CM-5 code) on the
//     largest paper workload (mesh B, +672 nodes), selected via the "spmd"
//     backend — the library's only parallel model;
//  2. session streaming throughput: deltas absorbed per second on the
//     scaled 400k-vertex workload, with and without batching — the
//     baseline number for streaming-path perf PRs;
//  3. concurrent ingest/serve: the same stream through an AsyncSession
//     while reader threads hammer part_of on the epoch-published view —
//     sustained deltas/s with readers attached should stay close to the
//     single-threaded vertex_count row.
//
// Absolute speedups differ from a 1994 CM-5 (this problem is tiny for a
// modern core, so Amdahl effects bite sooner); the shape to verify is that
// parallel time is well below serial time and scales with ranks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <cmath>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mesh/paper_meshes.hpp"
#include "pigp.hpp"
#include "support/rng.hpp"

namespace {

using namespace pigp;

/// One timed repartition through a Session with \p spmd_ranks ranks.
double timed_session_extend(const graph::Graph& base,
                            const graph::Partitioning& initial,
                            const graph::Graph& g_new, int spmd_ranks) {
  SessionConfig config;
  config.num_parts = initial.num_parts;
  config.backend = "spmd";
  config.spmd_ranks = spmd_ranks;
  Session session(config, base, initial);
  graph::Graph extended = g_new;  // copy outside the timed region
  runtime::WallTimer timer;
  (void)session.apply_extended(std::move(extended), base.num_vertices());
  return timer.seconds();
}

/// A localized burst of new vertices attached to random existing ones —
/// the stream unit for the throughput experiment.
graph::GraphDelta make_stream_delta(graph::VertexId current_vertices,
                                    int burst, SplitMix64& rng) {
  graph::GraphDelta delta;
  delta.added_vertices.reserve(static_cast<std::size_t>(burst));
  // Anchor the burst near one random vertex so it is localized, like a
  // refinement front.
  const auto anchor = static_cast<graph::VertexId>(
      rng.next_below(static_cast<std::uint64_t>(current_vertices)));
  for (int i = 0; i < burst; ++i) {
    graph::VertexAddition add;
    const auto jitter = static_cast<graph::VertexId>(rng.next_below(64));
    const graph::VertexId a =
        std::min<graph::VertexId>(current_vertices - 1, anchor + jitter);
    add.edges.emplace_back(a, 1.0);
    if (i > 0) {
      // Chain into the previous new vertex so the burst is connected.
      add.edges.emplace_back(current_vertices + i - 1, 1.0);
    }
    delta.added_vertices.push_back(std::move(add));
  }
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: seconds-scale CI run — single rep, {1,2} ranks, and a much
  // smaller "scaled" graph; the full sweep is for real measurements.
  // --json <file>: additionally emit the streaming-throughput section as
  // machine-readable JSON so CI can archive the perf trajectory.
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int reps = smoke ? 1 : 3;
  const std::vector<int> rank_points =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8, 16, 32};
  std::cout << "=== Speedup: IGPR on mesh B +672 nodes, P = "
            << bench::kPaperPartitions << " ===\n";
  std::cout << "(paper: 15-20x on a 32-node CM-5)\n\n";

  const mesh::MeshFamily family = mesh::make_paper_mesh_b();
  const graph::Graph& g = family.refined.back();
  const graph::Partitioning initial =
      spectral::recursive_spectral_bisection(family.base,
                                             bench::kPaperPartitions);

  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";

  std::cout << "=== SPMD (message-passing) backend ===\n";
  TextTable spmd_table({"ranks", "time (s)", "speedup vs 1 rank"});
  double spmd_serial = 0.0;
  for (const int ranks : rank_points) {
    double best = 1e9;
    for (int rep = 0; rep < std::min(reps, 2); ++rep) {
      best = std::min(best,
                      timed_session_extend(family.base, initial, g, ranks));
    }
    if (ranks == 1) spmd_serial = best;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", spmd_serial / best);
    spmd_table.add_row(ranks, best, buf);
  }
  spmd_table.print(std::cout);

  // The streaming experiments run on a 40x larger mesh-like graph than the
  // paper's: the 1994 workload is tiny for a 2020s core.
  const int big_n = smoke ? 20000 : 400000;
  const graph::Graph big = graph::random_geometric_graph(
      big_n, 1.2 / std::sqrt(static_cast<double>(big_n)), 9);

  // ---------------------------------------------------------------------
  // Session streaming throughput: the delta-stream path the Session API
  // adds.  Deltas of `burst` new vertices stream into one session; with
  // batch_policy=vertex_count only every few deltas triggers the LP
  // rebalance, so cheap absorption amortizes the repartition cost.
  const int stream_deltas = smoke ? 8 : 64;
  const int burst = smoke ? 32 : 128;
  std::cout << "\n=== Session streaming throughput: " << stream_deltas
            << " deltas x " << burst << " new vertices on the " << big_n
            << "-vertex graph ===\n";
  graph::Partitioning stream_initial =
      spectral::recursive_graph_bisection(big, bench::kPaperPartitions);
  // absorb (s) is delta application + step-1 assignment, rebalance (s) the
  // backend — the split shows what the O(Δ)-maintained PartitionState
  // leaves on the absorption path vs the LP pipeline.
  TextTable stream_table({"batch policy", "repartitions", "time (s)",
                          "absorb (s)", "rebalance (s)", "deltas/s",
                          "final imbalance"});
  struct PolicyPoint {
    const char* label;
    const char* key;
    BatchPolicy policy;
    int vertex_limit;
  };
  struct StreamRow {
    const char* key;
    std::int64_t repartitions;
    double seconds;
    double absorb_seconds;
    double rebalance_seconds;
    double deltas_per_second;
    double final_imbalance;
  };
  std::vector<StreamRow> stream_rows;
  for (const PolicyPoint point :
       {PolicyPoint{"every_delta", "every_delta", BatchPolicy::every_delta,
                    1},
        PolicyPoint{"vertex_count(8 bursts)", "vertex_count",
                    BatchPolicy::vertex_count, 8 * burst}}) {
    SessionConfig config;
    config.num_parts = bench::kPaperPartitions;
    config.backend = "igpr";
    config.batch_policy = point.policy;
    config.batch_vertex_limit = point.vertex_limit;
    Session session(config, big, stream_initial);
    SplitMix64 rng(2026);
    runtime::WallTimer timer;
    for (int d = 0; d < stream_deltas; ++d) {
      (void)session.apply(make_stream_delta(session.graph().num_vertices(),
                                            burst, rng));
    }
    // Flush any batched tail so the comparison ends balanced.
    if (session.pending_updates() > 0) (void)session.repartition();
    const double seconds = timer.seconds();
    // summary() is the O(P) incremental read — no O(V+E) recount inside
    // the measured region's tail.
    stream_table.add_row(point.label, session.counters().repartitions,
                         seconds, session.counters().update_seconds,
                         session.counters().repartition_seconds,
                         stream_deltas / seconds,
                         session.summary().imbalance);
    stream_rows.push_back({point.key, session.counters().repartitions,
                           seconds, session.counters().update_seconds,
                           session.counters().repartition_seconds,
                           stream_deltas / seconds,
                           session.summary().imbalance});
  }
  stream_table.print(std::cout);

  // ---------------------------------------------------------------------
  // Structural-delta streaming: deltas that REMOVE as well as add (edge
  // cuts, vertex retirements, new vertices anchored on live survivors).
  // Three rows, same scripted churn:
  //   rebuild          apply_delta's from-scratch path — every delta pays
  //                    O(V+E) to rebuild the CSR and remap ids (the wall
  //                    this PR removes; kept as the reference oracle);
  //   mutable          the slotted graph's in-place mutators — every delta
  //                    costs O(Δ·deg), independent of |V| and |E|;
  //   session_deferred the full Session path under deferred compaction
  //                    (stable ids, O(Δ) absorption) including the
  //                    periodic rebalance ticks.
  // structural_speedup = mutable/rebuild deltas/s is a same-machine ratio,
  // so the CI gate tracks the representation win itself, not the runner.
  const int struct_deltas = smoke ? 24 : 64;
  std::cout << "\n=== Structural-delta streaming: " << struct_deltas
            << " deltas (4 edge cuts + 2 vertex removals + 2 adds + 4 new"
               " edges each) on the "
            << big_n << "-vertex graph ===\n";
  struct StructRow {
    const char* key;
    double seconds;
    double deltas_per_second;
  };
  std::vector<StructRow> struct_rows;
  // Per-delta churn counts, shared by all three rows.
  constexpr int kCutEdges = 4;
  constexpr int kRemovedVertices = 2;
  constexpr int kAddedVertices = 2;
  constexpr int kAddedEdges = 4;
  const auto pick_alive = [](const std::vector<graph::VertexId>& alive,
                             SplitMix64& rng) {
    return alive[rng.next_below(alive.size())];
  };
  {  // rebuild row: the historical full-rebuild path, including the O(V)
     // id remap every consumer of old_to_new had to pay.
    graph::Graph g = big;
    std::vector<graph::VertexId> alive(
        static_cast<std::size_t>(g.num_vertices()));
    std::iota(alive.begin(), alive.end(), 0);
    SplitMix64 rng(2030);
    runtime::WallTimer timer;
    for (int d = 0; d < struct_deltas; ++d) {
      graph::GraphDelta delta;
      for (int i = 0; i < kCutEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const auto nbrs = g.neighbors(u);
        if (nbrs.empty()) continue;
        const graph::VertexId v = nbrs[rng.next_below(nbrs.size())];
        const auto e = graph::canonical_edge(u, v);
        if (std::find(delta.removed_edges.begin(), delta.removed_edges.end(),
                      e) == delta.removed_edges.end()) {
          delta.removed_edges.push_back(e);
        }
      }
      for (int i = 0; i < kRemovedVertices; ++i) {
        const std::size_t k = rng.next_below(alive.size());
        delta.removed_vertices.push_back(alive[k]);
        alive[k] = alive.back();
        alive.pop_back();
      }
      for (int i = 0; i < kAddedVertices; ++i) {
        graph::VertexAddition add;
        const graph::VertexId a = pick_alive(alive, rng);
        const graph::VertexId b = pick_alive(alive, rng);
        add.edges.emplace_back(a, 1.0);
        if (b != a) add.edges.emplace_back(b, 1.0);
        delta.added_vertices.push_back(std::move(add));
      }
      for (int i = 0; i < kAddedEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const graph::VertexId v = pick_alive(alive, rng);
        if (u != v) delta.added_edges.emplace_back(u, v);
      }
      graph::DeltaResult r = graph::apply_delta(g, delta);
      g = std::move(r.graph);
      for (graph::VertexId& id : alive) {
        id = r.old_to_new[static_cast<std::size_t>(id)];
      }
      alive.insert(alive.end(), r.new_vertex_ids.begin(),
                   r.new_vertex_ids.end());
    }
    const double seconds = timer.seconds();
    struct_rows.push_back({"rebuild", seconds, struct_deltas / seconds});
  }
  {  // mutable row: identical churn through the in-place mutators.
    graph::Graph g = big;
    std::vector<graph::VertexId> alive(
        static_cast<std::size_t>(g.num_vertices()));
    std::iota(alive.begin(), alive.end(), 0);
    SplitMix64 rng(2030);
    runtime::WallTimer timer;
    for (int d = 0; d < struct_deltas; ++d) {
      for (int i = 0; i < kCutEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const auto nbrs = g.neighbors(u);
        if (nbrs.empty()) continue;
        const graph::VertexId v = nbrs[rng.next_below(nbrs.size())];
        if (g.has_edge(u, v)) (void)g.remove_edge(u, v);
      }
      for (int i = 0; i < kRemovedVertices; ++i) {
        const std::size_t k = rng.next_below(alive.size());
        g.remove_vertex(alive[k]);
        alive[k] = alive.back();
        alive.pop_back();
      }
      for (int i = 0; i < kAddedVertices; ++i) {
        const graph::VertexId id = g.add_vertex(1.0);
        const graph::VertexId a = pick_alive(alive, rng);
        const graph::VertexId b = pick_alive(alive, rng);
        (void)g.insert_edge(id, a, 1.0);
        if (b != a) (void)g.insert_edge(id, b, 1.0);
        alive.push_back(id);
      }
      for (int i = 0; i < kAddedEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const graph::VertexId v = pick_alive(alive, rng);
        if (u != v) (void)g.insert_edge(u, v, 1.0);
      }
    }
    const double seconds = timer.seconds();
    struct_rows.push_back({"mutable", seconds, struct_deltas / seconds});
    g.validate();  // the fast path must still be a well-formed graph
  }
  {  // session_deferred row: the full API path, rebalance ticks included.
    SessionConfig config;
    config.num_parts = bench::kPaperPartitions;
    config.backend = "igpr";
    config.batch_policy = BatchPolicy::vertex_count;
    config.batch_vertex_limit =
        struct_deltas * (kRemovedVertices + kAddedVertices) / 4;
    config.graph_compaction = GraphCompaction::deferred;
    config.compaction_slack = 1.0;  // pure O(Δ): ids stay stable throughout
    Session session(config, big, stream_initial);
    std::vector<graph::VertexId> alive(
        static_cast<std::size_t>(big.num_vertices()));
    std::iota(alive.begin(), alive.end(), 0);
    SplitMix64 rng(2030);
    runtime::WallTimer timer;
    for (int d = 0; d < struct_deltas; ++d) {
      graph::GraphDelta delta;
      const graph::Graph& g = session.graph();
      for (int i = 0; i < kCutEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const auto nbrs = g.neighbors(u);
        if (nbrs.empty()) continue;
        const graph::VertexId v = nbrs[rng.next_below(nbrs.size())];
        const auto e = graph::canonical_edge(u, v);
        if (std::find(delta.removed_edges.begin(), delta.removed_edges.end(),
                      e) == delta.removed_edges.end()) {
          delta.removed_edges.push_back(e);
        }
      }
      for (int i = 0; i < kRemovedVertices; ++i) {
        const std::size_t k = rng.next_below(alive.size());
        delta.removed_vertices.push_back(alive[k]);
        alive[k] = alive.back();
        alive.pop_back();
      }
      for (int i = 0; i < kAddedVertices; ++i) {
        graph::VertexAddition add;
        const graph::VertexId a = pick_alive(alive, rng);
        const graph::VertexId b = pick_alive(alive, rng);
        add.edges.emplace_back(a, 1.0);
        if (b != a) add.edges.emplace_back(b, 1.0);
        delta.added_vertices.push_back(std::move(add));
      }
      for (int i = 0; i < kAddedEdges; ++i) {
        const graph::VertexId u = pick_alive(alive, rng);
        const graph::VertexId v = pick_alive(alive, rng);
        if (u != v) delta.added_edges.emplace_back(u, v);
      }
      (void)session.apply(delta);
      for (int i = kAddedVertices; i > 0; --i) {
        alive.push_back(session.graph().num_vertices() - i);
      }
    }
    if (session.pending_updates() > 0) (void)session.repartition();
    const double seconds = timer.seconds();
    struct_rows.push_back(
        {"session_deferred", seconds, struct_deltas / seconds});
  }
  double structural_speedup = 0.0;
  {
    double rebuild_dps = 0.0;
    double mutable_dps = 0.0;
    TextTable struct_table({"path", "time (s)", "deltas/s", "vs rebuild"});
    for (const StructRow& r : struct_rows) {
      if (std::strcmp(r.key, "rebuild") == 0) rebuild_dps = r.deltas_per_second;
      if (std::strcmp(r.key, "mutable") == 0) mutable_dps = r.deltas_per_second;
    }
    structural_speedup =
        rebuild_dps > 0.0 ? mutable_dps / rebuild_dps : 0.0;
    for (const StructRow& r : struct_rows) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1fx",
                    rebuild_dps > 0.0 ? r.deltas_per_second / rebuild_dps
                                      : 0.0);
      struct_table.add_row(r.key, r.seconds, r.deltas_per_second, buf);
    }
    struct_table.print(std::cout);
  }

  // ---------------------------------------------------------------------
  // Concurrent ingest/serve: the same vertex_count delta stream pushed
  // through an AsyncSession while reader threads hammer part_of on the
  // epoch-published view.  The number to watch is sustained deltas/s with
  // readers attached vs the single-threaded vertex_count row above — the
  // view publication protocol should cost the writer almost nothing.
  // Readers duty-cycle (a lookup batch, then a short sleep) so the bench
  // is meaningful on few-core CI runners where 1 + 1 + N busy threads
  // would otherwise just time-slice the writer to death.
  const int reader_threads = 4;
  std::cout << "\n=== Concurrent ingest/serve: " << stream_deltas
            << " deltas x " << burst << " new vertices, " << reader_threads
            << " readers on the published view ===\n";
  double cs_seconds = 0.0;
  double cs_dps = 0.0;
  double cs_lookups_per_second = 0.0;
  double cs_imbalance = 0.0;
  std::uint64_t cs_epochs = 0;
  std::int64_t cs_committed = 0;
  std::uint64_t cs_lookups = 0;
  {
    SessionConfig config;
    config.num_parts = bench::kPaperPartitions;
    config.backend = "igpr";
    config.batch_policy = BatchPolicy::vertex_count;
    config.batch_vertex_limit = 8 * burst;
    AsyncSession session(config, big, stream_initial);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> checksum{0};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<std::size_t>(reader_threads));
    for (int r = 0; r < reader_threads; ++r) {
      readers.emplace_back([&session, &stop, &lookups, &checksum, r] {
        SplitMix64 reader_rng(0x9e3779b9u + static_cast<std::uint64_t>(r));
        std::shared_ptr<const PartitionView> view = session.view();
        std::uint64_t seen = view->epoch();
        std::uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (session.epoch() != seen) {  // one relaxed load per batch
            view = session.view();
            seen = view->epoch();
          }
          const auto n = static_cast<std::uint64_t>(view->num_vertices());
          for (int i = 0; i < 256; ++i) {
            const auto v =
                static_cast<graph::VertexId>(reader_rng.next_below(n));
            local += static_cast<std::uint64_t>(view->part_of(v));
          }
          lookups.fetch_add(256, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        checksum.fetch_add(local, std::memory_order_relaxed);
      });
    }

    SplitMix64 rng(2026);
    graph::VertexId current = big.num_vertices();
    runtime::WallTimer timer;
    for (int d = 0; d < stream_deltas; ++d) {
      session.submit(make_stream_delta(current, burst, rng));
      current += burst;
    }
    session.flush();
    cs_seconds = timer.seconds();
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();
    if (checksum.load() == std::uint64_t(-1)) return 1;  // keep loops live

    cs_lookups = lookups.load();
    cs_dps = stream_deltas / cs_seconds;
    cs_lookups_per_second = static_cast<double>(cs_lookups) / cs_seconds;
    cs_epochs = session.epoch();
    cs_committed =
        static_cast<std::int64_t>(session.stats().rebalances_committed);
    cs_imbalance = session.view()->summary().imbalance;
    session.close();
  }
  double baseline_dps = 0.0;
  for (const StreamRow& r : stream_rows) {
    if (std::strcmp(r.key, "vertex_count") == 0) {
      baseline_dps = r.deltas_per_second;
    }
  }
  const double cs_ratio = baseline_dps > 0.0 ? cs_dps / baseline_dps : 0.0;
  {
    TextTable cs_table({"readers", "rebalances", "time (s)", "deltas/s",
                        "lookups/s", "epochs", "vs 1-thread"});
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", cs_ratio);
    cs_table.add_row(reader_threads, cs_committed, cs_seconds, cs_dps,
                     cs_lookups_per_second, cs_epochs, buf);
    cs_table.print(std::cout);
  }

  // ---------------------------------------------------------------------
  // Distributed streaming: the same vertex_count delta stream through the
  // SPMD backend, once per transport.  "in_process" runs the ranks over
  // in-process mailboxes; "tcp" and "tcp+delta" run every rank over real
  // loopback sockets (framing, filter chain, socket timeouts).  The
  // deltas/s gap between the rows is the wire cost of the distributed
  // path, and all transports must land on the identical partition
  // (bit-parity is a correctness gate here, not just a test).
  const int dist_ranks = 2;
  std::cout << "\n=== Distributed streaming: SPMD backend, " << dist_ranks
            << " ranks, " << stream_deltas << " deltas x " << burst
            << " new vertices ===\n";
  struct DistRow {
    std::string key;
    std::int64_t repartitions;
    double seconds;
    double deltas_per_second;
    double final_imbalance;
  };
  std::vector<DistRow> dist_rows;
  std::vector<graph::PartId> dist_reference;
  TextTable dist_table({"transport", "repartitions", "time (s)", "deltas/s",
                        "final imbalance", "parity"});
  struct TransportPoint {
    const char* key;
    const char* transport;
    const char* filters;
  };
  for (const TransportPoint point :
       {TransportPoint{"in_process", "in_process", ""},
        TransportPoint{"tcp", "tcp", ""},
        TransportPoint{"tcp+delta", "tcp", "delta"}}) {
    SessionConfig config;
    config.num_parts = bench::kPaperPartitions;
    config.backend = "spmd";
    config.spmd_ranks = dist_ranks;
    config.spmd_transport = point.transport;
    config.spmd_wire_filters = point.filters;
    config.batch_policy = BatchPolicy::vertex_count;
    config.batch_vertex_limit = 8 * burst;
    Session session(config, big, stream_initial);
    SplitMix64 rng(2026);
    runtime::WallTimer timer;
    for (int d = 0; d < stream_deltas; ++d) {
      (void)session.apply(make_stream_delta(session.graph().num_vertices(),
                                            burst, rng));
    }
    if (session.pending_updates() > 0) (void)session.repartition();
    const double seconds = timer.seconds();
    const char* parity = "reference";
    if (dist_reference.empty()) {
      dist_reference = session.partitioning().part;
    } else if (session.partitioning().part == dist_reference) {
      parity = "identical";
    } else {
      std::cerr << "FATAL: transport " << point.key
                << " diverged from in_process\n";
      return 1;
    }
    dist_table.add_row(point.key, session.counters().repartitions, seconds,
                       stream_deltas / seconds, session.summary().imbalance,
                       parity);
    dist_rows.push_back({point.key, session.counters().repartitions, seconds,
                         stream_deltas / seconds,
                         session.summary().imbalance});
  }
  dist_table.print(std::cout);

  // ---------------------------------------------------------------------
  // Boundary-fraction layering sweep: batch layering vs the boundary-
  // seeded, depth-capped layering as the dirty-boundary share grows —
  // the cost model the streaming path's step 2 rides on.  Starting from a
  // clean RGB partitioning, `permille` of the vertices are randomly
  // reassigned; the batch path rescans every member of every partition
  // regardless, the boundary-seeded path costs O(boundary · depth).  The
  // seeded_speedup ratio is what the CI perf gate tracks (it is largely
  // machine-independent, unlike raw milliseconds).
  // Best-of-many: the per-iteration cost is ~1 ms, and the CI perf gate
  // tracks the full/seeded ratio, so cheap repetition buys stability.  The
  // repetition loops are additionally time-boxed so sanitizer builds (one
  // to two orders of magnitude slower) stay inside the smoke budget.
  const int sweep_n = smoke ? 8000 : 16000;
  const int sweep_reps = smoke ? 20 : 30;
  const double sweep_budget_s = 1.5;
  std::cout << "\n=== Layering cost vs boundary fraction: " << sweep_n
            << "-vertex geometric graph, P = 32, depth cap 4 ===\n";
  struct SweepRow {
    int permille;
    std::int64_t boundary_vertices;
    double full_ms;
    double seeded_ms;
    double seeded_speedup;
  };
  std::vector<SweepRow> sweep_rows;
  TextTable sweep_table({"dirty permille", "boundary vertices", "full (ms)",
                         "boundary-seeded (ms)", "speedup"});
  // One graph + one base partitioning for all points (the expensive part);
  // each point dirties its own copy.
  const graph::Graph sweep_graph = graph::random_geometric_graph(
      sweep_n, 1.2 / std::sqrt(static_cast<double>(sweep_n)), 17);
  const graph::Partitioning sweep_base =
      spectral::recursive_graph_bisection(sweep_graph,
                                          bench::kPaperPartitions);
  for (const int permille : {10, 100, 500}) {
    graph::Partitioning sweep_p = sweep_base;
    graph::PartitionState sweep_state(sweep_graph, sweep_p);
    SplitMix64 sweep_rng(2027);
    const auto dirty = static_cast<int>(
        static_cast<std::int64_t>(sweep_n) * permille / 1000);
    for (int i = 0; i < dirty; ++i) {
      const auto v = static_cast<graph::VertexId>(
          sweep_rng.next_below(static_cast<std::uint64_t>(sweep_n)));
      const auto to = static_cast<graph::PartId>(
          sweep_rng.next_below(bench::kPaperPartitions));
      sweep_state.move_vertex(sweep_graph, sweep_p, v, to);
    }
    std::int64_t boundary = 0;
    for (graph::PartId q = 0; q < sweep_p.num_parts; ++q) {
      boundary += static_cast<std::int64_t>(
          sweep_state.boundary_vertices(q).size());
    }
    double full_s = 1e9;
    runtime::WallTimer full_budget;
    for (int rep = 0; rep < sweep_reps; ++rep) {
      runtime::WallTimer timer;
      const core::LayeringResult r =
          core::layer_partitions(sweep_graph, sweep_p);
      full_s = std::min(full_s, timer.seconds());
      if (r.label.empty()) return 1;  // keep the optimizer honest
      if (full_budget.seconds() > sweep_budget_s) break;
    }
    // Grown to max_layers = 4, the first deepened shell of a balance stage
    // (its first decision reads the seeds alone); the persistent object is
    // the session-workspace configuration.
    core::BoundaryLayering layering(sweep_graph, sweep_p);
    double seeded_s = 1e9;
    runtime::WallTimer seeded_budget;
    for (int rep = 0; rep < sweep_reps; ++rep) {
      runtime::WallTimer timer;
      layering.reseed(sweep_state);
      layering.grow(4);
      seeded_s = std::min(seeded_s, timer.seconds());
      if (seeded_budget.seconds() > sweep_budget_s) break;
    }
    const SweepRow row{permille, boundary, full_s * 1e3, seeded_s * 1e3,
                       full_s / seeded_s};
    sweep_rows.push_back(row);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", row.seeded_speedup);
    sweep_table.add_row(permille, boundary, row.full_ms, row.seeded_ms, buf);
  }
  sweep_table.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_speedup\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"sections\": {\n"
        << "    \"session_streaming\": {\n"
        << "      \"graph_vertices\": " << big_n << ",\n"
        << "      \"num_parts\": " << bench::kPaperPartitions << ",\n"
        << "      \"deltas\": " << stream_deltas << ",\n"
        << "      \"burst\": " << burst << ",\n"
        << "      \"policies\": [\n";
    for (std::size_t i = 0; i < stream_rows.size(); ++i) {
      const StreamRow& r = stream_rows[i];
      out << "        {\"policy\": \"" << r.key << "\""
          << ", \"repartitions\": " << r.repartitions
          << ", \"seconds\": " << r.seconds
          << ", \"absorb_seconds\": " << r.absorb_seconds
          << ", \"rebalance_seconds\": " << r.rebalance_seconds
          << ", \"deltas_per_second\": " << r.deltas_per_second
          << ", \"final_imbalance\": " << r.final_imbalance << "}"
          << (i + 1 < stream_rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    },\n"
        << "    \"structural_streaming\": {\n"
        << "      \"graph_vertices\": " << big_n << ",\n"
        << "      \"num_parts\": " << bench::kPaperPartitions << ",\n"
        << "      \"deltas\": " << struct_deltas << ",\n"
        << "      \"cut_edges\": " << kCutEdges << ",\n"
        << "      \"removed_vertices\": " << kRemovedVertices << ",\n"
        << "      \"added_vertices\": " << kAddedVertices << ",\n"
        << "      \"added_edges\": " << kAddedEdges << ",\n"
        << "      \"structural_speedup\": " << structural_speedup << ",\n"
        << "      \"rows\": [\n";
    for (std::size_t i = 0; i < struct_rows.size(); ++i) {
      const StructRow& r = struct_rows[i];
      out << "        {\"path\": \"" << r.key << "\""
          << ", \"seconds\": " << r.seconds
          << ", \"deltas_per_second\": " << r.deltas_per_second << "}"
          << (i + 1 < struct_rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    },\n"
        << "    \"concurrent_streaming\": {\n"
        << "      \"graph_vertices\": " << big_n << ",\n"
        << "      \"num_parts\": " << bench::kPaperPartitions << ",\n"
        << "      \"deltas\": " << stream_deltas << ",\n"
        << "      \"burst\": " << burst << ",\n"
        << "      \"reader_threads\": " << reader_threads << ",\n"
        << "      \"deltas_per_second\": " << cs_dps << ",\n"
        << "      \"lookups_per_second\": " << cs_lookups_per_second << ",\n"
        << "      \"epochs_published\": " << cs_epochs << ",\n"
        << "      \"rebalances_committed\": " << cs_committed << ",\n"
        << "      \"final_imbalance\": " << cs_imbalance << ",\n"
        << "      \"single_thread_ratio\": " << cs_ratio << "\n"
        << "    },\n"
        << "    \"distributed_streaming\": {\n"
        << "      \"graph_vertices\": " << big_n << ",\n"
        << "      \"num_parts\": " << bench::kPaperPartitions << ",\n"
        << "      \"deltas\": " << stream_deltas << ",\n"
        << "      \"burst\": " << burst << ",\n"
        << "      \"ranks\": " << dist_ranks << ",\n"
        << "      \"transports\": [\n";
    for (std::size_t i = 0; i < dist_rows.size(); ++i) {
      const DistRow& r = dist_rows[i];
      out << "        {\"transport\": \"" << r.key << "\""
          << ", \"repartitions\": " << r.repartitions
          << ", \"seconds\": " << r.seconds
          << ", \"deltas_per_second\": " << r.deltas_per_second
          << ", \"final_imbalance\": " << r.final_imbalance << "}"
          << (i + 1 < dist_rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    },\n"
        << "    \"layering_sweep\": {\n"
        << "      \"graph_vertices\": " << sweep_n << ",\n"
        << "      \"num_parts\": " << bench::kPaperPartitions << ",\n"
        << "      \"depth_cap\": 4,\n"
        << "      \"points\": [\n";
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      const SweepRow& r = sweep_rows[i];
      out << "        {\"permille\": " << r.permille
          << ", \"boundary_vertices\": " << r.boundary_vertices
          << ", \"full_ms\": " << r.full_ms
          << ", \"seeded_ms\": " << r.seeded_ms
          << ", \"seeded_speedup\": " << r.seeded_speedup << "}"
          << (i + 1 < sweep_rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  }\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
