// The four workloads: a round replays the seeded delta sequence through a
// freshly set-up session; a run repeats rounds for the requested time and
// pools their samples.  The traced round drives the same decisions through
// the layers' public functions one by one and times each call.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <thread>

#include "api/async_session.hpp"
#include "api/errors.hpp"
#include "api/session.hpp"
#include "api/view.hpp"
#include "bench.hpp"
#include "core/assign.hpp"
#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/refine.hpp"
#include "core/spmd_igp.hpp"
#include "core/workspace.hpp"

namespace perfbench {

namespace graph = pigp::graph;
namespace core = pigp::core;
using graph::VertexId;

namespace {

constexpr int kParts = 32;

enum class Kind { sync, async };

struct WorkloadDef {
  std::string name;
  Kind kind = Kind::sync;
  bool powerlaw = false;
  bool spmd = false;
  pigp::SessionConfig config;
  MeshParams mesh;
  PowerlawParams powerlaw_params;
  double offered_rate = 0.0;  ///< async: deltas per second, open loop
  /// Replays per second of --seconds.  Fixed per workload (sized so a run
  /// takes about --seconds on a 4-core VM, generation included), never
  /// adapted to the speed of the build, so every build takes its per-event
  /// floors over as many replays.
  double rounds_per_s = 0.0;
};

WorkloadDef make_def(const std::string& name, bool tiny) {
  WorkloadDef def;
  def.name = name;
  pigp::SessionConfig& c = def.config;
  c.num_parts = kParts;
  c.num_threads = 1;
  c.backend = "igpr";
  // Removed ids are reclaimed by the slack trigger, not after every delta:
  // a mesh delta that flips edges then costs O(delta), not an O(V+E)
  // renumbering.
  c.graph_compaction = pigp::GraphCompaction::deferred;
  if (name == "mesh_refine") {
    c.batch_policy = pigp::BatchPolicy::every_delta;
    def.mesh.initial_points = tiny ? 2000 : 10000;
    def.mesh.steps = tiny ? 12 : 300;
    def.rounds_per_s = 0.35;
  } else if (name == "powerlaw_churn") {
    def.powerlaw = true;
    c.batch_policy = pigp::BatchPolicy::vertex_count;
    c.compaction_slack = 0.05;
    c.num_parts = 16;
    def.powerlaw_params.initial_vertices = tiny ? 2000 : 8000;
    def.powerlaw_params.deltas = tiny ? 40 : 1200;
    c.batch_vertex_limit = def.powerlaw_params.batch_vertex_limit;
    def.rounds_per_s = 0.55;
  } else if (name == "mesh_async_serve") {
    def.kind = Kind::async;
    // The background backend calls are visible only through a decorator.
    c.backend = "timed:igpr";
    c.batch_policy = pigp::BatchPolicy::vertex_count;
    c.batch_vertex_limit = 56;
    def.mesh.initial_points = tiny ? 2000 : 10000;
    def.mesh.steps = tiny ? 12 : 300;
    def.offered_rate = 100.0;
    def.rounds_per_s = 0.27;
  } else if (name == "mesh_spmd_tcp") {
    def.spmd = true;
    c.backend = "spmd";
    c.spmd_transport = "tcp";
    c.spmd_ranks = 2;
    c.batch_policy = pigp::BatchPolicy::every_delta;
    def.mesh.initial_points = tiny ? 2000 : 10000;
    def.mesh.steps = tiny ? 12 : 150;
    def.rounds_per_s = 0.45;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return def;
}

Inputs make_inputs(const WorkloadDef& def, std::uint64_t seed) {
  const int parts = def.config.num_parts;
  const double slack = def.config.compaction_slack;
  return def.powerlaw
             ? make_powerlaw_inputs(def.powerlaw_params, seed, parts, slack)
             : make_mesh_inputs(def.mesh, seed, parts, slack);
}

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

std::int64_t vertex_changes(const graph::GraphDelta& d) {
  return static_cast<std::int64_t>(d.added_vertices.size() +
                                   d.removed_vertices.size());
}

/// Whether Session::apply will run the backend on this delta (the batch
/// policy replayed from outside; checked against every report).
struct TriggerModel {
  const pigp::SessionConfig& config;
  std::int64_t pending = 0;
  bool next(const graph::GraphDelta& d) {
    if (config.batch_policy == pigp::BatchPolicy::every_delta) return true;
    pending += vertex_changes(d);
    if (pending < config.batch_vertex_limit) return false;
    pending = 0;
    return true;
  }
};

/// Surviving vertices of \p before whose part differs in \p after; when the
/// call compacted, old ids are mapped through \p remap.
std::int64_t count_migrated(const std::vector<graph::PartId>& before,
                            const graph::Partitioning& after, bool compacted,
                            const std::vector<VertexId>& remap) {
  std::int64_t moved = 0;
  for (std::size_t v = 0; v < before.size(); ++v) {
    if (before[v] == graph::kUnassigned) continue;
    VertexId now = static_cast<VertexId>(v);
    if (compacted) now = remap[v];
    if (now == graph::kInvalidVertex ||
        static_cast<std::size_t>(now) >= after.part.size()) {
      continue;  // removed by this delta
    }
    if (after.part[static_cast<std::size_t>(now)] == graph::kUnassigned) {
      continue;
    }
    if (after.part[static_cast<std::size_t>(now)] != before[v]) ++moved;
  }
  return moved;
}

std::int64_t pivots_of(const core::BalanceResult& balance,
                       const core::RefineStats& refine) {
  std::int64_t pivots = refine.lp_iterations;
  for (const core::BalanceStage& stage : balance.stages) {
    pivots += stage.lp_iterations;
  }
  return pivots;
}

/// Output checks on a final (graph, partitioning, reported summary).
void check_final(const std::string& what, const graph::Graph& g,
                 const graph::Partitioning& p,
                 const graph::PartitionSummary& reported, double tolerance,
                 Report& report) {
  try {
    p.validate(g);
  } catch (const std::exception& e) {
    report.check(false, what + ": Partitioning::validate: " + e.what());
    return;
  }
  const graph::PartitionMetrics recount = graph::compute_metrics(g, p);
  const auto same = [](double a, double b) {
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
  };
  report.check(same(reported.cut_total, recount.cut_total) &&
                   same(reported.max_weight, recount.max_weight) &&
                   same(reported.min_weight, recount.min_weight) &&
                   same(reported.imbalance, recount.imbalance),
               what + ": summary() differs from a compute_metrics recount");
  const std::vector<double> targets =
      graph::balance_targets(g.total_vertex_weight(), p.num_parts);
  double deviation = 0.0;
  for (std::size_t q = 0; q < targets.size(); ++q) {
    deviation = std::max(deviation, std::abs(recount.weight[q] - targets[q]));
  }
  report.check(deviation <= tolerance + 1e-9,
               what + ": final max weight deviation " +
                   std::to_string(deviation) +
                   " exceeds the balance tolerance");
}

// ---------------------------------------------------------------------------
// Synchronous rounds.

/// Per-event floor across replays: event k's value is the fastest of its
/// samples over the replays.  Every replay runs the same sequence and the
/// replay count is fixed per workload, so this is the same statistic on
/// every build; the host's slow phases only ever add time, so the fastest
/// replay is the steadiest estimate of what an event costs.
std::vector<double> fastest_replays(
    const std::vector<std::vector<double>>& per_round) {
  std::vector<double> events = per_round.front();
  for (const std::vector<double>& r : per_round) {
    if (r.size() != events.size()) {
      throw std::logic_error("replays of one sequence differ in length");
    }
    for (std::size_t k = 0; k < r.size(); ++k) {
      events[k] = std::min(events[k], r[k]);
    }
  }
  return events;
}

/// Absorb-only replays per round on every_delta workloads.  A replay is
/// ~10 ms of cache-bound work, short against the host's slow phases, so one
/// sample per round leaves each event with few chances at a fast moment;
/// five cost ~50 ms a round.
constexpr int kAbsorbReplays = 5;

struct Quality {
  double cut_total = 0.0;
  double imbalance = 0.0;
  std::int64_t migrated = 0;
  std::int64_t lp_pivots = 0;
};

struct SyncRound {
  double setup_s = 0.0;
  double session_s = 0.0;
  double warm_s = 0.0;
  std::vector<double> apply_ms;
  std::vector<double> absorb_ms;
  std::vector<double> rebalance_ms;
  double stream_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Quality quality;
};

/// \p config with the rebalance deferred for good: apply() validates,
/// mutates the graph, updates the PartitionState and assigns new vertices
/// (step 1), and the backend never runs.
pigp::SessionConfig absorb_only(const pigp::SessionConfig& config) {
  pigp::SessionConfig deferred = config;
  deferred.batch_policy = pigp::BatchPolicy::vertex_count;
  deferred.batch_vertex_limit = std::numeric_limits<int>::max();
  return deferred;
}

/// apply() times (ms) of the delta list through an absorb-only session.
/// Under every_delta each delta also rebalances, so this is where those
/// workloads take their absorb-only samples from.
std::vector<double> absorb_only_replay(const WorkloadDef& def,
                                       const Inputs& in) {
  pigp::Session session(absorb_only(def.config), in.g0, in.p0);
  std::vector<double> ms;
  ms.reserve(in.deltas.size());
  for (const graph::GraphDelta& delta : in.deltas) {
    const Clock::time_point start = Clock::now();
    (void)session.apply(delta);
    ms.push_back(ms_since(start));
  }
  return ms;
}

/// Construct the session from copies of the inputs and run the warm-up
/// rebalance; returns (construction seconds, warm-up seconds).
std::pair<double, double> set_up(std::optional<pigp::Session>& session,
                                 const pigp::SessionConfig& config,
                                 const Inputs& in) {
  graph::Graph g = in.g0;
  graph::Partitioning p = in.p0;
  const Clock::time_point start = Clock::now();
  session.emplace(config, std::move(g), std::move(p));
  const double constructed = seconds_since(start);
  const Clock::time_point warm = Clock::now();
  (void)session->repartition();
  return {constructed, seconds_since(warm)};
}

SyncRound run_sync_round(const WorkloadDef& def, const Inputs& in,
                         bool checks, Report& report) {
  SyncRound round;
  std::optional<pigp::Session> session;
  std::tie(round.session_s, round.warm_s) = set_up(session, def.config, in);
  round.setup_s = round.session_s + round.warm_s;

  TriggerModel trigger{def.config};
  std::vector<graph::PartId> before;
  for (std::size_t i = 0; i < in.deltas.size(); ++i) {
    const graph::GraphDelta& delta = in.deltas[i];
    const bool will_rebalance = trigger.next(delta);
    if (will_rebalance) before = session->partitioning().part;
    ++round.attempted;
    pigp::SessionReport r;
    const Clock::time_point start = Clock::now();
    try {
      r = session->apply(delta);
    } catch (const pigp::CheckError& e) {
      round.stream_s += seconds_since(start);
      ++round.failed;
      report.notes.push_back(std::string("delta rejected: ") + e.what());
      continue;
    }
    const double seconds = seconds_since(start);
    round.stream_s += seconds;
    round.apply_ms.push_back(seconds * 1e3);
    (r.repartitioned ? round.rebalance_ms : round.absorb_ms)
        .push_back(seconds * 1e3);
    if (checks) {
      report.check(r.repartitioned == will_rebalance,
                   "delta " + std::to_string(i) +
                       ": batch trigger differs from the replayed policy");
      report.check(r.compacted == (in.compacts[i] != 0),
                   "delta " + std::to_string(i) +
                       ": compaction differs from the generator's mirror");
    }
    if (r.repartitioned) {
      round.quality.lp_pivots += pivots_of(r.balance, r.refine);
      round.quality.migrated += count_migrated(
          before, session->partitioning(), r.compacted,
          session->last_compaction());
    }
  }
  const graph::PartitionSummary summary = session->summary();
  round.quality.cut_total = summary.cut_total;
  round.quality.imbalance = summary.imbalance;
  if (checks) {
    check_final(def.name, session->graph(), session->partitioning(), summary,
                def.config.balance_tolerance, report);
  }
  if (def.config.batch_policy == pigp::BatchPolicy::every_delta) {
    std::vector<std::vector<double>> replays;
    for (int k = 0; k < kAbsorbReplays; ++k) {
      replays.push_back(absorb_only_replay(def, in));
    }
    round.absorb_ms = fastest_replays(replays);
  }
  return round;
}

// Per-layer accumulators of one traced round.
struct LayerTrace {
  std::vector<double> validate_us, absorb_ms, compact_ms;
  std::int64_t compactions = 0;
  std::int64_t edges_touched = 0;
  std::vector<double> boundary_vertices;
  std::vector<double> assign_ms, layering_ms, layering_full_ms, balance_ms,
      refine_ms, spmd_ms, adopt_ms, lp_solve_ms;
  std::int64_t balance_stages = 0, layer_depth = 0, layering_exhausted = 0,
               refine_rounds = 0, refine_moved = 0, lp_rows = 0, lp_vars = 0;
  double balance_moved = 0.0, refine_gain = 0.0;
  std::vector<double> net_bytes, net_messages, net_collectives, net_wait_ms,
      net_busy_ms;
  double pipeline_s = 0.0;  ///< time in calls the untraced run also makes
  double session_ms = 0.0, warm_ms = 0.0;
  Quality quality;
};

std::int64_t edges_touched(const graph::Graph& g, const graph::GraphDelta& d) {
  std::int64_t touched = static_cast<std::int64_t>(d.added_edges.size() +
                                                   d.removed_edges.size());
  for (const graph::VertexAddition& add : d.added_vertices) {
    touched += static_cast<std::int64_t>(add.edges.size());
  }
  for (const VertexId v : d.removed_vertices) touched += g.degree(v);
  return touched;
}

LayerTrace run_traced_sync_round(const WorkloadDef& def, const Inputs& in,
                                 Report& report) {
  LayerTrace t;
  // Absorb with the rebalance deferred; the rebalances the untraced run
  // would make are then driven step by step on copies and committed.
  const pigp::ResolvedConfig resolved = def.config.resolve();
  std::optional<pigp::Session> session;
  const auto [session_s, warm_s] =
      set_up(session, absorb_only(def.config), in);
  t.session_ms = session_s * 1e3;
  t.warm_ms = warm_s * 1e3;

  core::Workspace ws;
  std::vector<core::Workspace> rank_ws;
  core::BoundaryLayering probe;
  std::uint64_t remap_seen = session->remap_epoch();
  pigp::net::TcpOptions tcp;
  tcp.send_timeout_ms = def.config.spmd_timeout_ms;
  tcp.recv_timeout_ms = def.config.spmd_timeout_ms;
  tcp.filters = def.config.spmd_wire_filters;
  core::TcpLoopbackExecutor tcp_executor(def.config.spmd_ranks, tcp);
  CountingExecutor counting(tcp_executor);

  TriggerModel trigger{def.config};
  std::vector<graph::PartId> before;
  for (const graph::GraphDelta& delta : in.deltas) {
    const graph::Graph& g = session->graph();
    Clock::time_point start = Clock::now();
    graph::validate_delta(g, delta);
    t.validate_us.push_back(ms_since(start) * 1e3);
    t.edges_touched += edges_touched(g, delta);

    const bool rebalance = trigger.next(delta);
    if (rebalance) before = session->partitioning().part;
    start = Clock::now();
    const pigp::SessionReport r = session->apply(delta);
    const double absorb = ms_since(start);
    t.pipeline_s += absorb / 1e3;
    t.absorb_ms.push_back(absorb);
    if (r.compacted) {
      t.compact_ms.push_back(absorb);
      ++t.compactions;
    }
    if (!rebalance) continue;

    const graph::Graph& gn = session->graph();
    const graph::VertexId n = gn.num_vertices();
    double boundary = 0.0;
    for (graph::PartId q = 0; q < def.config.num_parts; ++q) {
      boundary += static_cast<double>(
          session->partition_state().boundary_vertices(q).size());
    }
    t.boundary_vertices.push_back(boundary);
    if (session->remap_epoch() != remap_seen) {
      remap_seen = session->remap_epoch();
      ws.invalidate_vertex_ids();
      for (core::Workspace& rank : rank_ws) rank.invalidate_vertex_ids();
      probe.invalidate();
    }
    graph::Partitioning p = session->partitioning();
    graph::PartitionState state = session->partition_state();

    core::BalanceResult balance;
    core::RefineStats refine;
    if (!def.spmd) {
      start = Clock::now();
      core::extend_assignment_state(gn, p, n, state, ws, resolved.assign);
      t.assign_ms.push_back(ms_since(start));
      t.pipeline_s += t.assign_ms.back() / 1e3;
    }

    // Probes on the post-assign assignment (read-only): the seeded
    // layering, the full layering, and the stage-1 balance LP.
    const core::BalanceOptions& bopt = resolved.igp.balance;
    start = Clock::now();
    probe.bind(gn, p);
    probe.reseed(state, bopt.num_threads);
    probe.grow(bopt.max_layers == 0 ? -1 : bopt.max_layers, bopt.num_threads);
    t.layering_ms.push_back(ms_since(start));
    {
      // The batch layering expects every id live: under deferred
      // compaction, run it on a compacted copy (the copy is not timed).
      graph::Graph g_tight;
      graph::Partitioning p_tight;
      const bool dead = gn.num_dead_vertices() > 0;
      if (dead) {
        g_tight = gn;
        std::vector<VertexId> remap;
        const VertexId live = g_tight.compact(remap);
        p_tight.num_parts = p.num_parts;
        p_tight.part.assign(static_cast<std::size_t>(live), 0);
        for (std::size_t v = 0; v < remap.size(); ++v) {
          if (remap[v] != graph::kInvalidVertex) {
            p_tight.part[static_cast<std::size_t>(remap[v])] = p.part[v];
          }
        }
      }
      start = Clock::now();
      (void)core::layer_partitions(dead ? g_tight : gn, dead ? p_tight : p,
                                   bopt.num_threads);
      t.layering_full_ms.push_back(ms_since(start));
    }
    const std::vector<double> targets =
        graph::balance_targets(gn.total_vertex_weight(), def.config.num_parts);
    std::vector<double> excess(targets.size(), 0.0);
    double deviation = 0.0;
    for (std::size_t q = 0; q < excess.size(); ++q) {
      excess[q] = state.weights()[q] - targets[q];
      deviation = std::max(deviation, std::abs(excess[q]));
    }
    if (deviation > bopt.tolerance) {
      const std::vector<double> rhs = core::staged_requirements(excess, 1.0);
      start = Clock::now();
      const pigp::lp::LinearProgram program =
          core::build_balance_lp(probe.eps(), rhs, nullptr);
      (void)core::solve_lp(program, bopt.solver, bopt.simplex);
      t.lp_solve_ms.push_back(ms_since(start));
    }

    if (def.spmd) {
      start = Clock::now();
      core::IgpResult result = core::spmd_repartition_in_place(
          counting, gn, p, n, resolved.igp, state, ws, rank_ws);
      t.spmd_ms.push_back(ms_since(start));
      t.pipeline_s += t.spmd_ms.back() / 1e3;
      balance = std::move(result.balance_result);
      refine = result.refine_stats;
      RankTraffic sum;
      double wait = 0.0;
      double busy = 0.0;
      for (const RankTraffic& rank : counting.traffic()) {
        sum.bytes_sent += rank.bytes_sent;
        sum.bytes_received += rank.bytes_received;
        sum.messages_sent += rank.messages_sent;
        sum.messages_received += rank.messages_received;
        sum.collectives += rank.collectives;
        wait = std::max(wait, rank.wait_s);
        busy = std::max(busy, rank.busy_s);
      }
      report.check(sum.bytes_sent == sum.bytes_received &&
                       sum.messages_sent == sum.messages_received,
                   "net: sent " + std::to_string(sum.bytes_sent) + " B in " +
                       std::to_string(sum.messages_sent) +
                       " messages, received " +
                       std::to_string(sum.bytes_received) + " B in " +
                       std::to_string(sum.messages_received));
      t.net_bytes.push_back(static_cast<double>(sum.bytes_sent));
      t.net_messages.push_back(static_cast<double>(sum.messages_sent));
      t.net_collectives.push_back(static_cast<double>(sum.collectives));
      t.net_wait_ms.push_back(wait * 1e3);
      t.net_busy_ms.push_back(busy * 1e3);
    } else {
      start = Clock::now();
      balance = core::balance_load(gn, p, state, bopt, &ws);
      t.balance_ms.push_back(ms_since(start));
      start = Clock::now();
      refine = core::refine_partitioning(gn, p, state, resolved.igp.refinement,
                                         &ws);
      t.refine_ms.push_back(ms_since(start));
      t.pipeline_s += (t.balance_ms.back() + t.refine_ms.back()) / 1e3;
    }

    start = Clock::now();
    session->adopt_rebalance(p);
    t.adopt_ms.push_back(ms_since(start));
    t.pipeline_s += t.adopt_ms.back() / 1e3;

    t.balance_stages += static_cast<std::int64_t>(balance.stages.size());
    for (const core::BalanceStage& stage : balance.stages) {
      if (stage.layer_depth < 0) {
        ++t.layering_exhausted;
      } else {
        t.layer_depth =
            std::max<std::int64_t>(t.layer_depth, stage.layer_depth);
      }
      t.balance_moved += stage.vertices_moved;
      t.lp_rows += stage.lp_rows;
      t.lp_vars += stage.lp_variables;
    }
    t.refine_rounds += refine.rounds;
    t.refine_moved += refine.vertices_moved;
    t.refine_gain += refine.cut_before - refine.cut_after;
    t.quality.lp_pivots += pivots_of(balance, refine);
    t.quality.migrated += count_migrated(before, session->partitioning(),
                                         r.compacted,
                                         session->last_compaction());
  }
  const graph::PartitionSummary summary = session->summary();
  t.quality.cut_total = summary.cut_total;
  t.quality.imbalance = summary.imbalance;
  check_final(def.name + " (traced)", session->graph(),
              session->partitioning(), summary, def.config.balance_tolerance,
              report);
  return t;
}

// ---------------------------------------------------------------------------
// Asynchronous round: open-loop producer, one reader thread.

struct AsyncRound {
  double setup_s = 0.0;
  double session_s = 0.0;
  double warm_s = 0.0;
  std::vector<double> visible_ms;   ///< due time -> first view with it
  std::vector<double> rebalance_ms; ///< background backend calls
  std::vector<double> submit_ms;
  std::vector<double> late_ms;
  std::vector<double> view_imbalance;
  double stream_s = 0.0;
  double lookups_per_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  pigp::AsyncStats stats;
  Quality quality;
};

/// Construct the async session from copies of the inputs and force one
/// background round; returns (construction seconds, warm-up seconds).
std::pair<double, double> set_up_async(
    std::optional<pigp::AsyncSession>& session,
    const pigp::SessionConfig& config, const Inputs& in) {
  graph::Graph g = in.g0;
  graph::Partitioning p = in.p0;
  const Clock::time_point start = Clock::now();
  session.emplace(config, std::move(g), std::move(p));
  const double constructed = seconds_since(start);
  const Clock::time_point warm = Clock::now();
  session->submit(graph::GraphDelta{});  // absorbs nothing, forces a round
  session->flush();
  return {constructed, seconds_since(warm)};
}

AsyncRound run_async_round(const WorkloadDef& def, const Inputs& in,
                           bool checks, Report& report) {
  AsyncRound round;
  std::optional<pigp::AsyncSession> session;
  std::tie(round.session_s, round.warm_s) =
      set_up_async(session, def.config, in);
  round.setup_s = round.session_s + round.warm_s;
  backend_log().reset();

  // Vertex count a view must cover for delta i to be visible.
  const std::size_t n = in.deltas.size();
  std::vector<VertexId> needed(n);
  VertexId total = in.g0.num_vertices();
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<VertexId>(in.deltas[i].added_vertices.size());
    needed[i] = total;
  }
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> seen(n);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};
  std::int64_t lookups = 0;
  std::exception_ptr reader_error;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);

  std::thread reader([&] {
    try {
      std::mt19937_64 rng(7);
      std::uint64_t epoch = 0;
      std::shared_ptr<const pigp::PartitionView> view;
      std::size_t next = 0;
      std::int64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t now_epoch = session->epoch();
        if (now_epoch != epoch || view == nullptr) {
          view = session->view();
          epoch = view->epoch();
          const Clock::time_point now = Clock::now();
          while (next < n && view->num_vertices() >= needed[next]) {
            seen[next] = now;
            ++next;
          }
          visible.store(next, std::memory_order_release);
          round.view_imbalance.push_back(view->summary().imbalance);
        }
        const auto size = static_cast<std::uint64_t>(view->num_vertices());
        for (int k = 0; k < 64; ++k) {
          sink += view->part_of(static_cast<VertexId>(rng() % size));
        }
        lookups += 64;
      }
      if (sink < 0) lookups = -1;  // keeps the lookups observable
    } catch (...) {
      reader_error = std::current_exception();
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    graph::GraphDelta delta = in.deltas[i];
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / def.offered_rate));
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point start = Clock::now();
    round.late_ms.push_back(
        std::chrono::duration<double, std::milli>(start - due[i]).count());
    ++round.attempted;
    try {
      session->submit(std::move(delta));
    } catch (const pigp::CheckError& e) {
      ++round.failed;
      report.notes.push_back(std::string("submit failed: ") + e.what());
    }
    round.submit_ms.push_back(ms_since(start));
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (visible.load(std::memory_order_acquire) < n &&
         Clock::now() < deadline && reader_error == nullptr) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const bool all_visible = visible.load() == n;
  const Clock::time_point stream_end = all_visible ? seen[n - 1] : Clock::now();
  stop.store(true, std::memory_order_release);
  reader.join();
  round.stream_s = std::chrono::duration<double>(stream_end - t0).count();
  round.lookups_per_s = static_cast<double>(lookups) / round.stream_s;
  report.check(reader_error == nullptr, "async: reader thread failed");
  report.check(all_visible, "async: not every delta became visible");
  if (all_visible) {
    for (std::size_t i = 0; i < n; ++i) {
      round.visible_ms.push_back(
          std::chrono::duration<double, std::milli>(seen[i] - due[i]).count());
    }
  }

  session->flush();  // settles every pending rebalance
  round.stats = session->stats();
  const std::shared_ptr<const pigp::PartitionView> last = session->view();
  session->close();
  round.failed += round.stats.deltas_rejected;
  {
    std::lock_guard<std::mutex> lock(backend_log().mutex);
    round.rebalance_ms = backend_log().call_ms;
    round.quality.migrated = backend_log().migrated;
  }
  round.quality.cut_total = last->summary().cut_total;
  round.quality.imbalance = last->summary().imbalance;
  if (checks) {
    graph::Partitioning p;
    p.num_parts = last->num_parts();
    p.part = last->assignment();
    check_final(def.name, in.final_graph, p, last->summary(),
                def.config.balance_tolerance, report);
    report.check(round.stats.deltas_absorbed ==
                     static_cast<std::int64_t>(n) + 1,
                 "async: absorbed count differs from submitted deltas");
  }
  return round;
}

// ---------------------------------------------------------------------------
// Report assembly.

void add(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit, std::int64_t samples = 0) {
  out.push_back(Metric{name, value, unit, samples});
}

void add_percentiles(Report& report, const std::string& stem,
                     const std::vector<double>& samples) {
  const auto n = static_cast<std::int64_t>(samples.size());
  add(report.end_to_end, stem + "_p50_ms", percentile(samples, 0.5), "ms", n);
  add(report.end_to_end, stem + "_p90_ms", percentile(samples, 0.9), "ms", n);
  if (n < 100) {
    report.notes.push_back(stem + "_p90_ms rests on " + std::to_string(n) +
                           " samples (fewer than 10 beyond the p90)");
  }
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Extra set-ups after every round; setup_s is the fastest of all of them
/// and the rounds' own, spread over the run like the replays.  A median,
/// even of each round's fastest, moves with the host's slow phases.
constexpr int kExtraSetups = 10;
/// Fewest replays a run makes, whatever --seconds says.
constexpr int kMinRounds = 3;

int replay_rounds(const WorkloadDef& def, const RunOptions& options) {
  return std::max(kMinRounds, static_cast<int>(std::lround(
                                  options.seconds * def.rounds_per_s)));
}

void run_sync(const WorkloadDef& def, const Inputs& in,
              const RunOptions& options, Report& report) {
  std::vector<SyncRound> rounds;
  std::vector<double> setups;
  for (int k = replay_rounds(def, options); k > 0; --k) {
    rounds.push_back(run_sync_round(def, in, rounds.empty(), report));
    for (int extra = 0; extra < kExtraSetups; ++extra) {
      std::optional<pigp::Session> session;
      const auto [constructed, warm] = set_up(session, def.config, in);
      setups.push_back(constructed + warm);
    }
  }
  std::vector<std::vector<double>> apply, absorb, rebalance;
  for (const SyncRound& r : rounds) {
    setups.push_back(r.setup_s);
    apply.push_back(r.apply_ms);
    absorb.push_back(r.absorb_ms);
    rebalance.push_back(r.rebalance_ms);
    report.attempted += r.attempted;
    report.failed += r.failed;
    report.check(r.quality.cut_total == rounds.front().quality.cut_total &&
                     r.quality.migrated == rounds.front().quality.migrated &&
                     r.quality.lp_pivots == rounds.front().quality.lp_pivots,
                 "rounds of one run disagree on cut/migrations/pivots");
  }
  const Quality& q = rounds.front().quality;
  add(report.end_to_end, "setup_s",
      *std::min_element(setups.begin(), setups.end()), "s",
      static_cast<std::int64_t>(setups.size()));
  // Closed loop: the stream's wall time is the sum of its apply() calls,
  // each taken at its fastest replay.
  const std::vector<double> applies = fastest_replays(apply);
  double stream_ms = 0.0;
  for (const double ms : applies) stream_ms += ms;
  add(report.end_to_end, "deltas_per_s",
      1e3 * static_cast<double>(applies.size()) / stream_ms, "1/s",
      static_cast<std::int64_t>(applies.size()));
  add_percentiles(report, "rebalance", fastest_replays(rebalance));
  add_percentiles(report, "absorb", fastest_replays(absorb));
  add(report.end_to_end, "cut_total", q.cut_total, "edges");
  add(report.end_to_end, "imbalance", q.imbalance, "ratio");
  add(report.end_to_end, "migrated_vertices", static_cast<double>(q.migrated),
      "count");
  add(report.info, "rounds", static_cast<double>(rounds.size()), "count");
  add(report.info, "deltas_per_round", static_cast<double>(in.deltas.size()),
      "count");
  add(report.info, "lp_pivots_per_round", static_cast<double>(q.lp_pivots),
      "count");

  if (!options.trace) return;
  // Traced run: one traced round, compared against the untraced round.
  const LayerTrace t = run_traced_sync_round(def, in, report);
  report.check(t.quality.cut_total == q.cut_total &&
                   t.quality.migrated == q.migrated &&
                   t.quality.lp_pivots == q.lp_pivots,
               "traced run made different decisions (cut " +
                   std::to_string(t.quality.cut_total) + " vs " +
                   std::to_string(q.cut_total) + ", migrated " +
                   std::to_string(t.quality.migrated) + " vs " +
                   std::to_string(q.migrated) + ")");
  auto& L = report.per_layer;
  add(L, "graph.validate_us", median(t.validate_us), "us",
      static_cast<std::int64_t>(t.validate_us.size()));
  add(L, "graph.absorb_ms", median(t.absorb_ms), "ms",
      static_cast<std::int64_t>(t.absorb_ms.size()));
  add(L, "graph.compact_ms", median(t.compact_ms), "ms",
      static_cast<std::int64_t>(t.compact_ms.size()));
  add(L, "graph.compactions", static_cast<double>(t.compactions), "count");
  add(L, "graph.edges_touched", static_cast<double>(t.edges_touched), "count");
  add(L, "graph.boundary_vertices", mean(t.boundary_vertices), "count");
  add(L, "core.assign_ms", median(t.assign_ms), "ms",
      static_cast<std::int64_t>(t.assign_ms.size()));
  add(L, "core.layering_ms", median(t.layering_ms), "ms",
      static_cast<std::int64_t>(t.layering_ms.size()));
  add(L, "core.layering_full_ms", median(t.layering_full_ms), "ms",
      static_cast<std::int64_t>(t.layering_full_ms.size()));
  add(L, "core.balance_ms", median(t.balance_ms), "ms",
      static_cast<std::int64_t>(t.balance_ms.size()));
  add(L, "core.refine_ms", median(t.refine_ms), "ms",
      static_cast<std::int64_t>(t.refine_ms.size()));
  add(L, "core.spmd_ms", median(t.spmd_ms), "ms",
      static_cast<std::int64_t>(t.spmd_ms.size()));
  add(L, "api.adopt_ms", median(t.adopt_ms), "ms",
      static_cast<std::int64_t>(t.adopt_ms.size()));
  add(L, "core.balance_stages", static_cast<double>(t.balance_stages), "count");
  add(L, "core.layer_depth", static_cast<double>(t.layer_depth), "count");
  add(L, "core.layering_exhausted", static_cast<double>(t.layering_exhausted),
      "count");
  add(L, "core.balance_moved", t.balance_moved, "count");
  add(L, "core.refine_rounds", static_cast<double>(t.refine_rounds), "count");
  add(L, "core.refine_moved", static_cast<double>(t.refine_moved), "count");
  add(L, "core.refine_gain", t.refine_gain, "edges");
  add(L, "lp.solve_ms", median(t.lp_solve_ms), "ms",
      static_cast<std::int64_t>(t.lp_solve_ms.size()));
  add(L, "lp.pivots", static_cast<double>(t.quality.lp_pivots), "count");
  add(L, "lp.rows", static_cast<double>(t.lp_rows), "count");
  add(L, "lp.vars", static_cast<double>(t.lp_vars), "count");
  add(L, "net.bytes_per_rebalance", mean(t.net_bytes), "bytes",
      static_cast<std::int64_t>(t.net_bytes.size()));
  add(L, "net.messages_per_rebalance", mean(t.net_messages), "count");
  add(L, "net.collectives_per_rebalance", mean(t.net_collectives), "count");
  add(L, "net.recv_wait_ms", median(t.net_wait_ms), "ms");
  add(L, "net.rank_busy_ms", median(t.net_busy_ms), "ms");
  add(L, "setup.session_ms", t.session_ms, "ms");
  add(L, "setup.warm_rebalance_ms", t.warm_ms, "ms");
  const double untraced_s = rounds.front().stream_s;
  add(L, "trace.overhead_pct", 100.0 * (t.pipeline_s / untraced_s - 1.0), "%");
}

void run_async(const WorkloadDef& def, const Inputs& in,
               const RunOptions& options, Report& report) {
  std::vector<AsyncRound> rounds;
  std::vector<double> setups;
  for (int k = replay_rounds(def, options); k > 0; --k) {
    rounds.push_back(run_async_round(def, in, rounds.empty(), report));
    for (int extra = 0; extra < kExtraSetups; ++extra) {
      std::optional<pigp::AsyncSession> session;
      const auto [constructed, warm] = set_up_async(session, def.config, in);
      setups.push_back(constructed + warm);
    }
  }
  std::vector<double> rates, cut, imbalance, migrated, lookups;
  std::vector<std::vector<double>> visible_rounds;
  // Background rebalances line up only roughly across rounds: the k-th
  // call of every round covers about the same stretch of the stream (one
  // call per batch_vertex_limit vertex changes at a fixed offered rate),
  // but how many run depends on timing.  Each call ordinal of the rounds'
  // common prefix is an event, taken at its fastest replay.
  std::size_t calls = std::numeric_limits<std::size_t>::max();
  std::vector<double> calls_per_round;
  for (const AsyncRound& r : rounds) {
    calls = std::min(calls, r.rebalance_ms.size());
    calls_per_round.push_back(static_cast<double>(r.rebalance_ms.size()));
  }
  std::vector<std::vector<double>> rebalance_rounds;
  for (const AsyncRound& r : rounds) {
    setups.push_back(r.setup_s);
    if (!r.visible_ms.empty()) visible_rounds.push_back(r.visible_ms);
    rebalance_rounds.emplace_back(r.rebalance_ms.begin(),
                                  r.rebalance_ms.begin() +
                                      static_cast<std::ptrdiff_t>(calls));
    rates.push_back(static_cast<double>(r.attempted - r.failed) / r.stream_s);
    report.attempted += r.attempted;
    report.failed += r.failed;
    cut.push_back(r.quality.cut_total);
    imbalance.push_back(r.quality.imbalance);
    migrated.push_back(static_cast<double>(r.quality.migrated));
    lookups.push_back(r.lookups_per_s);
  }
  const auto n_rounds = static_cast<std::int64_t>(rounds.size());
  add(report.end_to_end, "setup_s",
      *std::min_element(setups.begin(), setups.end()), "s",
      static_cast<std::int64_t>(setups.size()));
  const std::vector<double> visible =
      visible_rounds.empty() ? std::vector<double>{}
                             : fastest_replays(visible_rounds);
  add(report.end_to_end, "deltas_per_s", median(rates), "1/s", n_rounds);
  add_percentiles(report, "rebalance", fastest_replays(rebalance_rounds));
  add_percentiles(report, "absorb", visible);
  add(report.end_to_end, "cut_total", median(cut), "edges", n_rounds);
  add(report.end_to_end, "imbalance", median(imbalance), "ratio", n_rounds);
  add(report.end_to_end, "migrated_vertices", median(migrated), "count",
      n_rounds);
  add(report.info, "visible_p50_ms", percentile(visible, 0.5), "ms",
      static_cast<std::int64_t>(visible.size()));
  add(report.info, "visible_p90_ms", percentile(visible, 0.9), "ms",
      static_cast<std::int64_t>(visible.size()));
  add(report.info, "lookups_per_s", median(lookups), "1/s", n_rounds);
  add(report.info, "offered_rate", def.offered_rate, "1/s");
  add(report.info, "min_calls_per_round",
      *std::min_element(calls_per_round.begin(), calls_per_round.end()),
      "count");
  add(report.info, "max_calls_per_round",
      *std::max_element(calls_per_round.begin(), calls_per_round.end()),
      "count");
  add(report.info, "rounds", static_cast<double>(n_rounds), "count");
  add(report.info, "deltas_per_round", static_cast<double>(in.deltas.size()),
      "count");

  if (!options.trace) return;
  // The async round already observes everything from outside; the traced
  // run adds the publish probe and reports the ingest/commit counters of
  // one more round.
  const AsyncRound t = run_async_round(def, in, false, report);
  auto& L = report.per_layer;
  const pigp::AsyncStats& s = t.stats;
  {
    graph::Partitioning p = in.p0;
    p.part.resize(static_cast<std::size_t>(in.final_graph.num_vertices()), 0);
    const graph::PartitionSummary summary;
    std::vector<double> publish;
    for (int rep = 0; rep < 21; ++rep) {
      const Clock::time_point start_publish = Clock::now();
      auto view = std::make_shared<const pigp::PartitionView>(
          static_cast<std::uint64_t>(rep), p, summary);
      publish.push_back(ms_since(start_publish));
      (void)view;
    }
    add(L, "async.publish_ms", median(publish), "ms",
        static_cast<std::int64_t>(publish.size()));
  }
  add(L, "async.submit_ms", percentile(t.submit_ms, 0.9), "ms",
      static_cast<std::int64_t>(t.submit_ms.size()));
  add(L, "async.queue_high_watermark",
      static_cast<double>(s.queue_high_watermark), "count");
  add(L, "async.commit_frac",
      s.rebalances_started > 0 ? static_cast<double>(s.rebalances_committed) /
                                     static_cast<double>(s.rebalances_started)
                               : 0.0,
      "ratio");
  add(L, "async.commits_discarded", static_cast<double>(s.commits_discarded),
      "count");
  add(L, "async.epochs_per_delta",
      static_cast<double>(s.epochs_published) /
          static_cast<double>(std::max<std::int64_t>(1, t.attempted)),
      "ratio");
  add(L, "async.view_imbalance_p90", percentile(t.view_imbalance, 0.9),
      "ratio", static_cast<std::int64_t>(t.view_imbalance.size()));
  add(L, "async.generator_late_ms", percentile(t.late_ms, 0.99), "ms",
      static_cast<std::int64_t>(t.late_ms.size()));
  add(L, "async.lookups_per_s", t.lookups_per_s, "1/s");
  add(L, "setup.session_ms", t.session_s * 1e3, "ms");
  add(L, "setup.warm_rebalance_ms", t.warm_s * 1e3, "ms");
  add(L, "trace.overhead_pct",
      100.0 * (t.stream_s / rounds.front().stream_s - 1.0), "%");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mesh_refine", "powerlaw_churn", "mesh_async_serve", "mesh_spmd_tcp"};
  return names;
}

void run_workload(const RunOptions& options, Report& report) {
  register_timed_backend();
  const WorkloadDef def = make_def(options.workload, options.tiny);
  const Clock::time_point generation = Clock::now();
  const Inputs in = make_inputs(def, options.seed);
  add(report.info, "generation_s", seconds_since(generation), "s");
  report.check(reset_peak_rss(), "could not reset VmHWM via clear_refs");
  if (def.kind == Kind::async) {
    run_async(def, in, options, report);
  } else {
    run_sync(def, in, options, report);
  }
  add(report.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  add(report.info, "failed_frac",
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0,
      "ratio", report.attempted);
}

}  // namespace perfbench
