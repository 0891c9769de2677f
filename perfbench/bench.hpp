#pragma once

// Shared declarations of the delta-stream benchmark: seeded workload
// inputs, the timing backend decorator, the counting SPMD executor and the
// metric report every workload fills.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/spmd_igp.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "mesh/trimesh.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workload inputs (generated from --seed, excluded from every metric).

struct Inputs {
  pigp::graph::Graph g0;              ///< graph the session starts from
  pigp::graph::Partitioning p0;       ///< initial partitioning of g0
  std::vector<pigp::graph::GraphDelta> deltas;
  /// Per delta: true when the deferred-compaction trigger fires on it
  /// (the generator mirrors the session's graph, so it knows).
  std::vector<char> compacts;
  pigp::graph::Graph final_graph;     ///< graph after every delta
  /// Removed vertices whose degree was at least 10x the mean degree.
  std::int64_t hub_removals = 0;
};

struct MeshParams {
  int initial_points = 10000;
  int steps = 300;          ///< deltas in the sequence
  int points_per_step = 25;
  double radius = 0.04;     ///< Gaussian spread of one refinement burst
};

struct PowerlawParams {
  int initial_vertices = 8000;
  int edges_per_vertex = 4;   ///< preferential-attachment out-degree m
  int deltas = 1200;
  int added_per_delta = 6;
  int removed_per_delta = 6;  ///< uniformly random victims
  int hub_every = 8;          ///< every k-th delta also removes the top hub
  int cut_edges_per_delta = 12;
  /// The session's vertex_count trigger; the stream is extended until its
  /// last delta trips it.
  int batch_vertex_limit = 128;
};

/// Initial partitioning shared by every workload: recursive graph
/// bisection, cheap and deterministic; the warm-up rebalance polishes it.
pigp::graph::Partitioning initial_partitioning(const pigp::graph::Graph& g,
                                               int parts);

/// The graph of \p mesh (vertices = points, edges = triangle sides), equal
/// to mesh.to_graph() but built without a global edge sort.
pigp::graph::Graph mesh_graph(const pigp::mesh::TriMesh& mesh);

/// A Delaunay mesh refined by chained refine_near bursts at a hotspot that
/// travels across the unit square (the paper's localized refinement).
/// \p compaction_slack is the session's deferred-compaction trigger, which
/// the generator replays to predict Inputs::compacts.
Inputs make_mesh_inputs(const MeshParams& params, std::uint64_t seed,
                        int parts, double compaction_slack);

/// A preferential-attachment graph plus a churn stream: random edge cuts,
/// random and hub vertex removals, preferential-attachment arrivals.
Inputs make_powerlaw_inputs(const PowerlawParams& params, std::uint64_t seed,
                            int parts, double compaction_slack);

// ---------------------------------------------------------------------------
// Timing backend decorator for the asynchronous workload, whose backend
// calls run on a background thread.  Registered as "timed:igpr"; it forwards
// to "igpr" and records each call's wall time and how many surviving
// vertices the call moved into a BackendLog.

struct BackendLog {
  std::mutex mutex;
  std::vector<double> call_ms;   ///< one entry per backend call
  std::int64_t migrated = 0;     ///< surviving vertices moved by the calls

  void reset() {
    std::lock_guard<std::mutex> lock(mutex);
    call_ms.clear();
    migrated = 0;
  }
};

/// The process-wide log the "timed:igpr" backend writes to.
BackendLog& backend_log();
/// Register "timed:igpr" (idempotent).
void register_timed_backend();

// ---------------------------------------------------------------------------
// Counting SPMD executor: wraps every rank's net::Transport and counts the
// payload bytes and messages it sends and receives, the collectives it
// enters, the time it waits (in recv() and at the process-local barrier
// each collective ends with) and the time its body runs.

struct RankTraffic {
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t messages_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t collectives = 0;
  double wait_s = 0.0;  ///< blocked in recv() or the collective barrier
  double busy_s = 0.0;  ///< body wall time minus wait_s
};

class CountingExecutor final : public pigp::core::SpmdExecutor {
 public:
  explicit CountingExecutor(pigp::core::SpmdExecutor& inner);
  [[nodiscard]] int num_ranks() const noexcept override;
  void run(const std::function<void(pigp::net::Transport&)>& body) override;

  /// Per-rank traffic of the most recent run().
  [[nodiscard]] const std::vector<RankTraffic>& traffic() const noexcept {
    return traffic_;
  }

 private:
  pigp::core::SpmdExecutor& inner_;
  std::vector<RankTraffic> traffic_;
};

// ---------------------------------------------------------------------------
// Report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< 0 = not a sampled statistic
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;  ///< printed, not part of the JSON metrics
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Linear-interpolated percentile (q in [0, 1]) of \p values.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test sizes
};

/// Run one workload and fill \p report.
void run_workload(const RunOptions& options, Report& report);

/// Names of the four workloads; BENCHMARK.json declares all but mesh_refine.
const std::vector<std::string>& workload_names();

/// Reset VmHWM to the current RSS (writes "5" to /proc/self/clear_refs).
bool reset_peak_rss();
/// VmHWM in MB, or -1 when /proc is unavailable.
double peak_rss_mb();

}  // namespace perfbench
