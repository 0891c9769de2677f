// pigp_perfbench — the delta-stream benchmark program.
//
//   pigp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   pigp_perfbench --selftest
//
// Prints every metric by name with its unit and sample count, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when an output check fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "api/session.hpp"
#include "bench.hpp"
#include "mesh/adaptive.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric the JSON carries, in BENCHMARK.json order, with its unit.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"deltas_per_s", "1/s"},
    {"rebalance_p50_ms", "ms"}, {"rebalance_p90_ms", "ms"},
    {"absorb_p50_ms", "ms"},    {"absorb_p90_ms", "ms"},
    {"cut_total", "edges"},     {"imbalance", "ratio"},
    {"migrated_vertices", "count"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.validate_us", "us"},
    {"graph.absorb_ms", "ms"},
    {"graph.compact_ms", "ms"},
    {"graph.compactions", "count"},
    {"graph.edges_touched", "count"},
    {"graph.boundary_vertices", "count"},
    {"core.assign_ms", "ms"},
    {"core.layering_ms", "ms"},
    {"core.layering_full_ms", "ms"},
    {"core.balance_ms", "ms"},
    {"core.refine_ms", "ms"},
    {"core.spmd_ms", "ms"},
    {"api.adopt_ms", "ms"},
    {"core.balance_stages", "count"},
    {"core.layer_depth", "count"},
    {"core.layering_exhausted", "count"},
    {"core.balance_moved", "count"},
    {"core.refine_rounds", "count"},
    {"core.refine_moved", "count"},
    {"core.refine_gain", "edges"},
    {"lp.solve_ms", "ms"},
    {"lp.pivots", "count"},
    {"lp.rows", "count"},
    {"lp.vars", "count"},
    {"async.publish_ms", "ms"},
    {"async.submit_ms", "ms"},
    {"async.queue_high_watermark", "count"},
    {"async.commit_frac", "ratio"},
    {"async.commits_discarded", "count"},
    {"async.epochs_per_delta", "ratio"},
    {"async.view_imbalance_p90", "ratio"},
    {"async.generator_late_ms", "ms"},
    {"async.lookups_per_s", "1/s"},
    {"net.bytes_per_rebalance", "bytes"},
    {"net.messages_per_rebalance", "count"},
    {"net.collectives_per_rebalance", "count"},
    {"net.recv_wait_ms", "ms"},
    {"net.rank_busy_ms", "ms"},
    {"setup.session_ms", "ms"},
    {"setup.warm_rebalance_ms", "ms"},
    {"trace.overhead_pct", "%"}};

const Metric* find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void print_metric(const Metric& m) {
  std::printf("  %-32s %16.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) {
    std::printf("  (n=%lld)", static_cast<long long>(m.samples));
  }
  std::printf("\n");
}

/// Print the human-readable report and the JSON line; returns the exit code.
int emit(const perfbench::RunOptions& options, Report& report) {
  std::vector<Metric>& selected =
      options.trace ? report.per_layer : report.end_to_end;
  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  // A layer the workload does not exercise reports 0 (no calls, no bytes).
  for (const MetricSpec& spec : specs) {
    const Metric* m = find(selected, spec.name);
    if (m == nullptr) {
      selected.push_back(Metric{spec.name, 0.0, spec.unit, 0});
      report.notes.push_back(std::string(spec.name) +
                             ": not exercised by this workload");
    } else if (m->unit != spec.unit) {
      report.check(false, std::string(spec.name) + " reported in " + m->unit +
                              ", declared in " + spec.unit);
    }
  }
  for (const Metric& m : selected) {
    report.check(std::any_of(specs.begin(), specs.end(),
                             [&m](const MetricSpec& spec) {
                               return m.name == spec.name;
                             }),
                 m.name + " is reported but not declared");
  }
  std::printf("workload %s  seed %llu  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("end-to-end:\n");
  for (const Metric& m : report.end_to_end) print_metric(m);
  std::printf("info:\n");
  for (const Metric& m : report.info) print_metric(m);
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const Metric& m : report.per_layer) print_metric(m);
  }
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failures.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Metric* m = find(selected, spec.name);
    json << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
         << json_number(m->value) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::fflush(stdout);
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-tests at tiny sizes.

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double metric_of(const Report& r, const std::string& name) {
  const Metric* m = find(r.per_layer, name);
  if (m == nullptr) m = find(r.end_to_end, name);
  return m == nullptr ? std::numeric_limits<double>::quiet_NaN() : m->value;
}

Report tiny_traced(const std::string& workload, std::uint64_t seed) {
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.0;  // one round
  options.trace = true;
  options.tiny = true;
  Report report;
  perfbench::run_workload(options, report);
  for (const std::string& f : report.failures) {
    std::printf("  check failed in %s: %s\n", workload.c_str(), f.c_str());
  }
  return report;
}

void selftest_powerlaw() {
  std::printf("powerlaw generator:\n");
  perfbench::PowerlawParams params;
  params.initial_vertices = 3000;
  params.deltas = 60;
  const double slack = 0.05;
  const perfbench::Inputs in =
      perfbench::make_powerlaw_inputs(params, 3, 32, slack);
  const pigp::graph::Graph& g = in.g0;
  pigp::graph::EdgeIndex max_degree = 0;
  for (pigp::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  const double mean_degree = 2.0 * static_cast<double>(g.num_edges()) /
                             static_cast<double>(g.num_vertices());
  expect(static_cast<double>(max_degree) >= 10.0 * mean_degree,
         "heavy degree tail: max " + std::to_string(max_degree) + " vs mean " +
             std::to_string(mean_degree));
  expect(in.hub_removals > 0,
         "hub deletions occur: " + std::to_string(in.hub_removals));

  // Replay through an absorb-only session: every delta must validate
  // against the session's own graph, and the generator's compaction
  // prediction must match the session's.
  pigp::SessionConfig config;
  config.num_parts = 32;
  config.graph_compaction = pigp::GraphCompaction::deferred;
  config.compaction_slack = slack;
  config.batch_policy = pigp::BatchPolicy::vertex_count;
  config.batch_vertex_limit = std::numeric_limits<int>::max();
  pigp::Session session(config, in.g0, in.p0);
  bool valid = true;
  bool compactions_match = true;
  std::int64_t compactions = 0;
  for (std::size_t i = 0; i < in.deltas.size(); ++i) {
    try {
      pigp::graph::validate_delta(session.graph(), in.deltas[i]);
      const pigp::SessionReport r = session.apply(in.deltas[i]);
      compactions_match &= r.compacted == (in.compacts[i] != 0);
      compactions += r.compacted ? 1 : 0;
    } catch (const std::exception&) {
      valid = false;
      break;
    }
  }
  expect(valid, "all " + std::to_string(in.deltas.size()) +
                    " deltas validate against the session graph");
  expect(compactions_match && compactions > 0,
         "compaction predicted on the same deltas (" +
             std::to_string(compactions) + " compactions)");
}

void selftest_counting_net() {
  std::printf("counting transport:\n");
  const Report a = tiny_traced("mesh_spmd_tcp", 5);
  const Report b = tiny_traced("mesh_spmd_tcp", 5);
  expect(a.failures.empty() && b.failures.empty(),
         "bytes and messages sent equal those received, summed over ranks");
  const double bytes = metric_of(a, "net.bytes_per_rebalance");
  expect(bytes > 0 && bytes == metric_of(b, "net.bytes_per_rebalance") &&
             metric_of(a, "net.messages_per_rebalance") ==
                 metric_of(b, "net.messages_per_rebalance"),
         "bytes/messages repeat exactly: " + json_number(bytes));
}

void selftest_mesh_graph() {
  std::printf("mesh graph:\n");
  pigp::mesh::AdaptiveMesh amesh = pigp::mesh::AdaptiveMesh::random(800, 9);
  pigp::mesh::RefineOptions refine;
  refine.count = 40;
  (void)amesh.refine_near(refine);
  const pigp::graph::Graph ours = perfbench::mesh_graph(amesh.snapshot());
  const pigp::graph::Graph theirs = amesh.to_graph();
  bool same = ours.num_vertices() == theirs.num_vertices() &&
              ours.num_edges() == theirs.num_edges();
  for (pigp::graph::VertexId v = 0; same && v < ours.num_vertices(); ++v) {
    const auto a = ours.neighbors(v);
    const auto b = theirs.neighbors(v);
    same = std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  expect(same, "mesh_graph equals TriMesh::to_graph");
}

void selftest_determinism() {
  std::printf("determinism:\n");
  for (const std::string& w :
       {std::string("mesh_refine"), std::string("powerlaw_churn"),
        std::string("mesh_spmd_tcp")}) {
    const Report a = tiny_traced(w, 11);
    const Report b = tiny_traced(w, 11);
    bool same = a.failures.empty() && b.failures.empty();
    for (const char* name : {"cut_total", "migrated_vertices", "lp.pivots",
                             "net.bytes_per_rebalance"}) {
      const double x = metric_of(a, name);
      const double y = metric_of(b, name);
      same &= (x == y) || (std::isnan(x) && std::isnan(y));
    }
    expect(same, w + ": two runs give identical cut/migrations/pivots/bytes");
  }
  // A different seed: different deltas, same count.
  perfbench::MeshParams mesh;
  mesh.initial_points = 1500;
  mesh.steps = 6;
  const perfbench::Inputs m1 = perfbench::make_mesh_inputs(mesh, 1, 32, 0.5);
  const perfbench::Inputs m2 = perfbench::make_mesh_inputs(mesh, 2, 32, 0.5);
  perfbench::PowerlawParams pl;
  pl.initial_vertices = 1500;
  pl.deltas = 20;
  const perfbench::Inputs p1 = perfbench::make_powerlaw_inputs(pl, 1, 32, 0.05);
  const perfbench::Inputs p2 = perfbench::make_powerlaw_inputs(pl, 2, 32, 0.05);
  const auto differ = [](const perfbench::Inputs& x,
                         const perfbench::Inputs& y) {
    for (std::size_t i = 0; i < std::min(x.deltas.size(), y.deltas.size());
         ++i) {
      if (x.deltas[i].removed_vertices != y.deltas[i].removed_vertices ||
          x.deltas[i].removed_edges != y.deltas[i].removed_edges ||
          x.deltas[i].added_vertices.size() !=
              y.deltas[i].added_vertices.size()) {
        return true;
      }
      for (std::size_t a = 0; a < x.deltas[i].added_vertices.size(); ++a) {
        if (x.deltas[i].added_vertices[a].edges !=
            y.deltas[i].added_vertices[a].edges) {
          return true;
        }
      }
    }
    return false;
  };
  expect(m1.deltas.size() == m2.deltas.size() && differ(m1, m2),
         "mesh: another seed gives different deltas, same count");
  bool same_sizes = p1.deltas.size() == p2.deltas.size();
  for (std::size_t i = 0; same_sizes && i < p1.deltas.size(); ++i) {
    same_sizes = p1.deltas[i].added_vertices.size() ==
                     p2.deltas[i].added_vertices.size() &&
                 p1.deltas[i].removed_vertices.size() ==
                     p2.deltas[i].removed_vertices.size();
  }
  expect(same_sizes && differ(p1, p2),
         "powerlaw: another seed gives different deltas of the same sizes");
}

int selftest() {
  selftest_mesh_graph();
  selftest_powerlaw();
  selftest_counting_net();
  selftest_determinism();
  std::printf("async smoke:\n");
  const Report a = tiny_traced("mesh_async_serve", 3);
  expect(a.failures.empty() && a.failed == 0,
         "mesh_async_serve runs clean at tiny size");
  std::printf("%s (%d failed)\n",
              failures == 0 ? "SELFTEST OK" : "SELFTEST FAILED", failures);
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: pigp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       pigp_perfbench --selftest\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool run_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--list-metrics") {
        for (const MetricSpec& spec : kEndToEnd) {
          std::printf("end_to_end %s %s\n", spec.name, spec.unit);
        }
        for (const MetricSpec& spec : kPerLayer) {
          std::printf("per_layer %s %s\n", spec.name, spec.unit);
        }
        return 0;
      } else if (arg == "--selftest") {
        run_selftest = true;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage();
      return 2;
    }
  }
  try {
    if (run_selftest) return selftest();
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end()) {
      usage();
      return 2;
    }
    Report report;
    perfbench::run_workload(options, report);
    return emit(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 3;
  }
}
