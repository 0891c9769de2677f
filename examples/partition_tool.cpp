// Command-line partitioning tool — the adoption path for external users:
//
//   partition_tool [--backend=NAME] <graph.metis> <parts> [method]
//       Partition a METIS-format graph from scratch.
//       method: rsb (default) | rgb | rsb+kl
//       Writes <graph.metis>.part.<parts> next to the input.
//
//   partition_tool [--backend=NAME] <old.metis> <new.metis> <old.part>
//                  [igp|igpr]
//       Incremental mode: `new` extends `old` (its first |V_old| vertices
//       are the old graph's).  Repartitions starting from the partition
//       file and writes <new.metis>.part.<P>.
//
// --backend selects the repartitioning driver from the registry at runtime
// (igp | igpr | multilevel | spmd | scratch); without it, incremental mode
// maps the method argument onto the igp/igpr backends.
//
// With no arguments, runs a self-contained demo on a generated mesh so the
// binary is exercised by the argument-free example loop.

#include <iostream>
#include <string>
#include <vector>

#include "mesh/adaptive.hpp"
#include "pigp.hpp"
#include "runtime/timer.hpp"

namespace {

using namespace pigp;

void report(const graph::Graph& g, const graph::Partitioning& p,
            double seconds) {
  const auto m = graph::compute_metrics(g, p);
  std::cout << "  cut=" << m.cut_total << " (max " << m.cut_max << ", min "
            << m.cut_min << "), weights " << m.min_weight << ".."
            << m.max_weight << " (imbalance " << m.imbalance << "), "
            << seconds << " s\n";
}

int partition_from_scratch(const std::string& path, int parts,
                           const std::string& method) {
  const graph::Graph g = graph::load_metis_file(path);
  std::cout << "loaded " << path << ": |V|=" << g.num_vertices()
            << " |E|=" << g.num_edges() << "\n";
  SessionConfig config;
  config.num_parts = static_cast<graph::PartId>(parts);
  config.backend = "scratch";
  config.scratch_method = method;
  runtime::WallTimer timer;
  const Session session(config, g);
  const double seconds = timer.seconds();
  std::cout << method << " partitioning into " << parts << " parts:\n";
  report(session.graph(), session.partitioning(), seconds);
  const std::string out = path + ".part." + std::to_string(parts);
  graph::save_partition_file(session.partitioning(), out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

int partition_incremental(const std::string& old_path,
                          const std::string& new_path,
                          const std::string& part_path,
                          const std::string& backend) {
  const graph::Graph g_old = graph::load_metis_file(old_path);
  const graph::Graph g_new = graph::load_metis_file(new_path);
  graph::Partitioning old_p = graph::load_partition_file(part_path);
  PIGP_CHECK(old_p.num_vertices() == g_old.num_vertices(),
             "partition file does not match the old graph");
  PIGP_CHECK(g_new.num_vertices() >= g_old.num_vertices(),
             "new graph must extend the old graph");

  SessionConfig config;
  config.num_parts = old_p.num_parts;
  config.backend = backend;
  Session session(config, g_old, std::move(old_p));
  runtime::WallTimer timer;
  const SessionReport result =
      session.apply_extended(g_new, g_old.num_vertices());
  const double seconds = timer.seconds();
  std::cout << backend << " repartitioning (" << result.balance.stages.size()
            << " balance stage(s)):\n";
  report(session.graph(), session.partitioning(), seconds);
  const std::string out =
      new_path + ".part." + std::to_string(session.config().num_parts);
  graph::save_partition_file(session.partitioning(), out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

int demo(const std::string& backend) {
  std::cout << "no arguments: running the built-in demo (backend \""
            << backend << "\")\n"
            << "usage:\n"
            << "  partition_tool [--backend=NAME] <graph.metis> <parts> "
               "[rsb|rgb|rsb+kl]\n"
            << "  partition_tool [--backend=NAME] <old.metis> <new.metis> "
               "<old.part> [igp|igpr]\n"
            << "backends:";
  for (const std::string& name : BackendRegistry::global().names()) {
    std::cout << ' ' << name;
  }
  std::cout << "\n\n";

  mesh::AdaptiveMesh amesh = mesh::AdaptiveMesh::random(1500, 3);
  const graph::Graph before = amesh.to_graph();

  SessionConfig config;
  config.num_parts = 8;
  config.backend = backend;
  Session session(config, before);  // initial RSB partition
  std::cout << "demo mesh |V|=" << before.num_vertices() << ", RSB:\n";
  report(session.graph(), session.partitioning(), 0.0);

  mesh::RefineOptions refine;
  refine.center = {0.4, 0.5};
  refine.radius = 0.05;
  refine.count = 120;
  refine.seed = 5;
  (void)amesh.refine_near(refine);
  const graph::Graph after = amesh.to_graph();

  const SessionReport result =
      session.apply_extended(after, before.num_vertices());
  std::cout << "after +" << after.num_vertices() - before.num_vertices()
            << " nodes, backend \"" << session.backend_name() << "\":\n";
  report(session.graph(), session.partitioning(), result.seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Peel off --backend=NAME wherever it appears.
    std::string backend_flag;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--backend=", 0) == 0) {
        backend_flag = arg.substr(std::string("--backend=").size());
      } else {
        args.push_back(arg);
      }
    }

    if (args.empty()) {
      return demo(backend_flag.empty() ? "igpr" : backend_flag);
    }
    // From-scratch mode iff the second positional is a part count; any
    // other 3-argument form is incremental (old, new, part-file).
    const auto is_integer = [](const std::string& s) {
      return !s.empty() &&
             s.find_first_not_of("0123456789") == std::string::npos;
    };
    if (args.size() >= 2 && args.size() <= 3 && is_integer(args[1])) {
      if (!backend_flag.empty() && backend_flag != "scratch") {
        std::cerr << "error: from-scratch mode always uses the scratch "
                     "backend; pick the algorithm with the method argument "
                     "(rsb|rgb|rsb+kl), not --backend=" << backend_flag
                  << "\n";
        return 2;
      }
      return partition_from_scratch(args[0], std::stoi(args[1]),
                                    args.size() == 3 ? args[2] : "rsb");
    }
    if (args.size() >= 3 && args.size() <= 4) {
      // The positional method maps onto the igp/igpr backends; --backend
      // overrides it with any registered name.
      const std::string method = args.size() == 4 ? args[3] : "igpr";
      const std::string backend =
          backend_flag.empty() ? method : backend_flag;
      return partition_incremental(args[0], args[1], args[2], backend);
    }
    std::cerr << "bad arguments; run without arguments for usage\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
