// Backend parity: the flat, SPMD, and multilevel backends consume the same
// delta stream through identical Session configurations and must agree —
// exactly for flat vs SPMD (the message-passing driver is bit-identical to
// the shared-memory pipeline by construction), and up to quality bounds for
// the multilevel V-cycle (same balance guarantee, comparable cut).  Every
// built-in backend's plain overload (the base-class copy-and-seed adapter)
// also returns exactly what its in-place overload leaves behind.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "api/session.hpp"
#include "core/workspace.hpp"
#include "graph/generators.hpp"
#include "graph/partition_state.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;

constexpr graph::PartId kParts = 8;

/// Localized insertion burst near \p anchor plus a couple of deletions far
/// from it — the §1.1 adaptation pattern.
GraphDelta stream_delta(graph::VertexId n, int step) {
  GraphDelta delta;
  const graph::VertexId anchor = (13 * step + 2) % (n / 3);
  for (int i = 0; i < 10; ++i) {
    VertexAddition add;
    add.edges.emplace_back(anchor + (i % 3), 1.0);
    if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);
    delta.added_vertices.push_back(add);
  }
  const auto far = static_cast<graph::VertexId>(n - 1 - 2 * step);
  delta.removed_vertices = {far};
  return delta;
}

struct StreamOutcome {
  Partitioning partitioning;
  Graph graph;
  bool all_balanced = true;
  double final_cut = 0.0;
};

StreamOutcome run_stream(const std::string& backend, const Graph& base,
                         const Partitioning& initial, int steps) {
  SessionConfig config;
  config.num_parts = kParts;
  config.backend = backend;
  config.spmd_ranks = 3;  // uneven rank/partition split on purpose
  Session session(config, base, initial);
  StreamOutcome out;
  for (int step = 0; step < steps; ++step) {
    const SessionReport report =
        session.apply(stream_delta(session.graph().num_vertices(), step));
    out.all_balanced = out.all_balanced && report.balance.balanced;
  }
  out.partitioning = session.partitioning();
  out.graph = session.graph();
  out.final_cut = session.metrics().cut_total;
  return out;
}

TEST(BackendParity, FlatSpmdAndMultilevelAgreeOnTheSameStream) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(700, {}, 31);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, kParts);
  constexpr int kSteps = 3;

  const StreamOutcome flat = run_stream("igpr", base, initial, kSteps);
  const StreamOutcome spmd = run_stream("spmd", base, initial, kSteps);
  const StreamOutcome multilevel =
      run_stream("multilevel", base, initial, kSteps);

  // All three see the same evolved graph.
  ASSERT_EQ(flat.graph, spmd.graph);
  ASSERT_EQ(flat.graph, multilevel.graph);

  // Every backend must deliver balanced partitions on every step.
  EXPECT_TRUE(flat.all_balanced);
  EXPECT_TRUE(spmd.all_balanced);
  EXPECT_TRUE(multilevel.all_balanced);
  EXPECT_TRUE(graph::is_balanced(flat.graph, flat.partitioning));
  EXPECT_TRUE(graph::is_balanced(spmd.graph, spmd.partitioning));
  EXPECT_TRUE(graph::is_balanced(multilevel.graph, multilevel.partitioning));

  // The SPMD engine reproduces the shared-memory pipeline bit-for-bit.
  EXPECT_EQ(flat.partitioning.part, spmd.partitioning.part);

  // The multilevel V-cycle takes its own path; require sane quality: a
  // valid partitioning with a cut in the same ballpark as the flat driver.
  multilevel.partitioning.validate(multilevel.graph);
  EXPECT_GT(multilevel.final_cut, 0.0);
  EXPECT_LE(multilevel.final_cut, 3.0 * flat.final_cut);
}

TEST(BackendParity, IgpAndIgprBackendsDifferOnlyInRefinement) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(600, {}, 37);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, kParts);

  const StreamOutcome igp = run_stream("igp", base, initial, 2);
  const StreamOutcome igpr = run_stream("igpr", base, initial, 2);

  ASSERT_EQ(igp.graph, igpr.graph);
  EXPECT_TRUE(graph::is_balanced(igp.graph, igp.partitioning));
  EXPECT_TRUE(graph::is_balanced(igpr.graph, igpr.partitioning));
  // Refinement never worsens the cut.
  EXPECT_LE(igpr.final_cut, igp.final_cut);
}

TEST(BackendParity, ScratchBackendRepartitionsIndependentlyOfHistory) {
  const Graph g = graph::random_geometric_graph(500, 0.08, 41);
  const Partitioning initial = spectral::recursive_graph_bisection(g, kParts);

  SessionConfig config;
  config.num_parts = kParts;
  config.backend = "scratch";
  config.scratch_method = "rgb";
  Session session(config, g, initial);

  const SessionReport report =
      session.apply(stream_delta(g.num_vertices(), 0));
  EXPECT_TRUE(report.repartitioned);
  session.partitioning().validate(session.graph());
  EXPECT_TRUE(graph::is_balanced(session.graph(), session.partitioning()));

  // A fresh from-scratch partition of the same graph is identical — the
  // scratch backend carries no incremental state.
  const Partitioning fresh =
      spectral::recursive_graph_bisection(session.graph(), kParts);
  EXPECT_EQ(session.partitioning().part, fresh.part);
}

TEST(BackendParity, PlainAdapterMatchesInPlaceOverloadForEveryBuiltIn) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(500, {60}, 43);
  const Graph& after = seq.graphs[1];
  const graph::VertexId n_old = seq.graphs[0].num_vertices();
  const graph::VertexId n = after.num_vertices();
  ASSERT_LT(n_old, n);  // step 1 has vertices to place
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], kParts);

  SessionConfig config;
  config.num_parts = kParts;
  config.spmd_ranks = 3;
  config.scratch_method = "rgb";
  for (const std::string name :
       {"igp", "igpr", "multilevel", "spmd", "scratch"}) {
    config.backend = name;
    const ResolvedConfig resolved = config.resolve();

    const std::unique_ptr<Backend> plain =
        BackendRegistry::global().create(name, resolved);
    const BackendResult copied = plain->repartition(after, initial, n_old);

    // The in-place overload on the shape Session hands it: the old prefix
    // assigned, the appended tail unassigned in the state.
    Partitioning working = initial;
    working.part.resize(static_cast<std::size_t>(n), 0);
    graph::PartitionState state(after, working);
    for (graph::VertexId v = n_old; v < n; ++v) {
      state.move_vertex(after, working, v, graph::kUnassigned);
    }
    working.part.resize(static_cast<std::size_t>(n_old));
    core::Workspace ws;
    const std::unique_ptr<Backend> in_place =
        BackendRegistry::global().create(name, resolved);
    const BackendResult direct =
        in_place->repartition(after, working, n_old, state, ws);

    EXPECT_TRUE(direct.partitioning.part.empty()) << name;
    EXPECT_EQ(copied.partitioning.num_parts, working.num_parts) << name;
    EXPECT_EQ(copied.partitioning.part, working.part) << name;
    EXPECT_EQ(copied.balance_result.stages.size(),
              direct.balance_result.stages.size())
        << name;
    EXPECT_EQ(copied.balance_result.balanced, direct.balance_result.balanced)
        << name;
    // The in-place run left the state describing its answer.
    const graph::PartitionMetrics fresh =
        graph::compute_metrics(after, working);
    EXPECT_EQ(state.snapshot().weight, fresh.weight) << name;
    EXPECT_EQ(state.cut_total(), fresh.cut_total) << name;
  }
}

}  // namespace
}  // namespace pigp
