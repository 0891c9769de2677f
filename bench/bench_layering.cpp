// Layering and assignment micro-benchmarks (google-benchmark): the
// per-partition BFS of Figure 3 is the paper's "inherently parallel" step;
// these benches measure its scaling with graph size and part
// count, and the seeded BFS of the initial assignment step.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/assign.hpp"
#include "core/layering.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "spectral/partitioners.hpp"
#include "support/rng.hpp"

namespace {

using namespace pigp;

struct Workload {
  graph::Graph g;
  graph::Partitioning p;
};

Workload make_workload(int n, int parts) {
  Workload w;
  w.g = graph::random_geometric_graph(n, 1.2 / std::sqrt(n), 17);
  w.p = spectral::recursive_graph_bisection(w.g, parts);
  return w;
}

void BM_LayeringSerial(benchmark::State& state) {
  const Workload w =
      make_workload(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) {
    const core::LayeringResult r = core::layer_partitions(w.g, w.p);
    benchmark::DoNotOptimize(r.eps.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LayeringSerial)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

/// Boundary-fraction sweep: full batch layering vs boundary-seeded,
/// depth-capped layering as the dirty-boundary share grows.  Starting from
/// a clean RGB partitioning (small boundary), `permille` of the vertices
/// are randomly reassigned — each reassignment dirties a vertex
/// neighborhood, so the boundary fraction tracks the argument.  The batch
/// path rescans every member of every partition no matter how small the
/// boundary is; the boundary-seeded path costs O(boundary · depth), which
/// is the whole point of maintaining the index.
struct FractionWorkload {
  graph::Graph g;
  graph::Partitioning p;
  graph::PartitionState state;
};

FractionWorkload make_fraction_workload(int n, int parts, int permille) {
  FractionWorkload w;
  w.g = graph::random_geometric_graph(n, 1.2 / std::sqrt(n), 17);
  w.p = spectral::recursive_graph_bisection(w.g, parts);
  SplitMix64 rng(2027);
  const auto dirty = static_cast<int>(
      static_cast<std::int64_t>(n) * permille / 1000);
  w.state.rebuild(w.g, w.p);
  for (int i = 0; i < dirty; ++i) {
    const auto v = static_cast<graph::VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    w.state.move_vertex(w.g, w.p, v,
                        static_cast<graph::PartId>(rng.next_below(
                            static_cast<std::uint64_t>(parts))));
  }
  return w;
}

void BM_LayeringFullAtBoundaryFraction(benchmark::State& state) {
  const FractionWorkload w =
      make_fraction_workload(16000, 32, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const core::LayeringResult r = core::layer_partitions(w.g, w.p);
    benchmark::DoNotOptimize(r.eps.data());
  }
  std::int64_t boundary = 0;
  for (graph::PartId q = 0; q < w.p.num_parts; ++q) {
    boundary +=
        static_cast<std::int64_t>(w.state.boundary_vertices(q).size());
  }
  state.counters["boundary_vertices"] = static_cast<double>(boundary);
}
BENCHMARK(BM_LayeringFullAtBoundaryFraction)
    ->Arg(0)->Arg(10)->Arg(100)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_LayeringBoundarySeededAtBoundaryFraction(benchmark::State& state) {
  const FractionWorkload w =
      make_fraction_workload(16000, 32, static_cast<int>(state.range(0)));
  // Grown to max_layers = 4: the shell a balance stage labels when the
  // seeds alone cannot carry its excess (its first decision is made on the
  // seeds, BM_LayeringSeedShellParts).  The reseed is O(boundary), the
  // growth O(shell).
  core::BoundaryLayering layering(w.g, w.p);
  for (auto _ : state) {
    layering.reseed(w.state);
    layering.grow(4);
    benchmark::DoNotOptimize(layering.eps().data());
  }
  std::int64_t boundary = 0;
  for (graph::PartId q = 0; q < w.p.num_parts; ++q) {
    boundary +=
        static_cast<std::int64_t>(w.state.boundary_vertices(q).size());
  }
  state.counters["boundary_vertices"] = static_cast<double>(boundary);
}
BENCHMARK(BM_LayeringBoundarySeededAtBoundaryFraction)
    ->Arg(0)->Arg(10)->Arg(100)->Arg(500)
    ->Unit(benchmark::kMillisecond);

/// Part-count sweep: boundary-seeded layering grown to exhaustion on the
/// 16k geometric graph, RGB-split into P parts.  Every vertex is labelled
/// once per iteration, and each vote costs O(deg + parts touched), so the
/// time per labelled vertex (the `per_vertex` counter) stays flat in P —
/// a dense P-length tally per vote would grow it linearly.
void BM_LayeringParts(benchmark::State& state) {
  const Workload w = make_workload(16000, static_cast<int>(state.range(0)));
  const graph::PartitionState pstate(w.g, w.p);
  core::BoundaryLayering layering(w.g, w.p);
  std::int64_t labelled = 0;
  for (auto _ : state) {
    layering.reseed(pstate);
    layering.grow(-1);
    benchmark::DoNotOptimize(layering.eps().data());
  }
  for (graph::PartId q = 0; q < w.p.num_parts; ++q) {
    labelled += static_cast<std::int64_t>(layering.labeled(q).size());
  }
  state.counters["labelled"] = static_cast<double>(labelled);
  state.counters["per_vertex"] = benchmark::Counter(
      static_cast<double>(labelled),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_LayeringParts)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// The same part-count sweep on the seed shell alone — reseed, no grow():
/// the layering a balance stage's first decision reads.  Its cost tracks
/// the boundary (the `seeds` counter), not the partitions' interiors.
void BM_LayeringSeedShellParts(benchmark::State& state) {
  const Workload w = make_workload(16000, static_cast<int>(state.range(0)));
  const graph::PartitionState pstate(w.g, w.p);
  core::BoundaryLayering layering(w.g, w.p);
  for (auto _ : state) {
    layering.reseed(pstate);
    benchmark::DoNotOptimize(layering.eps().data());
  }
  std::int64_t seeds = 0;
  for (graph::PartId q = 0; q < w.p.num_parts; ++q) {
    seeds += static_cast<std::int64_t>(layering.labeled(q).size());
  }
  state.counters["seeds"] = static_cast<double>(seeds);
}
BENCHMARK(BM_LayeringSeedShellParts)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Unit(benchmark::kMillisecond);

void BM_AssignNewVertices(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Workload w = make_workload(n, 32);
  // Pretend the last 5% of vertices are new.
  const graph::VertexId n_old =
      static_cast<graph::VertexId>(n - n / 20);
  graph::Partitioning old_p;
  old_p.num_parts = w.p.num_parts;
  old_p.part.assign(w.p.part.begin(), w.p.part.begin() + n_old);
  for (auto _ : state) {
    const graph::Partitioning p =
        core::extend_assignment(w.g, old_p, n_old);
    benchmark::DoNotOptimize(p.part.data());
  }
}
BENCHMARK(BM_AssignNewVertices)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so --smoke can map onto a benchmark filter + short min-time:
// CI runs one small instance of each benchmark family in a few seconds.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string filter =
      "--benchmark_filter=(BM_LayeringSerial/1000$|BM_LayeringThreads/2$|"
      "BM_LayeringFullAtBoundaryFraction/10$|"
      "BM_LayeringBoundarySeededAtBoundaryFraction/10$|"
      "BM_LayeringParts/32$|BM_LayeringSeedShellParts/32$|"
      "BM_AssignNewVertices/4000$)";
  std::string min_time = "--benchmark_min_time=0.05s";
  if (smoke) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
