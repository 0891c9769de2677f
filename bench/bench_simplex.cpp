// Simplex micro-benchmarks (google-benchmark) backing the paper's §3 cost
// analysis: "Most of the time spent by our algorithm is in the solution of
// the linear programming formulation using the simplex method. ... Each
// iteration in the dense matrix formulation requires time proportional to
// O(vc)" and the v = 188 / c = 126 accounting for mesh A at 32 partitions.
//
// Benchmarks:
//  * balance-LP solve time vs partition count (the LP grows with P, not
//    with |V| — the paper's key scalability point);
//  * dense vs bounded-variable simplex vs network simplex on identical
//    programs;
//  * dense-tableau pivoting on a large dense LP.
//
// The fixture also prints the v/c accounting for the paper's workload once.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/balance.hpp"
#include "core/layering.hpp"
#include "graph/generators.hpp"
#include "lp/bounded_simplex.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/network_flow.hpp"
#include "support/rng.hpp"

namespace {

using namespace pigp;

/// Balance LP of a random geometric graph striped over `parts` partitions
/// with a heavy partition 0 — the exact LP family the partitioner emits.
lp::LinearProgram make_balance_lp(int parts, std::uint64_t seed) {
  const int n = 220 * parts;  // vertices scale with parts; LP should not
  const graph::Graph g =
      graph::random_geometric_graph(n, 0.9 / std::sqrt(n), seed);
  graph::Partitioning p;
  p.num_parts = parts;
  p.part.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    // Skew: the first 1.5/parts fraction goes to partition 0.
    p.part[static_cast<std::size_t>(v)] =
        static_cast<graph::PartId>((v * parts) / (n + n / 2));
  }
  const core::LayeringResult layering = core::layer_partitions(g, p);

  std::vector<double> weight(static_cast<std::size_t>(parts), 0.0);
  for (int v = 0; v < n; ++v) {
    weight[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])] +=
        1.0;
  }
  const auto targets = graph::balance_targets(n, parts);
  std::vector<double> rhs(static_cast<std::size_t>(parts));
  for (int q = 0; q < parts; ++q) {
    rhs[static_cast<std::size_t>(q)] =
        weight[static_cast<std::size_t>(q)] -
        targets[static_cast<std::size_t>(q)];
  }
  return core::build_balance_lp(layering.eps, rhs, nullptr);
}

void BM_BalanceLpDense(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  const lp::LinearProgram program = make_balance_lp(parts, 42);
  lp::DenseSimplex solver;
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const lp::Solution s = solver.solve(program);
    benchmark::DoNotOptimize(s.objective);
    iterations = s.iterations;
  }
  state.counters["lp_vars"] = program.num_variables();
  state.counters["lp_rows"] = program.num_rows();
  state.counters["pivots"] = static_cast<double>(iterations);
}
BENCHMARK(BM_BalanceLpDense)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BalanceLpBounded(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  const lp::LinearProgram program = make_balance_lp(parts, 42);
  lp::BoundedSimplex solver;
  for (auto _ : state) {
    const lp::Solution s = solver.solve(program);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["lp_vars"] = program.num_variables();
}
BENCHMARK(BM_BalanceLpBounded)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BalanceLpNetwork(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  const lp::LinearProgram program = make_balance_lp(parts, 42);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const lp::Solution s =
        lp::solve_network_program(program, lp::NetworkOptions{});
    benchmark::DoNotOptimize(s.objective);
    iterations = s.iterations;
  }
  state.counters["lp_vars"] = program.num_variables();
  state.counters["pivots"] = static_cast<double>(iterations);
}
BENCHMARK(BM_BalanceLpNetwork)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// Dense random LP big enough for pivot cost to dominate.
lp::LinearProgram make_dense_lp(int vars, int rows, std::uint64_t seed) {
  SplitMix64 rng(seed);
  lp::LinearProgram program(lp::Sense::maximize);
  for (int j = 0; j < vars; ++j) {
    program.add_variable(rng.next_in(0.5, 2.0), 0.0, rng.next_in(1.0, 4.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < vars; ++j) {
      if (rng.next_double() < 0.6) {
        coeffs.emplace_back(j, rng.next_in(0.1, 2.0));
      }
    }
    program.add_row(lp::RowType::less_equal, std::move(coeffs),
                    rng.next_in(vars * 0.2, vars * 0.5));
  }
  return program;
}

void BM_DensePivot(benchmark::State& state) {
  const lp::LinearProgram program = make_dense_lp(320, 260, 7);
  const lp::DenseSimplex solver;
  for (auto _ : state) {
    const lp::Solution s = solver.solve(program);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_DensePivot)->Unit(benchmark::kMillisecond);

/// One-time printout of the paper's §3 LP-size accounting for mesh A.
void print_paper_lp_accounting() {
  const lp::LinearProgram program = make_balance_lp(32, 1994);
  std::printf(
      "[paper accounting] balance LP at P=32: v=%d movement variables, "
      "c=%d balance rows (+ bounds; paper reports v=188, c=126 for mesh A "
      "at |V|=1096)\n",
      program.num_variables(), program.num_rows());
}

}  // namespace

// --smoke maps onto a benchmark filter + short min-time so CI rot-checks
// one small instance of each benchmark family in a few seconds.
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
      "--benchmark_filter=(BM_BalanceLpDense/8$|BM_BalanceLpBounded/8$|"
      "BM_BalanceLpNetwork/8$|BM_DensePivot/2$)";
  std::string min_time = "--benchmark_min_time=0.05s";
  if (smoke) {
    args.push_back(filter.data());
    args.push_back(min_time.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  print_paper_lp_accounting();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
