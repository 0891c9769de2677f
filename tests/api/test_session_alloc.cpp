// Steady-state memory discipline: once a Session's Workspace is warm, a
// repartition tick (an empty delta under every_delta, or a forced
// repartition()) performs ZERO heap allocations — pinning the tentpole
// property of the workspace subsystem with an operator-new counting hook
// instead of relying on bench numbers.
//
// The workload is quiescent by construction: equal-size cliques joined in
// a ring by single bridge edges.  The partitioning is perfectly balanced
// (balance early-returns before any layering or LP) and every boundary
// vertex has strictly negative gain (7 internal edges vs 1 external), so
// refinement collects zero candidates and never builds an LP — the phases
// that are *documented* to allocate (LP model construction and solves)
// are legitimately idle, and everything else must come from the pooled
// workspace buffers.
//
// Under ASan/UBSan the allocator is interposed and the accounting below
// would measure the sanitizer runtime, not the library — the tests skip
// themselves there (the smoke label still runs them in every other CI
// configuration, Debug included).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/session.hpp"
#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/refine.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PIGP_ALLOC_COUNTING_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer)
#define PIGP_ALLOC_COUNTING_DISABLED 1
#endif
#endif

namespace {

std::atomic<long long> g_new_calls{0};

[[nodiscard]] long long allocation_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

}  // namespace

#ifndef PIGP_ALLOC_COUNTING_DISABLED
// Global operator new/delete replacement: count every allocation, forward
// to malloc/free.  The full set (array, nothrow, sized, aligned) is
// replaced so no variant silently falls back to a different allocator.
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Every delete frees through this one out-of-line function.  Inlined
// into a caller of `new`, a direct std::free would make GCC 12 at -O2
// (the ThreadSanitizer build) report -Wmismatched-new-delete: it cannot
// see that operator new is replaced by malloc too.
namespace {
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
#endif  // PIGP_ALLOC_COUNTING_DISABLED

namespace pigp {
namespace {

constexpr graph::PartId kParts = 4;
constexpr int kCliqueSize = 8;

/// kParts cliques of kCliqueSize vertices, joined in a ring by one bridge
/// edge each: balanced, and every boundary vertex has strictly more
/// internal than external edge weight.
graph::Graph clique_ring() {
  graph::GraphBuilder builder(kParts * kCliqueSize);
  for (int c = 0; c < kParts; ++c) {
    const graph::VertexId base = c * kCliqueSize;
    for (int i = 0; i < kCliqueSize; ++i) {
      for (int j = i + 1; j < kCliqueSize; ++j) {
        builder.add_edge(base + i, base + j, 1.0);
      }
    }
  }
  for (int c = 0; c < kParts; ++c) {
    const graph::VertexId from = c * kCliqueSize;
    const graph::VertexId to =
        ((c + 1) % kParts) * kCliqueSize + 1;
    builder.add_edge(from, to, 1.0);
  }
  return builder.build();
}

graph::Partitioning clique_partitioning() {
  graph::Partitioning p;
  p.num_parts = kParts;
  p.part.resize(static_cast<std::size_t>(kParts * kCliqueSize));
  for (std::size_t v = 0; v < p.part.size(); ++v) {
    p.part[v] = static_cast<graph::PartId>(v / kCliqueSize);
  }
  return p;
}

Session make_quiescent_session() {
  SessionConfig config;
  config.num_parts = kParts;
  config.backend = "igpr";
  config.batch_policy = BatchPolicy::every_delta;
  return Session(config, clique_ring(), clique_partitioning());
}

TEST(SessionAlloc, SteadyStateApplyPerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  Session session = make_quiescent_session();
  const graph::GraphDelta empty;

  // Warm-up: the first ticks size every workspace buffer.
  for (int i = 0; i < 3; ++i) {
    const SessionReport warm = session.apply(empty);
    ASSERT_TRUE(warm.repartitioned);
    ASSERT_TRUE(warm.balance.balanced);
  }

  for (int i = 0; i < 5; ++i) {
    const long long before = allocation_count();
    const SessionReport report = session.apply(empty);
    const long long allocated = allocation_count() - before;
    EXPECT_EQ(allocated, 0) << "steady-state apply #" << i
                            << " touched the heap";
    EXPECT_TRUE(report.repartitioned);
    EXPECT_TRUE(report.balance.balanced);
    EXPECT_DOUBLE_EQ(report.metrics.imbalance, 1.0);
  }

  // trim_memory() hands the pools back; the next tick re-warms them and
  // the one after is allocation-free again.
  session.trim_memory();
  (void)session.apply(empty);  // re-warm
  const long long before = allocation_count();
  (void)session.apply(empty);
  EXPECT_EQ(allocation_count() - before, 0)
      << "apply after trim_memory + re-warm touched the heap";
#endif
}

TEST(SessionAlloc, SteadyStateForcedRepartitionPerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  Session session = make_quiescent_session();
  for (int i = 0; i < 3; ++i) (void)session.repartition();  // warm-up

  for (int i = 0; i < 5; ++i) {
    const long long before = allocation_count();
    const SessionReport report = session.repartition();
    const long long allocated = allocation_count() - before;
    EXPECT_EQ(allocated, 0) << "steady-state repartition #" << i
                            << " touched the heap";
    EXPECT_TRUE(report.repartitioned);
  }
#endif
}

/// One Session → backend → refine-round shaped cycle on \p state: an outer
/// window, moves, a nested window whose moves are undone, more outer moves,
/// and the outer undo.  Every vertex returns to its entry part.  Unused
/// where a sanitizer disables allocation counting, like the two LP-phase
/// helpers below.
[[maybe_unused]] void nested_rollback_cycle(const graph::Graph& g,
                                            graph::Partitioning& p,
                                            graph::PartitionState& state) {
  graph::PartitionState::RollbackWindow outer(state);
  state.move_vertex(g, p, 0, 1);
  state.move_vertex(g, p, 9, 2);
  {
    graph::PartitionState::RollbackWindow inner(state);
    for (graph::VertexId v = 16; v < 24; ++v) state.move_vertex(g, p, v, 0);
    inner.undo(g, p);
  }
  state.move_vertex(g, p, 25, 1);
  outer.undo(g, p);
}

TEST(SessionAlloc, WarmNestedRollbackWindowPerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  const graph::Graph g = clique_ring();
  graph::Partitioning p = clique_partitioning();
  graph::PartitionState state(g, p);
  const graph::Partitioning entry = p;
  nested_rollback_cycle(g, p, state);  // warm-up: journal + snapshot pool

  for (int i = 0; i < 3; ++i) {
    const long long before = allocation_count();
    nested_rollback_cycle(g, p, state);
    EXPECT_EQ(allocation_count() - before, 0)
        << "warm nested rollback cycle #" << i << " touched the heap";
  }
  EXPECT_EQ(p.part, entry.part);
  EXPECT_EQ(state.journal_size(), 0u);
  EXPECT_DOUBLE_EQ(state.cut_total(), kParts);  // the bridges again
#endif
}

// The LP phases on their own: stage decisions and refinement solves on
// the network solver draw every buffer from the workspace's FlowWorkspace,
// so once warm they allocate nothing — working solves that move vertices,
// not a converged short-circuit.

/// Six parts in a ring (ε 4 each way) plus a chord 0 → 3; part 0 is
/// heavy.  With \p thin the ring arcs out of 0 carry 1, so α = 1 is
/// infeasible and the ladder climbs.
[[maybe_unused]] pigp::DenseMatrix<std::int64_t> ring_eps(bool thin) {
  pigp::DenseMatrix<std::int64_t> eps(6, 6, 0);
  for (std::size_t q = 0; q < 6; ++q) {
    eps(q, (q + 1) % 6) = 4;
    eps((q + 1) % 6, q) = 4;
  }
  eps(0, 3) = 2;
  if (thin) {
    eps(0, 1) = 1;
    eps(0, 5) = 1;
    eps(0, 3) = 1;
  }
  return eps;
}

const std::vector<double> kRingExcess = {7.5, -1.5, -1.5, -1.5, -1.5, -1.5};

/// Refinement candidates over four parts, every gain positive (the only
/// candidates refinement admits), with fractional mean gains.
[[maybe_unused]] pigp::DenseMatrix<std::vector<core::GainCandidate>>
refine_buckets() {
  pigp::DenseMatrix<std::vector<core::GainCandidate>> b(4, 4);
  graph::VertexId next = 0;
  const auto add = [&](std::size_t i, std::size_t j, double gain) {
    b(i, j).push_back(core::GainCandidate{next++, gain});
  };
  for (int k = 0; k < 5; ++k) add(0, 1, 1.0 + k);
  for (int k = 0; k < 3; ++k) add(1, 2, 2.0);
  add(1, 0, 0.5);
  for (int k = 0; k < 4; ++k) add(2, 0, 0.5 * (k + 1));
  for (int k = 0; k < 2; ++k) add(3, 2, 1.0);
  add(2, 3, 0.25);
  return b;
}

TEST(SessionAlloc, WarmDecideStagePerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  const pigp::DenseMatrix<std::int64_t> wide = ring_eps(false);
  const pigp::DenseMatrix<std::int64_t> thin = ring_eps(true);
  const core::BalanceOptions options;  // the network solver
  core::Workspace ws;
  const auto decide = [&](const pigp::DenseMatrix<std::int64_t>& eps) {
    core::decide_stage(eps, kRingExcess, true, -1, options, ws.flow);
  };
  decide(wide);  // warm-up
  decide(thin);
  ASSERT_EQ(ws.flow.decision.stats.alpha, 4.0);  // α = 1 and 2 infeasible
  ASSERT_TRUE(ws.flow.decision.progress);

  for (int i = 0; i < 3; ++i) {
    for (const auto* eps : {&wide, &thin}) {
      const long long before = allocation_count();
      decide(*eps);
      EXPECT_EQ(allocation_count() - before, 0)
          << "warm decide_stage #" << i << " touched the heap";
      EXPECT_TRUE(ws.flow.decision.progress);
    }
  }
  EXPECT_EQ(ws.flow.decision.stats.alpha, 4.0);
#endif
}

TEST(SessionAlloc, WarmRefinementSolvePerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  const auto buckets = refine_buckets();
  const core::RefineOptions options;
  core::Workspace ws;
  const auto solve = [&](double cap_scale) -> const core::FlowResult& {
    core::refinement_flow_into(buckets, cap_scale, ws.flow.refinement);
    return core::solve_flow(ws.flow.refinement, options.simplex, ws.flow);
  };
  (void)solve(1.0);  // warm-up, then a stage decision on the same pool
  core::decide_stage(ring_eps(true), kRingExcess, true, -1,
                     core::BalanceOptions{}, ws.flow);

  for (int i = 0; i < 3; ++i) {
    for (const double cap_scale : {1.0, 0.5}) {
      const long long before = allocation_count();
      const core::FlowResult& flow = solve(cap_scale);
      EXPECT_EQ(allocation_count() - before, 0)
          << "warm refinement solve #" << i << " touched the heap";
      ASSERT_EQ(flow.status, lp::SolveStatus::optimal);
      EXPECT_GT(flow.moved, 0);
      EXPECT_GT(flow.objective, 0.5);
    }
  }
#endif
}

TEST(SessionAlloc, WarmBalanceTransferPerformsZeroHeapAllocations) {
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocator interposed by a sanitizer";
#else
  // A 12x12 grid in four quadrant parts, layered to exhaustion; every
  // adjacent pair trades up to five labelled vertices.  Each apply runs in
  // a rollback window and is undone, so every call sees the same input.
  const graph::Graph g = graph::grid_graph(12, 12);
  graph::Partitioning p;
  p.num_parts = 4;
  p.part.resize(144);
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 12; ++c) {
      p.part[static_cast<std::size_t>(r * 12 + c)] =
          (r < 6 ? 0 : 2) + (c < 6 ? 0 : 1);
    }
  }
  graph::PartitionState state(g, p);
  core::BoundaryLayering layering(g, p);
  layering.reseed(state);
  layering.grow(-1);
  pigp::DenseMatrix<std::int64_t> moves(4, 4, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      moves(i, j) = std::min<std::int64_t>(layering.eps()(i, j), 5);
      total += static_cast<std::size_t>(moves(i, j));
    }
  }
  ASSERT_GT(total, 0U);
  const std::vector<graph::PartId> before_part = p.part;

  core::TransferScratch scratch;
  std::size_t moved = 0;
  const auto apply = [&] {
    graph::PartitionState::RollbackWindow window(state);
    core::apply_balance_transfers(g, p, layering, moves, state, &scratch);
    moved = window.moves().size();
    window.undo(g, p);
  };
  apply();  // warm-up
  for (int i = 0; i < 3; ++i) {
    const long long before = allocation_count();
    apply();
    EXPECT_EQ(allocation_count() - before, 0)
        << "warm balance transfer #" << i << " touched the heap";
    EXPECT_EQ(moved, total);
  }
  EXPECT_EQ(p.part, before_part);
#endif
}

TEST(SessionAlloc, QuiescentWorkloadStillExercisesTheFullPipeline) {
  // Companion sanity check (runs everywhere, sanitizers included): the
  // quiescent stream really goes through the backend and stays healthy,
  // so the zero-allocation assertions above are measuring a live
  // repartition path, not a short-circuit.
  Session session = make_quiescent_session();
  const graph::GraphDelta empty;
  for (int i = 0; i < 3; ++i) {
    const SessionReport report = session.apply(empty);
    EXPECT_TRUE(report.repartitioned);
    EXPECT_TRUE(report.balance.balanced);
  }
  EXPECT_EQ(session.counters().repartitions, 3);
  EXPECT_EQ(session.counters().deltas_applied, 3);
  EXPECT_DOUBLE_EQ(session.metrics().cut_total, kParts);  // the bridges
  session.partitioning().validate(session.graph());
#ifdef PIGP_ALLOC_COUNTING_DISABLED
  (void)allocation_count();
#endif
}

}  // namespace
}  // namespace pigp
