#pragma once

/// \file spmd_igp.hpp
/// Distributed-memory (SPMD) incremental partitioner.
///
/// The paper ran on a 32-node CM-5 where each node owned a partition,
/// layered it locally, and cooperated on the LP solve.  This driver
/// reproduces that structure against the pluggable net::Transport
/// interface: every rank owns a block of partitions, layers them
/// independently, the ε matrix is allgathered, rank 0 solves the (tiny) LP
/// and broadcasts the movement matrix, and each rank applies the transfers
/// out of its owned partitions.  Results are bit-identical to the
/// shared-memory driver — test_spmd_igp asserts it — so the communication
/// structure is exercised without changing semantics.  The per-stage
/// deepen-vs-decide exchange is spmd_balance_handshake, which the sharded
/// engine in core/spmd_worker.hpp calls too, so both engines speak one
/// protocol.
///
/// An SpmdExecutor decides what carries the messages: MachineExecutor runs
/// the ranks as threads over in-process mailboxes (net::run_in_process,
/// the reference carrier), TcpLoopbackExecutor runs them as threads
/// speaking real TCP over loopback sockets (net::run_tcp_loopback: the
/// full wire path — framing, filters, timeouts — without managing
/// processes).  Both carriers share one rank-thread runner and the
/// collectives of net::Transport.  The fully distributed
/// one-process-per-rank shape lives in core/spmd_worker.hpp, which shards
/// the graph instead of replicating it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/igp.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "runtime/net/fault_transport.hpp"
#include "runtime/net/tcp_transport.hpp"
#include "runtime/net/transport.hpp"

namespace pigp::core {

struct Workspace;

/// How the SPMD ranks run and talk: an executor owns the rank threads and
/// hands each one a net::Transport.  The engine is written against this
/// seam only, so swapping mailboxes for sockets changes no engine code.
class SpmdExecutor {
 public:
  virtual ~SpmdExecutor() = default;
  [[nodiscard]] virtual int num_ranks() const noexcept = 0;
  /// Execute \p body once per rank; returns when all ranks finish.  A
  /// rank's exception aborts the group and is rethrown (first by arrival).
  virtual void run(const std::function<void(net::Transport&)>& body) = 0;
};

/// Ranks as threads over in-process mailboxes (net::run_in_process) — the
/// reference carrier of the parity tests and the default backend shape.
class MachineExecutor final : public SpmdExecutor {
 public:
  explicit MachineExecutor(int num_ranks) : num_ranks_(num_ranks) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return num_ranks_;
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    net::run_in_process(num_ranks_, body);
  }

 private:
  int num_ranks_;
};

/// Ranks as threads speaking real TCP over loopback sockets — the whole
/// wire path (framing, filter chain, socket timeouts) under one process.
class TcpLoopbackExecutor final : public SpmdExecutor {
 public:
  explicit TcpLoopbackExecutor(int num_ranks, net::TcpOptions options = {})
      : num_ranks_(num_ranks), options_(std::move(options)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return num_ranks_;
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    net::run_tcp_loopback(num_ranks_, options_, body);
  }

 private:
  int num_ranks_;
  net::TcpOptions options_;
};

/// Decorator: wraps every rank's transport of an inner executor in a
/// net::FaultInjectingTransport, all sharing one FaultScript (see
/// runtime/net/fault_transport.hpp).  The script's fire budget persists
/// across run() calls while the wrappers — and their per-attempt operation
/// counters — are fresh per call, so a one-shot scripted fault poisons
/// exactly one attempt and the retry that follows runs clean.  The inner
/// executor must outlive this decorator.
class FaultInjectingExecutor final : public SpmdExecutor {
 public:
  FaultInjectingExecutor(SpmdExecutor& inner,
                         std::shared_ptr<net::FaultScript> script)
      : inner_(inner), script_(std::move(script)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    inner_.run([&body, this](net::Transport& transport) {
      net::FaultInjectingTransport chaos(transport, script_);
      body(chaos);
    });
  }

 private:
  SpmdExecutor& inner_;
  std::shared_ptr<net::FaultScript> script_;
};

/// What one rank learns from a stage's spmd_balance_handshake.
struct SpmdStageOutcome {
  /// Identical on every rank: false = the decided stage moves nothing, so
  /// balancing stops.
  bool progress = false;
  /// The decided stage's LP statistics and layering depth — filled on
  /// rank 0 only (the rank that solved the LP).
  BalanceStage stage;
};

/// One balance stage's deepen-vs-decide handshake — the single copy of the
/// protocol both SPMD engines (spmd_repartition_in_place and
/// spmd_worker_rebalance) run.  \p ws is this rank's workspace: ws.layering
/// is its layering of its \p owned partitions, reseeded for the stage.
/// The handshake decides first on that seed shell and grows per
/// LayerDepth — to max_layers, then doubling — only while rank 0 asks to
/// deepen.  Each round allgathers (exhausted flag, owned ε rows); rank 0
/// assembles ε (partition q from rank graph::shard_owner), applies
/// decide_stage — the shared-memory driver's stage rule, exhausted only
/// when every rank's layering is — and broadcasts either "deepen" or the
/// stage's move matrix.  \p excess is the per-partition excess, the same
/// on every rank.  The packing, assembly and unpacking buffers and rank
/// 0's stage solves are pooled in \p ws; on return with progress,
/// ws.spmd_moves_flat holds the row-major P×P move matrix on every rank.
[[nodiscard]] SpmdStageOutcome spmd_balance_handshake(
    net::Transport& transport, const std::vector<graph::PartId>& owned,
    const std::vector<double>& excess, const BalanceOptions& options,
    Workspace& ws);

/// The SPMD engine's one entry point, mirroring igp_repartition_in_place
/// (same parameters plus the executor and \p rank_ws): run the full IGP/IGPR
/// pipeline on \p executor's ranks, in place on \p partitioning (covering
/// [0, n_old) on entry) and \p state (describing it with the appended tail
/// unassigned).  The graph is replicated (the CM-5 implementation also
/// kept the small meshes resident per node); partition ownership is
/// round-robin (graph::shard_owner): rank r owns partitions q with
/// q % num_ranks == r.
///
/// Boundary-local like the flat driver: each rank seeds its owned
/// partitions' layering from the shared PartitionState's boundary index
/// and runs spmd_balance_handshake, so every rank retries the α ladder on
/// the same lazily-deepened ε capacities and the decisions stay
/// bit-identical to the shared-memory pipeline.  Selected transfers are
/// gathered and applied by rank 0 through the state (the writes were
/// always trivial — layering and selection are the parallel work).  Step 1
/// and refinement draw from the caller's \p ws; \p rank_ws (resized to the
/// executor's rank count) holds one persistent Workspace per rank for the
/// resumable layering and the gather/pack staging buffers — so a
/// steady-state SPMD repartition reuses all per-vertex storage instead of
/// reallocating it every call.  result.partitioning is left empty — the
/// answer IS \p partitioning.
[[nodiscard]] IgpResult spmd_repartition_in_place(
    SpmdExecutor& executor, const graph::Graph& g_new,
    graph::Partitioning& partitioning, graph::VertexId n_old,
    const IgpOptions& options, graph::PartitionState& state, Workspace& ws,
    std::vector<Workspace>& rank_ws);

}  // namespace pigp::core
