// Transport failures crossing the Session boundary: a TransportError from
// the backend (here a TCP recv timeout over real loopback sockets) must
// surface typed, poison the session (sticky failure: later mutations
// rethrow without running the backend), and the SPMD backend over TCP must
// stay bit-identical to its in-process twin through the public API.

#include "api/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string_view>

#include "api/backend.hpp"
#include "api/errors.hpp"
#include "mesh/paper_meshes.hpp"
#include "runtime/net/tcp_transport.hpp"
#include "spectral/partitioners.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;

std::atomic<int> g_fault_runs{0};

/// A backend whose every run dies in a real TCP recv timeout: two loopback
/// ranks both wait for a message nobody sends.
class NetFaultBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "net-fault";
  }

  [[nodiscard]] BackendResult repartition(
      const Graph& /*g_new*/, Partitioning& /*partitioning*/,
      graph::VertexId /*n_old*/, graph::PartitionState& /*state*/,
      core::Workspace& /*ws*/) override {
    ++g_fault_runs;
    net::TcpOptions options;
    options.recv_timeout_ms = 100;
    net::run_tcp_loopback(2, options, [](net::Transport& t) {
      (void)t.recv(1 - t.rank());  // nobody sends: both ranks time out
    });
    return {};  // unreachable
  }
};

GraphDelta one_vertex_delta() {
  GraphDelta delta;
  VertexAddition add;
  add.edges.emplace_back(0, 1.0);
  add.edges.emplace_back(1, 1.0);
  delta.added_vertices.push_back(add);
  return delta;
}

TEST(SessionTransport, RecvTimeoutIsStickyAndTyped) {
  BackendRegistry::global().add("net-fault", [](const ResolvedConfig&) {
    return std::make_unique<NetFaultBackend>();
  });
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(200, {}, 5);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, 4);
  SessionConfig config;
  config.num_parts = 4;
  config.backend = "net-fault";
  Session session(config, base, initial);
  ASSERT_FALSE(session.transport_failed());

  g_fault_runs = 0;
  EXPECT_THROW((void)session.apply(one_vertex_delta()), TransportError);
  EXPECT_TRUE(session.transport_failed());
  EXPECT_EQ(g_fault_runs.load(), 1);

  // Sticky: every further mutating call rethrows the original error
  // without touching the backend — the session may be out of sync with
  // its distributed peers, so silently continuing would corrupt them.
  EXPECT_THROW((void)session.apply(one_vertex_delta()), TransportError);
  EXPECT_THROW((void)session.repartition(), TransportError);
  EXPECT_EQ(g_fault_runs.load(), 1);

  // Read-only accessors stay usable for post-mortem inspection.
  EXPECT_EQ(session.partitioning().num_parts, 4);
  (void)session.metrics();
}

TEST(SessionTransport, OrdinaryBackendErrorsAreNotSticky) {
  // A non-transport failure (unassignable vertex, infeasible LP, ...)
  // rolls back and leaves the session usable; only TransportError poisons.
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(200, {}, 6);
  const Graph& base = seq.graphs[0];
  SessionConfig config;
  config.num_parts = 4;
  config.backend = "igpr";
  Session session(config, base,
                  spectral::recursive_spectral_bisection(base, 4));
  GraphDelta bogus;
  bogus.removed_vertices = {base.num_vertices() + 1000};  // out of range
  EXPECT_ANY_THROW((void)session.apply(bogus));
  EXPECT_FALSE(session.transport_failed());
  (void)session.apply(one_vertex_delta());  // still alive
}

TEST(SessionTransport, SpmdOverTcpMatchesInProcessThroughTheApi) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(400, {}, 11);
  const Graph& base = seq.graphs[0];
  const Partitioning initial =
      spectral::recursive_spectral_bisection(base, 6);

  const auto run = [&](const std::string& transport,
                       const std::string& filters) {
    SessionConfig config;
    config.num_parts = 6;
    config.backend = "spmd";
    config.spmd_ranks = 2;
    config.spmd_transport = transport;
    config.spmd_wire_filters = filters;
    Session session(config, base, initial);
    for (int step = 0; step < 2; ++step) {
      (void)session.apply(one_vertex_delta());
    }
    return session.partitioning();
  };

  const Partitioning expected = run("in_process", "");
  EXPECT_EQ(expected.part, run("tcp", "").part);
  EXPECT_EQ(expected.part, run("tcp", "delta").part);
}

}  // namespace
}  // namespace pigp
