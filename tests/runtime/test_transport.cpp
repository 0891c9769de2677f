// The pluggable Transport layer: TCP framing/mesh/timeouts, the loopback
// executor, and bit-parity of a full SPMD repartition between the
// in-process mailbox carrier and real TCP sockets.

#include "runtime/net/tcp_transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "../core/copying_repartition.hpp"
#include "core/spmd_igp.hpp"
#include "mesh/paper_meshes.hpp"
#include "runtime/net/transport.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::net {
namespace {

/// Run \p body on one thread per rank over raw TcpTransports (no loopback
/// barrier decoration — these tests exercise the transport alone and share
/// nothing between ranks except the sockets).
void run_raw_tcp(int num_ranks, const TcpOptions& options,
                 const std::function<void(TcpTransport&)>& body) {
  const LocalTcpGroup group = make_local_tcp_group(num_ranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        TcpTransport transport(r, group.endpoints,
                               group.listen_fds[static_cast<std::size_t>(r)],
                               options);
        body(transport);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(TcpTransport, PointToPointFifoAcrossFullMesh) {
  run_raw_tcp(4, {}, [](TcpTransport& t) {
    for (int peer = 0; peer < t.num_ranks(); ++peer) {
      for (int i = 0; i < 5; ++i) {
        Packet p;
        p.pack(t.rank() * 1000 + i);
        p.pack_vector(std::vector<std::int64_t>{t.rank(), peer, i});
        t.send(peer, std::move(p));
      }
    }
    for (int peer = 0; peer < t.num_ranks(); ++peer) {
      for (int i = 0; i < 5; ++i) {  // FIFO per sender, including self
        Packet p = t.recv(peer);
        EXPECT_EQ(p.unpack<int>(), peer * 1000 + i);
        EXPECT_EQ(p.unpack_vector<std::int64_t>(),
                  (std::vector<std::int64_t>{peer, t.rank(), i}));
      }
    }
  });
}

TEST(TcpTransport, CollectivesMatchMachineSemantics) {
  // Non-associative op: rank-ordered reduction means TCP must reproduce
  // the in-process carrier's result bit for bit.
  const auto op = [](double a, double b) { return a / 2.0 + b; };
  std::vector<double> machine_result(5, 0.0);
  run_in_process(5, [&](Transport& ctx) {
    machine_result[static_cast<std::size_t>(ctx.rank())] =
        ctx.allreduce(1.0 + ctx.rank() * 0.1, op);
  });
  std::vector<double> tcp_result(5, 0.0);
  run_raw_tcp(5, {}, [&](TcpTransport& t) {
    tcp_result[static_cast<std::size_t>(t.rank())] =
        t.allreduce(1.0 + t.rank() * 0.1, op);

    Packet mine;
    mine.pack_vector(std::vector<std::int32_t>{t.rank(), t.rank() * 7});
    std::vector<Packet> all = t.allgather(std::move(mine));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].unpack_vector<std::int32_t>(),
                (std::vector<std::int32_t>{r, r * 7}));
    }

    Packet b;
    if (t.rank() == 3) b.pack_vector(std::vector<double>{1.5, -2.5});
    Packet out = t.broadcast(3, std::move(b));
    EXPECT_EQ(out.unpack_vector<double>(), (std::vector<double>{1.5, -2.5}));

    t.barrier();
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(machine_result[static_cast<std::size_t>(r)],
              tcp_result[static_cast<std::size_t>(r)]);
  }
}

TEST(TcpTransport, FilterChainShrinksWireBytes) {
  std::vector<std::int64_t> sorted(4000);
  std::iota(sorted.begin(), sorted.end(), 5000000);
  std::uint64_t raw_bytes = 0;
  std::uint64_t filtered_bytes = 0;
  run_raw_tcp(2, {}, [&](TcpTransport& t) {
    if (t.rank() == 0) {
      Packet p;
      p.pack_vector(sorted);
      t.send(1, std::move(p));
      raw_bytes = t.bytes_sent();
    } else {
      EXPECT_EQ(t.recv(0).unpack_vector<std::int64_t>(), sorted);
    }
  });
  TcpOptions with_filters;
  with_filters.filters = "delta";
  run_raw_tcp(2, with_filters, [&](TcpTransport& t) {
    if (t.rank() == 0) {
      Packet p;
      p.pack_vector(sorted);
      t.send(1, std::move(p));
      filtered_bytes = t.bytes_sent();
    } else {
      // Decoded by the chain recorded in the frame header — the payload
      // arrives bit-identical to the unfiltered run.
      EXPECT_EQ(t.recv(0).unpack_vector<std::int64_t>(), sorted);
    }
  });
  EXPECT_LT(filtered_bytes, raw_bytes / 4);
}

TEST(TcpTransport, RecvTimeoutSurfacesAsTransportError) {
  TcpOptions options;
  options.recv_timeout_ms = 100;
  run_raw_tcp(2, options, [](TcpTransport& t) {
    if (t.rank() == 0) {
      try {
        (void)t.recv(1);  // rank 1 never sends
        FAIL() << "recv should have timed out";
      } catch (const TransportError& e) {
        EXPECT_NE(std::string(e.what()).find("timed out"),
                  std::string::npos);
      }
      Packet done;
      done.pack(1);
      t.send(1, std::move(done));  // release rank 1's wait loop
    } else {
      // Stay alive until rank 0 has observed its timeout — exiting early
      // would surface as "peer closed" instead.
      for (;;) {
        try {
          Packet p = t.recv(0);
          EXPECT_EQ(p.unpack<int>(), 1);
          break;
        } catch (const TransportError&) {
          // our own 100 ms timeout; keep waiting
        }
      }
    }
  });
}

TEST(TcpTransport, ConnectRetriesUntilLateListenerBinds) {
  // Rank 1 starts first and must retry its connect to rank 0, whose
  // listener only binds ~200 ms later (workers may launch in any order).
  LocalTcpGroup group = make_local_tcp_group(2);
  // Free rank 0's pre-bound port so early connects are refused; the late
  // thread re-binds it with the bind-own constructor.
  ::close(group.listen_fds[0]);
  TcpOptions options;
  options.connect_timeout_ms = 10000;
  std::thread rank1([&] {
    TcpTransport t(1, group.endpoints, group.listen_fds[1], options);
    Packet p = t.recv(0);
    EXPECT_EQ(p.unpack<int>(), 77);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  TcpTransport t0(0, group.endpoints, options);
  Packet hello;
  hello.pack(77);
  t0.send(1, std::move(hello));
  rank1.join();
}

TEST(TcpTransport, PeerClosingReleasesBlockedRecv) {
  run_raw_tcp(2, {}, [](TcpTransport& t) {
    if (t.rank() == 0) {
      t.close();  // orderly shutdown; rank 1 is (or will be) blocked
      EXPECT_THROW(t.send(1, Packet()), TransportError);
    } else {
      try {
        (void)t.recv(0);
        FAIL() << "recv should observe the closed peer";
      } catch (const TransportError& e) {
        EXPECT_NE(std::string(e.what()).find("peer closed"),
                  std::string::npos);
      }
    }
  });
}

TEST(TcpLoopback, RankFailureAbortsCollectivePeers) {
  // A rank that throws mid-protocol must release peers parked in a
  // collective instead of deadlocking them.
  try {
    run_tcp_loopback(3, {}, [](Transport& t) {
      if (t.rank() == 2) throw std::runtime_error("rank 2 died");
      t.barrier();  // would hang forever without abort propagation
      for (;;) (void)t.allgather(Packet());
    });
    FAIL() << "the rank failure should propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

TEST(TcpLoopback, SpmdRepartitionBitParityWithInProcess) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(600, {80}, 17);
  const graph::Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  core::MachineExecutor in_process(4);
  const core::IgpResult expected =
      test::spmd_repartition(in_process, seq.graphs[1], initial,
                             seq.graphs[0].num_vertices());

  for (const char* filters : {"", "delta"}) {
    TcpOptions options;
    options.filters = filters;
    core::TcpLoopbackExecutor tcp(4, options);
    const core::IgpResult actual = test::spmd_repartition(
        tcp, seq.graphs[1], initial, seq.graphs[0].num_vertices());
    EXPECT_EQ(expected.partitioning.part, actual.partitioning.part)
        << "filters=\"" << filters << "\"";
    EXPECT_EQ(expected.balance_result.balanced,
              actual.balance_result.balanced);
    EXPECT_EQ(expected.balance_result.stages.size(),
              actual.balance_result.stages.size());
  }
}

}  // namespace
}  // namespace pigp::net
