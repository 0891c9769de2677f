// SPMD carriers: message passing, barrier, collectives and failure
// handling, each case run on both rank-thread carriers — in-process
// mailboxes (Spmd.<Case>) and loopback TCP (SpmdTcp.<Case>).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/spmd_igp.hpp"
#include "runtime/net/transport.hpp"

namespace pigp::net {
namespace {

using Carrier = std::unique_ptr<core::SpmdExecutor> (*)(int num_ranks);

std::unique_ptr<core::SpmdExecutor> in_process(int num_ranks) {
  return std::make_unique<core::MachineExecutor>(num_ranks);
}

std::unique_ptr<core::SpmdExecutor> tcp_loopback(int num_ranks) {
  return std::make_unique<core::TcpLoopbackExecutor>(num_ranks);
}

// Defines a case once, as a function of the carrier, and registers it as
// Spmd.<Case> over in-process mailboxes and SpmdTcp.<Case> over loopback
// TCP.
#define SPMD_CARRIER_TEST(Case)                       \
  void Case##OnCarrier(Carrier make_machine);         \
  TEST(Spmd, Case) { Case##OnCarrier(&in_process); }  \
  TEST(SpmdTcp, Case) { Case##OnCarrier(&tcp_loopback); } \
  void Case##OnCarrier(Carrier make_machine)

SPMD_CARRIER_TEST(RingPass) {
  auto machine = make_machine(8);
  std::vector<int> received(8, -1);
  machine->run([&received](Transport& ctx) {
    Packet p;
    p.pack(ctx.rank());
    ctx.send((ctx.rank() + 1) % ctx.num_ranks(), std::move(p));
    Packet in = ctx.recv((ctx.rank() + ctx.num_ranks() - 1) %
                         ctx.num_ranks());
    received[static_cast<std::size_t>(ctx.rank())] = in.unpack<int>();
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)], (r + 7) % 8);
  }
}

SPMD_CARRIER_TEST(FifoPerSender) {
  auto machine = make_machine(2);
  std::vector<int> order;
  machine->run([&order](Transport& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        Packet p;
        p.pack(i);
        ctx.send(1, std::move(p));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        Packet p = ctx.recv(0);
        order.push_back(p.unpack<int>());
      }
    }
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

SPMD_CARRIER_TEST(AllreduceSum) {
  auto machine = make_machine(16);
  std::vector<double> results(16, 0.0);
  machine->run([&results](Transport& ctx) {
    const double total = ctx.allreduce(
        static_cast<double>(ctx.rank() + 1),
        [](double a, double b) { return a + b; });
    results[static_cast<std::size_t>(ctx.rank())] = total;
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 136.0);  // 1 + ... + 16
}

SPMD_CARRIER_TEST(AllreduceMax) {
  auto machine = make_machine(5);
  machine->run([](Transport& ctx) {
    const double mx =
        ctx.allreduce(static_cast<double>((ctx.rank() * 13) % 5),
                      [](double a, double b) { return std::max(a, b); });
    EXPECT_DOUBLE_EQ(mx, 4.0);
  });
}

SPMD_CARRIER_TEST(AllgatherDeliversRankOrder) {
  auto machine = make_machine(6);
  machine->run([](Transport& ctx) {
    Packet p;
    p.pack(ctx.rank() * 100);
    auto all = ctx.allgather(std::move(p));
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].unpack<int>(), r * 100);
    }
  });
}

SPMD_CARRIER_TEST(BroadcastFromNonzeroRoot) {
  auto machine = make_machine(4);
  machine->run([](Transport& ctx) {
    Packet p;
    if (ctx.rank() == 2) p.pack_vector(std::vector<int>{1, 2, 3});
    Packet out = ctx.broadcast(2, std::move(p));
    EXPECT_EQ(out.unpack_vector<int>(), (std::vector<int>{1, 2, 3}));
  });
}

SPMD_CARRIER_TEST(BarrierSeparatesPhases) {
  auto machine = make_machine(8);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  machine->run([&phase1, &violated](Transport& ctx) {
    ++phase1;
    ctx.barrier();
    if (phase1.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Spmd, PacketVectorRoundTrip) {
  Packet p;
  p.pack(3.25);
  p.pack_vector(std::vector<std::int64_t>{10, 20, 30});
  p.pack(7);
  EXPECT_DOUBLE_EQ(p.unpack<double>(), 3.25);
  EXPECT_EQ(p.unpack_vector<std::int64_t>(),
            (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(p.unpack<int>(), 7);
}

TEST(Spmd, PacketUnderrunThrows) {
  Packet p;
  p.pack(1);
  (void)p.unpack<int>();
  EXPECT_THROW((void)p.unpack<int>(), CheckError);
}

SPMD_CARRIER_TEST(ExceptionInOneRankPropagates) {
  auto machine = make_machine(3);
  EXPECT_THROW(machine->run([](Transport& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
}

// Regression: a rank dying mid-collective used to leave its peers parked
// forever in barrier/allgather/recv; the abort must wake them and rethrow
// the real exception.
SPMD_CARRIER_TEST(ThrowingRankReleasesPeersBlockedInBarrier) {
  auto machine = make_machine(4);
  EXPECT_THROW(machine->run([](Transport& ctx) {
    if (ctx.rank() == 3) throw std::runtime_error("rank 3 died");
    ctx.barrier();  // would deadlock without abort propagation
  }),
               std::runtime_error);
}

SPMD_CARRIER_TEST(ThrowingRankReleasesPeersBlockedInAllgather) {
  auto machine = make_machine(4);
  EXPECT_THROW(machine->run([](Transport& ctx) {
    if (ctx.rank() == 2) throw std::runtime_error("rank 2 died");
    Packet p;
    p.pack(ctx.rank());
    for (;;) (void)ctx.allgather(Packet(p));
  }),
               std::runtime_error);
}

SPMD_CARRIER_TEST(ThrowingRankReleasesPeersBlockedInRecv) {
  auto machine = make_machine(3);
  EXPECT_THROW(machine->run([](Transport& ctx) {
    if (ctx.rank() == 0) throw std::runtime_error("rank 0 died");
    (void)ctx.recv(0);  // rank 0 never sends
  }),
               std::runtime_error);
}

SPMD_CARRIER_TEST(MachineReusableAfterAbort) {
  auto machine = make_machine(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(machine->run([](Transport& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("boom");
      ctx.barrier();
    }),
                 std::runtime_error);
    // The aborted run must leave no stale packets or barrier state behind.
    machine->run([](Transport& ctx) {
      const double s =
          ctx.allreduce(1.0, [](double a, double b) { return a + b; });
      EXPECT_DOUBLE_EQ(s, 4.0);
      Packet p;
      p.pack(ctx.rank());
      auto all = ctx.allgather(std::move(p));
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)].unpack<int>(), r);
      }
    });
  }
}

SPMD_CARRIER_TEST(ReusableAcrossRuns) {
  auto machine = make_machine(4);
  for (int round = 0; round < 3; ++round) {
    machine->run([round](Transport& ctx) {
      const double s = ctx.allreduce(1.0, [](double a, double b) {
        return a + b;
      });
      EXPECT_DOUBLE_EQ(s, 4.0) << "round " << round;
    });
  }
}

// The failing rank's own exception wins over the errors its peers see
// when the abort releases them — on TCP too, where a peer reading the
// failed rank's closed socket must not get its ticket first.
SPMD_CARRIER_TEST(FailingRankExceptionAlwaysWins) {
  auto machine = make_machine(3);
  for (int run = 0; run < 200; ++run) {
    try {
      machine->run([](Transport& ctx) {
        if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
        ctx.barrier();
      });
      FAIL() << "run " << run << ": the rank failure should propagate";
    } catch (const TransportError& e) {
      FAIL() << "run " << run << ": a peer's error won: " << e.what();
    } catch (const std::runtime_error& e) {
      ASSERT_STREQ(e.what(), "rank 1 died") << "run " << run;
    }
  }
}

// A rank outside the group is a caller bug on every carrier: a fatal
// TransportError, which the spmd backend does not retry.
SPMD_CARRIER_TEST(OutOfRangeRankIsFatal) {
  auto machine = make_machine(2);
  machine->run([](Transport& ctx) {
    const auto expect_fatal = [](const auto& op) {
      try {
        op();
        ADD_FAILURE() << "expected a TransportError";
      } catch (const TransportError& e) {
        EXPECT_FALSE(e.retryable()) << e.what();
      }
    };
    expect_fatal([&] { ctx.send(ctx.num_ranks(), Packet{}); });
    expect_fatal([&] { ctx.send(-1, Packet{}); });
    expect_fatal([&] { (void)ctx.recv(ctx.num_ranks()); });
    expect_fatal([&] { (void)ctx.broadcast(ctx.num_ranks(), Packet{}); });
    expect_fatal([&] { (void)ctx.broadcast(-1, Packet{}); });
  });
}

}  // namespace
}  // namespace pigp::net
