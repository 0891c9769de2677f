// SPMD carriers: message passing, barrier, collectives and failure
// handling, each case run on both rank-thread carriers — in-process
// mailboxes (Spmd.<Case>) and loopback TCP (SpmdTcp.<Case>).

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

// ------------------------------------------------------ group lifetime

// Runs of a rank body on the current thread: a fresh thread starts at 0,
// a thread kept between runs carries its count forward.
thread_local int t_runs_on_this_thread = 0;

/// One run's view of its ranks: the thread and its run count, per rank.
struct RankThreads {
  std::vector<std::thread::id> ids;
  std::vector<int> runs;
};

RankThreads record_rank_threads(core::SpmdExecutor& machine) {
  RankThreads seen{std::vector<std::thread::id>(
                       static_cast<std::size_t>(machine.num_ranks())),
                   std::vector<int>(
                       static_cast<std::size_t>(machine.num_ranks()), 0)};
  machine.run([&seen](Transport& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    seen.ids[r] = std::this_thread::get_id();
    seen.runs[r] = ++t_runs_on_this_thread;
    ctx.barrier();
  });
  return seen;
}

double cpu_seconds() {
  rusage usage{};
  (void)getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

SPMD_CARRIER_TEST(ConsecutiveRunsReuseTheRankThreads) {
  auto machine = make_machine(3);
  const RankThreads first = record_rank_threads(*machine);
  const RankThreads second = record_rank_threads(*machine);
  const RankThreads third = record_rank_threads(*machine);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(second.ids[r], first.ids[r]) << "rank " << r;
    EXPECT_EQ(third.ids[r], first.ids[r]) << "rank " << r;
    EXPECT_EQ(second.runs[r], first.runs[r] + 1) << "rank " << r;
    EXPECT_EQ(third.runs[r], first.runs[r] + 2) << "rank " << r;
  }
}

SPMD_CARRIER_TEST(FailedRunIsRethrownAndTheNextRunGetsFreshThreads) {
  auto machine = make_machine(3);
  (void)record_rank_threads(*machine);
  try {
    machine->run([](Transport& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
      ctx.barrier();
    });
    FAIL() << "the rank failure should propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
  const RankThreads after = record_rank_threads(*machine);
  // The failed group was joined and dropped: every rank that does not run
  // on the calling thread is on a thread that has never run a body.
  int on_rank_threads = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    if (after.ids[r] == std::this_thread::get_id()) continue;
    ++on_rank_threads;
    EXPECT_EQ(after.runs[r], 1) << "rank " << r << " kept its thread";
  }
  EXPECT_GE(on_rank_threads, 2);
}

SPMD_CARRIER_TEST(UnreadPacketFailsTheRunAndNeverReachesTheNext) {
  auto machine = make_machine(3);
  const auto expect_fatal_run = [&machine](
                                    const std::function<void(Transport&)>&
                                        body) {
    try {
      machine->run(body);
      ADD_FAILURE() << "a run that leaves a packet unread must fail";
    } catch (const TransportError& e) {
      EXPECT_FALSE(e.retryable()) << e.what();
    }
  };
  const auto send_int = [](Transport& ctx, int to, int value) {
    Packet p;
    p.pack(value);
    ctx.send(to, std::move(p));
  };
  // A packet between two peers that nobody reads: rank 2 -> rank 1 rides
  // a channel the hub-at-rank-0 barrier does not use.
  expect_fatal_run([&send_int](Transport& ctx) {
    if (ctx.rank() == 2) send_int(ctx, 1, 42);
    ctx.barrier();
  });
  // A packet a rank sent to itself and never read.
  expect_fatal_run([&send_int](Transport& ctx) {
    if (ctx.rank() == 1) send_int(ctx, 1, 43);
  });
  // The next run reads exactly what it sends.
  std::vector<int> got(3, -1);
  machine->run([&send_int, &got](Transport& ctx) {
    if (ctx.rank() == 2) send_int(ctx, 1, 7);
    if (ctx.rank() == 1) {
      send_int(ctx, 1, 8);
      got[0] = ctx.recv(2).unpack<int>();
      got[1] = ctx.recv(1).unpack<int>();
    }
    const double s =
        ctx.allreduce(1.0, [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(s, 3.0);
  });
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[1], 8);
}

SPMD_CARRIER_TEST(ParkedRanksSleepAndStopPromptly) {
  auto machine = make_machine(4);
  (void)record_rank_threads(*machine);
  // Parked ranks block on a condition variable: a spinning rank would
  // burn about 0.2 s of CPU per thread over this sleep.
  const double cpu_before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(cpu_seconds() - cpu_before, 0.1);
  const auto start = std::chrono::steady_clock::now();
  machine.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
}

// A sanitizer's shadow memory needs the address space that
// RankThreadThatCannotStartIsATransportError caps.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PIGP_ADDRESS_SPACE_CAP_UNSAFE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PIGP_ADDRESS_SPACE_CAP_UNSAFE 1
#endif
#endif

#ifndef PIGP_ADDRESS_SPACE_CAP_UNSAFE
/// Caps this process's address space (soft limit only) so that one more
/// thread stack fits and a second does not.  Returns the old soft limit.
rlim_t cap_address_space_to_one_more_thread() {
  pthread_attr_t attr;
  std::size_t stack = 0;
  if (pthread_getattr_default_np(&attr) != 0) std::_Exit(3);
  (void)pthread_attr_getstacksize(&attr, &stack);
  (void)pthread_attr_destroy(&attr);
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  if (!(statm >> pages) || stack == 0) std::_Exit(3);
  rlimit limit{};
  (void)getrlimit(RLIMIT_AS, &limit);
  const rlim_t old = limit.rlim_cur;
  limit.rlim_cur = static_cast<rlim_t>(
      pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) + stack +
      stack / 2);
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  return old;
}
#endif

SPMD_CARRIER_TEST(RankThreadThatCannotStartIsATransportError) {
#ifdef PIGP_ADDRESS_SPACE_CAP_UNSAFE
  (void)make_machine;
  GTEST_SKIP() << "a sanitizer's shadow memory needs the address space "
                  "this case caps";
#else
  // Rank 1's thread starts and parks; rank 2's stack no longer fits, so
  // std::thread throws.  The build must stop and join rank 1 and fail
  // typed (not std::terminate on a joinable thread), and once the cap is
  // lifted the same executor builds a fresh group.  The cap is set in a
  // re-executed child process only.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        auto machine = make_machine(3);
        const rlim_t old = cap_address_space_to_one_more_thread();
        int code = 1;
        try {
          machine->run([](Transport& ctx) { ctx.barrier(); });
        } catch (const TransportError& e) {
          code = std::string(e.what()).find("rank thread") !=
                         std::string::npos
                     ? 0
                     : 4;
        } catch (...) {
          code = 2;
        }
        rlimit limit{};
        (void)getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur = old;
        (void)setrlimit(RLIMIT_AS, &limit);
        if (code == 0) (void)record_rank_threads(*machine);
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace pigp::net
