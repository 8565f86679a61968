/// Stress and semantics tests for the lock-free SPSC messaging transport:
/// ring-overflow spill FIFO, wildcard matching and posting-order under the
/// new queues, out-of-order waitall, 16-rank churn, bitwise collectives
/// against a serial oracle, and the FaultPlan stall -> deadlock-detector
/// regression.
///
/// CI runs this suite twice: under ThreadSanitizer, and with
/// FOAM_PAR_VERIFY=audit scoped to `--gtest_filter='SpscStress*'` so the
/// MPI-semantics checker audits the lock-free paths without altering the
/// rest of the test environment.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "par/comm.hpp"
#include "par/fault.hpp"

namespace foam::par {
namespace {

// ---------------------------------------------------------------------------
// Ring overflow: bursts larger than the per-channel ring must spill to the
// unbounded lane without blocking the sender or reordering the channel.
// ---------------------------------------------------------------------------

TEST(SpscStress, RingOverflowSpillsWithoutReordering) {
  // 5x the ring capacity, mixing inline (<= 256 B) and heap payloads so
  // both slot shapes ride through ring and spill lanes.
  const int n_msgs = static_cast<int>(detail::kChannelRingSlots) * 5;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < n_msgs; ++i) {
        if (i % 3 == 0) {
          std::vector<double> big(64, static_cast<double>(i));  // 512 B
          comm.isend_move(1, 4, std::move(big));
        } else {
          comm.send(1, 4, static_cast<double>(i));
        }
      }
      comm.barrier();  // sends are buffered: all complete locally first
    } else {
      comm.barrier();  // every message is queued before the first recv
      for (int i = 0; i < n_msgs; ++i) {
        if (i % 3 == 0) {
          std::vector<double> big;
          comm.recv_vec(0, 4, big);
          ASSERT_EQ(big.size(), 64u);
          EXPECT_EQ(big[0], static_cast<double>(i)) << "reordered at " << i;
        } else {
          double v = -1.0;
          comm.recv(0, 4, v);
          EXPECT_EQ(v, static_cast<double>(i)) << "reordered at " << i;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Wildcard receives and posting-order FIFO on the lock-free path.
// ---------------------------------------------------------------------------

TEST(SpscStress, WildcardRecvMatchesArrivalOrder) {
  run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Per-source FIFO with wildcard receives: messages from one source
      // must complete in the order they were sent, whatever the tag.
      std::vector<double> got;
      for (int i = 0; i < 6; ++i) {
        double v = -1.0;
        comm.recv(kAnySource, kAnyTag, v);
        got.push_back(v);
      }
      int last1 = -1, last2 = -1;
      for (double v : got) {
        const int src = static_cast<int>(v) / 100;
        const int seq = static_cast<int>(v) % 100;
        int& last = src == 1 ? last1 : last2;
        EXPECT_GT(seq, last) << "per-source FIFO violated";
        last = seq;
      }
    } else {
      for (int i = 0; i < 3; ++i)
        comm.send(0, /*tag=*/i + 1,
                  static_cast<double>(comm.rank() * 100 + i));
    }
  });
}

TEST(SpscStress, PostingOrderBreaksWildcardTies) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Two wildcard irecvs posted before any message exists: the first
      // posted must take the first arrival.
      double a = -1.0, b = -1.0;
      Request ra = comm.irecv(kAnySource, kAnyTag, a);
      Request rb = comm.irecv(kAnySource, kAnyTag, b);
      comm.barrier();
      comm.wait(ra);
      comm.wait(rb);
      EXPECT_EQ(a, 1.0);
      EXPECT_EQ(b, 2.0);
    } else {
      comm.barrier();
      comm.send(0, 9, 1.0);
      comm.send(0, 9, 2.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Out-of-order completion: irecvs posted in reverse tag order, waitall
// completes all of them against in-order sends.
// ---------------------------------------------------------------------------

TEST(SpscStress, OutOfOrderWaitall) {
  constexpr int kN = 8;
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int tag = 1; tag <= kN; ++tag)
        comm.send(1, tag, static_cast<double>(tag * 11));
    } else {
      double got[kN] = {};
      std::vector<Request> rs;
      for (int tag = kN; tag >= 1; --tag)
        rs.push_back(comm.irecv(0, tag, got[tag - 1]));
      comm.waitall(rs);
      for (int tag = 1; tag <= kN; ++tag)
        EXPECT_EQ(got[tag - 1], static_cast<double>(tag * 11));
    }
  });
}

// ---------------------------------------------------------------------------
// 16-rank churn: every rank streams to every other rank while draining
// with wildcards; totals verified with a collective. Runs clean under
// TSan and under FOAM_PAR_VERIFY=audit (CI wires both).
// ---------------------------------------------------------------------------

TEST(SpscStress, SixteenRankChurn) {
  const int nranks = 16;
  const int rounds = 8;
  run(nranks, [&](Comm& comm) {
    const int n = comm.size();
    double sum_in = 0.0, sum_out = 0.0;
    for (int round = 0; round < rounds; ++round) {
      for (int dst = 0; dst < n; ++dst) {
        if (dst == comm.rank()) continue;
        const double v = comm.rank() * 1000.0 + round;
        if (round % 2 == 0) {
          comm.send(dst, /*tag=*/round + 1, v);
        } else {
          std::vector<double> big(48, v);  // 384 B: heap payload path
          comm.isend_move(dst, round + 1, std::move(big));
        }
        sum_out += v;
      }
      for (int i = 0; i < n - 1; ++i) {
        if (round % 2 == 0) {
          double v = 0.0;
          comm.recv(kAnySource, round + 1, v);
          sum_in += v;
        } else {
          std::vector<double> big;
          comm.recv_vec(kAnySource, round + 1, big);
          ASSERT_EQ(big.size(), 48u);
          sum_in += big[0];
        }
      }
    }
    const double total_in = comm.allreduce_scalar(sum_in, ReduceOp::kSum);
    const double total_out = comm.allreduce_scalar(sum_out, ReduceOp::kSum);
    EXPECT_EQ(total_in, total_out);
  });
}

// ---------------------------------------------------------------------------
// Bitwise collectives: a 4-rank alltoall + gather program must reproduce,
// bit for bit, the same operations done serially in the same order.
// ---------------------------------------------------------------------------

TEST(SpscStress, TransportsBitwiseEquivalent) {
  constexpr int kRanks = 4;
  const auto mine_of = [](int rank, int i) {
    return 0.25 * rank + 1.0 / (i + 1);
  };
  const auto accumulate = [](const std::vector<double>& in) {
    double acc = 0.0;
    for (double v : in) acc += v * 1.000000119;
    return acc;
  };

  std::vector<double> got;
  run(kRanks, [&](Comm& comm) {
    const int n = comm.size();
    std::vector<double> mine(n);
    for (int i = 0; i < n; ++i) mine[i] = mine_of(comm.rank(), i);
    std::vector<double> swapped(n);
    comm.alltoall(mine.data(), swapped.data(), 1);
    const double acc = accumulate(swapped);
    std::vector<double> all(n, 0.0);
    comm.gather(&acc, 1, all.data(), 0);
    if (comm.rank() == 0) got = all;
  });

  // Serial oracle: rank r receives block r of every rank's send buffer in
  // source order, then rank 0 gathers the sums in rank order.
  std::vector<double> want(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<double> swapped(kRanks);
    for (int src = 0; src < kRanks; ++src) swapped[src] = mine_of(src, r);
    want[r] = accumulate(swapped);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "rank " << i << " diverged from the serial oracle";
}

// ---------------------------------------------------------------------------
// FaultPlan stall regression (satellite of the transport change): a rank
// stalled via the FOAM_FAULT spec must still be *named* by the PR-4
// deadlock detector now that waits register against the lock-free queues.
// ---------------------------------------------------------------------------

TEST(SpscStress, StalledRankStillNamedByDeadlockDetector) {
  const FaultPlan plan = FaultPlan::parse("stall:rank=1,day=1,seconds=30");
  ASSERT_EQ(plan.action, FaultPlan::Action::kStall);
  std::string msg;
  try {
    run(3, [&](Comm& comm) {
      CommVerifyOptions o;
      o.mode = VerifyMode::kAudit;
      o.stall_timeout_seconds = 0.5;
      o.log_findings = false;
      comm.set_verify(o);
      if (comm.rank() == plan.rank) {
        comm.stall(plan.stall_seconds, "fault.stall");
        comm.send(2, 3, 1.0);  // never reached: the stall outlives the run
      } else if (comm.rank() == 2) {
        double v = 0.0;
        comm.recv(1, 3, v);  // waits forever on the stalled rank
      }
      comm.barrier();
    });
    FAIL() << "stalled rank did not trip the deadlock detector";
  } catch (const Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fault.stall"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Reclamation fixtures. These run under the ASan job's LeakSanitizer (and
// TSan): every path that queues a Message — ring slot, spill node, adopted
// rendezvous buffer — must be reclaimed whether the message is delivered,
// left in a torn-down channel, or dropped by an early-exiting receiver.
// ---------------------------------------------------------------------------

/// A message whose payload exercises one of the three ownership shapes.
detail::Message make_probe_message(int i) {
  detail::Message m;
  m.tag = i;
  if (i % 3 == 0) {
    std::vector<double> big(96, static_cast<double>(i));  // adopted (768 B)
    m.payload.adopt(std::move(big));
  } else if (i % 3 == 1) {
    const std::vector<double> big(64, static_cast<double>(i));  // heap copy
    m.payload.assign(big.data(), big.size() * sizeof(double));
  } else {
    const double small = static_cast<double>(i);  // inline fast path
    m.payload.assign(&small, sizeof small);
  }
  return m;
}

TEST(SpscReclaim, ChannelTeardownFreesQueuedMessages) {
  // Fill both lanes — ring full, spill populated — consume a few, then
  // destroy the channel with messages still queued. LSan verifies the
  // ring slots, stub nodes and owned payload buffers are all freed.
  constexpr int kExtra = 7;
  const int n =
      static_cast<int>(detail::kChannelRingSlots) + kExtra;
  auto ch = std::make_unique<detail::Channel>();
  for (int i = 0; i < n; ++i) ch->push(make_probe_message(i));
  detail::Message out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ch->pop_next(out));
    EXPECT_EQ(out.tag, i);
  }
  EXPECT_GT(ch->depth_estimate(), 0u);
  ch.reset();  // ring partially full + spill non-empty at destruction
}

TEST(SpscReclaim, SpillChurnReclaimsNodesConcurrently) {
  // Bursts of 3x the ring capacity force constant spill traffic; the
  // consumer's pop() reclaims stub nodes while the producer appends.
  constexpr int kRounds = 8;
  const int burst = static_cast<int>(detail::kChannelRingSlots) * 3;
  detail::Channel ch;
  std::thread producer([&] {
    for (int r = 0; r < kRounds; ++r)
      for (int i = 0; i < burst; ++i) ch.push(make_probe_message(i));
  });
  detail::Message out;
  for (int got = 0; got < kRounds * burst;) {
    if (ch.pop_next(out)) {
      EXPECT_EQ(out.tag, got % burst);
      ++got;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ch.depth_estimate(), 0u);
}

TEST(SpscReclaim, RunTeardownWithUndeliveredMessages) {
  // A sender floods past the ring into the spill lane and returns without
  // the receiver ever posting a recv: run() joins, and the channels are
  // destroyed with messages queued in both lanes (the reclamation path
  // the model checker proves UAF-free in tests/mc).
  const int n_msgs = static_cast<int>(detail::kChannelRingSlots) * 2 + 9;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < n_msgs; ++i) {
        if (i % 2 == 0) {
          std::vector<double> big(96, static_cast<double>(i));
          comm.isend_move(1, 4, std::move(big));  // rendezvous handoff
        } else {
          comm.send(1, 4, static_cast<double>(i));  // buffered send
        }
      }
    }
    // Rank 1 exits immediately: nothing is drained, nothing is matched.
  });
}

}  // namespace
}  // namespace foam::par
