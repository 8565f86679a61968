#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "par/comm.hpp"

namespace foam::par {
namespace {

TEST(CommNonblocking, IsendIrecvRoundTrip) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 42.5;
      Request s = comm.isend(1, 7, v);
      comm.wait(s);
      EXPECT_FALSE(s.valid());
    } else {
      double v = 0.0;
      Request r = comm.irecv(0, 7, v);
      EXPECT_TRUE(r.valid());
      const RecvStatus st = comm.wait(r);
      EXPECT_DOUBLE_EQ(v, 42.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_FALSE(r.valid());
    }
  });
}

TEST(CommNonblocking, SendRequestIsBornCompleteAndBufferReusable) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Buffered semantics: the payload is copied out at post time, so the
      // same buffer can be reused for back-to-back isends.
      std::vector<double> buf(8);
      for (int i = 0; i < 3; ++i) {
        std::fill(buf.begin(), buf.end(), static_cast<double>(i));
        Request s = comm.isend_vec(1, 5, buf);
        EXPECT_TRUE(comm.test(s));  // born complete
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        std::vector<double> got;
        comm.recv_vec(0, 5, got);
        ASSERT_EQ(got.size(), 8u);
        for (const double v : got) EXPECT_DOUBLE_EQ(v, i);
      }
    }
  });
}

TEST(CommNonblocking, NullRequestIsBenign) {
  run(1, [](Comm& comm) {
    Request r;
    EXPECT_FALSE(r.valid());
    EXPECT_TRUE(comm.test(r));
    const RecvStatus st = comm.wait(r);
    EXPECT_EQ(st.bytes, 0u);
    std::vector<Request> rs(3);
    comm.waitall(rs);
    EXPECT_EQ(comm.waitany(rs), -1);
  });
}

TEST(CommNonblocking, WildcardSourceAndTagMatch) {
  run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 0, b = 0;
      Request ra = comm.irecv(kAnySource, kAnyTag, a);
      Request rb = comm.irecv(kAnySource, kAnyTag, b);
      RecvStatus sa = comm.wait(ra);
      RecvStatus sb = comm.wait(rb);
      // One message from each peer, in some order; status reports the
      // actual source and tag.
      EXPECT_NE(sa.source, sb.source);
      EXPECT_EQ(a, sa.source * 100 + sa.tag);
      EXPECT_EQ(b, sb.source * 100 + sb.tag);
    } else {
      const int tag = comm.rank() + 10;
      comm.send(0, tag, comm.rank() * 100 + tag);
    }
  });
}

TEST(CommNonblocking, FifoWithinMatchClass) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 16; ++i) comm.send(1, 3, i);
    } else {
      // Pre-post all receives: posting order must pair with send order.
      std::vector<int> got(16, -1);
      std::vector<Request> rs(16);
      for (int i = 0; i < 16; ++i) rs[i] = comm.irecv(0, 3, got[i]);
      comm.waitall(rs);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(got[i], i);
    }
  });
}

TEST(CommNonblocking, PostingOrderDecidesWildcardPairing) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 4, 111);
      comm.send(1, 4, 222);
    } else {
      // An earlier wildcard receive takes the earlier message even when the
      // later (specific) receive also matches it.
      int a = 0, b = 0;
      Request ra = comm.irecv(kAnySource, kAnyTag, a);
      Request rb = comm.irecv(0, 4, b);
      comm.wait(ra);
      comm.wait(rb);
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

TEST(CommNonblocking, BlockingRecvQueuesBehindPendingIrecv) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 9, 1);
      comm.send(1, 9, 2);
    } else {
      int first = 0, second = 0;
      Request r = comm.irecv(0, 9, first);
      // The blocking receive is posted after the pending irecv, so it must
      // take the *second* message even though it runs first.
      comm.recv(0, 9, second);
      comm.wait(r);
      EXPECT_EQ(first, 1);
      EXPECT_EQ(second, 2);
    }
  });
}

TEST(CommNonblocking, WaitallCompletesOutOfOrderArrivals) {
  run(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Receives posted in rank order; peers send in reverse arrival bias
      // (rank 3 sends immediately, rank 1 last — arrival order is
      // arbitrary, which is the point).
      std::vector<double> v(3, 0.0);
      std::vector<Request> rs(3);
      for (int src = 1; src <= 3; ++src)
        rs[src - 1] = comm.irecv(src, 2, v[src - 1]);
      comm.waitall(rs);
      for (int src = 1; src <= 3; ++src) {
        EXPECT_FALSE(rs[src - 1].valid());
        EXPECT_DOUBLE_EQ(v[src - 1], src * 1.5);
      }
    } else {
      comm.send(0, 2, comm.rank() * 1.5);
    }
  });
}

TEST(CommNonblocking, WaitanyReturnsCompletionsUntilExhausted) {
  run(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> v(3, 0);
      std::vector<Request> rs(3);
      for (int src = 1; src <= 3; ++src)
        rs[src - 1] = comm.irecv(src, 6, v[src - 1]);
      std::vector<bool> seen(3, false);
      RecvStatus st;
      for (int k = 0; k < 3; ++k) {
        const int idx = comm.waitany(rs, &st);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, 3);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
        EXPECT_EQ(st.source, idx + 1);
        EXPECT_EQ(v[idx], (idx + 1) * 7);
      }
      EXPECT_EQ(comm.waitany(rs), -1);  // all handles consumed
    } else {
      comm.send(0, 6, comm.rank() * 7);
    }
  });
}

TEST(CommNonblocking, TestPollsWithoutBlocking) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      int go = 0;
      comm.recv(1, 1, go);  // rank 1 has verified "not yet delivered"
      comm.send(1, 2, 3.25);
    } else {
      double v = 0.0;
      Request r = comm.irecv(0, 2, v);
      EXPECT_FALSE(comm.test(r));  // nothing sent yet — must not block
      EXPECT_TRUE(r.valid());
      comm.send(0, 1, 1);  // release the sender
      RecvStatus st;
      while (!comm.test(r, &st)) {
      }
      EXPECT_DOUBLE_EQ(v, 3.25);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(CommNonblocking, IrecvVecResizesToIncomingLength) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(17);
      std::iota(payload.begin(), payload.end(), 0.0);
      comm.send_vec(1, 8, payload);
    } else {
      std::vector<double> v;  // delivery resizes
      Request r = comm.irecv_vec(0, 8, v);
      const RecvStatus st = comm.wait(r);
      ASSERT_EQ(v.size(), 17u);
      EXPECT_EQ(st.bytes, 17 * sizeof(double));
      for (int i = 0; i < 17; ++i) EXPECT_DOUBLE_EQ(v[i], i);
    }
  });
}

TEST(CommNonblocking, OverflowThrowsAtCompletion) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double big[4] = {1, 2, 3, 4};
      comm.send_bytes(1, 1, big, sizeof(big));
    } else {
      double small[2];
      Request r = comm.irecv_bytes(0, 1, small, sizeof(small));
      EXPECT_THROW(comm.wait(r), Error);
    }
  });
}

TEST(CommNonblocking, WildcardDoesNotStealCollectiveTraffic) {
  run(3, [](Comm& comm) {
    // A pending any-source/any-tag receive sits open across collectives;
    // the collectives' internal messages must not match it.
    double v = 0.0;
    Request r;
    if (comm.rank() == 0) r = comm.irecv(kAnySource, kAnyTag, v);
    comm.barrier();
    const double sum = comm.allreduce_scalar(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);
    int root_val = comm.rank() == 1 ? 99 : 0;
    comm.bcast(root_val, 1);
    EXPECT_EQ(root_val, 99);
    if (comm.rank() == 2) comm.send(0, 0, 2.75);
    if (comm.rank() == 0) {
      const RecvStatus st = comm.wait(r);
      EXPECT_DOUBLE_EQ(v, 2.75);  // the user message, not collective bytes
      EXPECT_EQ(st.source, 2);
    }
  });
}

TEST(CommNonblocking, SplitCommsKeepPendingReceivesSeparate) {
  run(4, [](Comm& comm) {
    // Two sub-communicators exchange on the same tag concurrently; pending
    // receives must match only their own communicator's messages.
    auto sub = comm.split(comm.rank() % 2, comm.rank());
    ASSERT_NE(sub, nullptr);
    const int peer = 1 - sub->rank();
    int got = 0;
    Request r = sub->irecv(peer, 5, got);
    sub->send(peer, 5, 1000 + comm.rank());
    sub->wait(r);
    // My peer in my color group is the other rank with the same parity.
    const int expect_global = (comm.rank() + 2) % 4;
    EXPECT_EQ(got, 1000 + expect_global);
  });
}

TEST(CommNonblocking, ManyRankStressCompletesWithoutDeadlock) {
  // Ring + all-pairs stress: every rank pre-posts receives from every other
  // rank, then sends to every other rank, then waits. Any matching or
  // completion bug (lost wakeup, wrong pairing, missed arrival) deadlocks
  // or corrupts the checksums.
  constexpr int kRanks = 12;
  constexpr int kRounds = 8;
  run(kRanks, [](Comm& comm) {
    const int me = comm.rank();
    const int n = comm.size();
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::vector<double>> inbox(n);
      std::vector<Request> rs;
      rs.reserve(n - 1);
      for (int src = 0; src < n; ++src) {
        if (src == me) continue;
        rs.push_back(comm.irecv_vec(src, round, inbox[src]));
      }
      // Send one message to every peer, in an order rotated per round so
      // arrival order varies across rounds and ranks.
      for (int i = 0; i < n - 1; ++i) {
        const int dst = (me + 1 + (i + round * 3) % (n - 1)) % n;
        std::vector<double> payload(1 + (me + dst + round) % 5);
        std::fill(payload.begin(), payload.end(),
                  me * 1000.0 + dst + round * 0.25);
        comm.isend_vec(dst, round, payload);
      }
      comm.waitall(rs);
      for (int src = 0; src < n; ++src) {
        if (src == me) continue;
        ASSERT_EQ(inbox[src].size(), 1u + (src + me + round) % 5)
            << "round " << round << " src " << src;
        for (const double v : inbox[src])
          ASSERT_DOUBLE_EQ(v, src * 1000.0 + me + round * 0.25);
      }
    }
  });
}

TEST(CommNonblocking, WaitanyIsRoundRobinFairUnderChurn) {
  // Regression: waitany used to scan from index 0 on every call, so a
  // caller that re-arms completed slots under sustained traffic serviced
  // slot 0 over and over while high-index requests starved until their
  // senders were the only ones left. With the round-robin cursor, a span
  // whose slots are all continuously ready must complete in strict
  // rotation.
  constexpr int kPerSender = 24;  // messages pre-published per sender
  constexpr int kTake = 30;       // completions consumed by the receiver
  run(4, [](Comm& comm) {
    const int nsenders = comm.size() - 1;
    if (comm.rank() != 0) {
      // Publish the full stream up front (sends are buffered), so every
      // slot on the receiver is ready at every waitany call.
      for (int k = 0; k < kPerSender; ++k)
        comm.isend(0, 3, comm.rank() * 100 + k);
      comm.barrier();
      return;
    }
    comm.barrier();  // all messages are in our channels now
    std::vector<int> vals(nsenders, -1);
    std::vector<Request> rs(nsenders);
    for (int s = 0; s < nsenders; ++s)
      rs[s] = comm.irecv(s + 1, 3, vals[s]);
    std::vector<int> completions(nsenders, 0);
    int expect = 0;
    for (int k = 0; k < kTake; ++k) {
      RecvStatus st;
      const int idx = comm.waitany(rs, &st);
      ASSERT_GE(idx, 0);
      // Every slot is ready (its sender's stream is pre-published), so
      // fairness demands strict rotation.
      EXPECT_EQ(idx, expect) << "completion " << k;
      expect = (idx + 1) % nsenders;
      EXPECT_EQ(st.source, idx + 1);
      EXPECT_EQ(vals[idx], (idx + 1) * 100 + completions[idx]);
      ++completions[idx];
      rs[idx] = comm.irecv(idx + 1, 3, vals[idx]);  // re-arm the slot
    }
    // No slot starved: kTake completions over nsenders always-ready
    // slots must be spread evenly.
    for (int s = 0; s < nsenders; ++s)
      EXPECT_EQ(completions[s], kTake / nsenders) << "slot " << s;
    // Drain what is still outstanding so the run ends quiescent.
    std::vector<int> left(nsenders);
    for (int s = 0; s < nsenders; ++s) left[s] = completions[s];
    for (int s = 0; s < nsenders; ++s) {
      comm.wait(rs[s]);
      ++left[s];
      while (left[s] < kPerSender) {
        int v = 0;
        comm.recv(s + 1, 3, v);
        ++left[s];
      }
    }
  });
}

}  // namespace
}  // namespace foam::par
