/// Deliberately-buggy fixtures proving each par-verify detector fires with
/// a diagnostic naming the ranks and (comm, src, tag) involved — plus
/// clean-run negatives showing the detectors stay quiet on correct code.
///
/// Note on the "send/send deadlock" fixture: foam::par sends are buffered
/// (MPI_Bsend semantics — they always complete locally), so the classic
/// eager-limit send/send deadlock cannot be expressed; its reachable
/// analogue here is the head-to-head recv/recv cycle, which exercises the
/// same wait-for-graph machinery.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "par/comm.hpp"

namespace foam::par {
namespace {

CommVerifyOptions quiet(VerifyMode mode, double timeout = 10.0) {
  CommVerifyOptions o;
  o.mode = mode;
  o.stall_timeout_seconds = timeout;
  o.log_findings = false;
  return o;
}

/// Runs \p fn expecting a foam::Error whose message contains every one of
/// \p needles; returns the message for further checks.
template <typename Fn>
std::string expect_run_error(int nranks, Fn fn,
                             const std::vector<std::string>& needles) {
  std::string msg;
  try {
    run(nranks, fn);
    ADD_FAILURE() << "run() was expected to throw";
  } catch (const Error& e) {
    msg = e.what();
  }
  for (const std::string& n : needles)
    EXPECT_NE(msg.find(n), std::string::npos)
        << "diagnostic missing \"" << n << "\": " << msg;
  return msg;
}

// ---------------------------------------------------------------------------
// Deadlock detector
// ---------------------------------------------------------------------------

TEST(ParVerify, RecvRecvDeadlockDetectedWithCycleDiagnostic) {
  CommVerifyOptions o = quiet(VerifyMode::kAudit, /*timeout=*/0.5);
  o.log_findings = true;  // the one fixture whose diagnostic we also print
  expect_run_error(
      2,
      [o](Comm& comm) {
        comm.set_verify(o);
        // Head-to-head blocking receives: each rank waits for a message
        // the other will only send after its own receive returns.
        double v = 0.0;
        comm.recv(1 - comm.rank(), /*tag=*/3, v);
        comm.send(1 - comm.rank(), /*tag=*/3, v);
      },
      {"deadlock detected", "rank 0", "rank 1", "(comm 0, src", "tag 3",
       "blocked in recv"});
}

TEST(ParVerify, WildcardWaitDeadlockDetected) {
  // Wildcard receives contribute wait-for edges to every possible sender;
  // with every rank blocked on kAnySource the set is closed and proven.
  expect_run_error(
      3,
      [](Comm& comm) {
        comm.set_verify(quiet(VerifyMode::kStrict, /*timeout=*/0.5));
        double v = 0.0;
        comm.recv(kAnySource, kAnyTag, v);
      },
      {"deadlock detected", "src any", "tag any"});
}

// ---------------------------------------------------------------------------
// Message audit (orphaned sends, abandoned requests, quiescence)
// ---------------------------------------------------------------------------

TEST(ParVerify, OrphanedIsendFoundOnceByQuiescentAudit) {
  run(2, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kAudit));
    if (comm.rank() == 0) {
      const double v = 1.5;
      Request s = comm.isend(1, /*tag=*/5, v);
      comm.wait(s);
    }
    // Rank 1 never receives: the audit on rank 1 reports the orphan and
    // the allreduced total reaches every rank.
    EXPECT_EQ(comm.verify_quiescent(), 1u);
    // Exactly-once: a second audit finds nothing new.
    EXPECT_EQ(comm.verify_quiescent(), 0u);
    const auto& v = comm.verifier();
    EXPECT_EQ(v.finding_count(verify::FindingKind::kUnmatchedSend), 1u);
    if (comm.rank() == 1) {
      bool described = false;
      for (const verify::Finding& f : v.findings())
        if (f.kind == verify::FindingKind::kUnmatchedSend)
          described = f.detail.find("from rank 0") != std::string::npos &&
                      f.detail.find("tag 5") != std::string::npos;
      EXPECT_TRUE(described);
    }
  });
}

TEST(ParVerify, StrictQuiescentThrowsOnOrphan) {
  expect_run_error(
      2,
      [](Comm& comm) {
        comm.set_verify(quiet(VerifyMode::kStrict));
        if (comm.rank() == 0) {
          const double v = 2.5;
          Request s = comm.isend(1, /*tag=*/6, v);
          comm.wait(s);
        }
        comm.verify_quiescent();
      },
      {"verify_quiescent", "1 finding(s)"});
}

TEST(ParVerify, AbandonedPendingIrecvDetected) {
  run(2, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kAudit));
    if (comm.rank() == 1) {
      double sink = 0.0;
      {
        Request r = comm.irecv(0, /*tag=*/4, sink);
        // Dropping the last handle of a still-pending receive: nobody can
        // complete it, and the buffer's lifetime promise is broken.
      }
    }
    comm.barrier();
    const auto& v = comm.verifier();
    EXPECT_EQ(v.finding_count(verify::FindingKind::kAbandonedRequest), 1u);
    if (comm.rank() == 1) {
      bool described = false;
      for (const verify::Finding& f : v.findings())
        if (f.kind == verify::FindingKind::kAbandonedRequest)
          described = f.detail.find("rank 1") != std::string::npos &&
                      f.detail.find("tag 4") != std::string::npos;
      EXPECT_TRUE(described);
    }
  });
}

TEST(ParVerify, CompletedAndCopiedRequestsAreNotAbandoned) {
  run(2, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kAudit));
    if (comm.rank() == 0) {
      const double v = 3.0;
      comm.send(1, 7, v);
    } else {
      double v = 0.0;
      {
        Request r = comm.irecv(0, 7, v);
        Request copy = r;  // extra handles must not trip the detector
        comm.wait(r);
        EXPECT_TRUE(copy.valid());  // copy still holds the completed state
      }
      EXPECT_DOUBLE_EQ(v, 3.0);
    }
    comm.barrier();
    EXPECT_EQ(comm.verifier().finding_count(
                  verify::FindingKind::kAbandonedRequest),
              0u);
    EXPECT_EQ(comm.verify_quiescent(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Wildcard-race detector (vector clocks)
// ---------------------------------------------------------------------------

TEST(ParVerify, ConcurrentWildcardMatchFlaggedInAuditMode) {
  run(3, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kAudit));
    constexpr int kPayload = 7, kReady = 8;
    if (comm.rank() == 0) {
      // Ready-token protocol makes the race deterministic to *observe*:
      // both payloads are in the mailbox before the wildcard receive, yet
      // which one matches is an arbitrary arbitration — the bug class the
      // detector exists for.
      double tok = 0.0, v = 0.0;
      comm.recv(1, kReady, tok);
      comm.recv(2, kReady, tok);
      comm.recv(kAnySource, kPayload, v);  // races: both queued, concurrent
      comm.recv(kAnySource, kPayload, v);  // one left: no race
    } else {
      const double payload = 10.0 * comm.rank(), token = 1.0;
      comm.send(0, kPayload, payload);
      comm.send(0, kReady, token);
    }
    comm.barrier();
    const auto& v = comm.verifier();
    EXPECT_EQ(v.finding_count(verify::FindingKind::kWildcardRace), 1u);
    if (comm.rank() == 0) {
      bool described = false;
      for (const verify::Finding& f : v.findings())
        if (f.kind == verify::FindingKind::kWildcardRace)
          described = f.detail.find("src any") != std::string::npos &&
                      f.detail.find("tag 7") != std::string::npos &&
                      f.detail.find("rank 1") != std::string::npos &&
                      f.detail.find("rank 2") != std::string::npos;
      EXPECT_TRUE(described);
    }
  });
}

TEST(ParVerify, ConcurrentWildcardMatchThrowsInStrictMode) {
  expect_run_error(
      3,
      [](Comm& comm) {
        comm.set_verify(quiet(VerifyMode::kStrict));
        constexpr int kPayload = 7, kReady = 8;
        if (comm.rank() == 0) {
          double tok = 0.0, v = 0.0;
          comm.recv(1, kReady, tok);
          comm.recv(2, kReady, tok);
          comm.recv(kAnySource, kPayload, v);
        } else {
          const double payload = 1.0, token = 1.0;
          comm.send(0, kPayload, payload);
          comm.send(0, kReady, token);
        }
      },
      {"wildcard race on rank 0", "src any", "tag 7"});
}

TEST(ParVerify, HappensBeforeOrderedWildcardNotFlagged) {
  // Same shape, but rank 2 only sends after a token from rank 1, so the
  // two candidate sends are ordered under the vector clocks: the match is
  // deterministic and strict mode must stay silent.
  run(3, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kStrict));
    constexpr int kPayload = 7, kReady = 8, kChain = 9;
    if (comm.rank() == 0) {
      double tok = 0.0, v = 0.0;
      comm.recv(2, kReady, tok);
      comm.recv(kAnySource, kPayload, v);
      EXPECT_DOUBLE_EQ(v, 10.0);  // posting-order FIFO: rank 1's message
      comm.recv(kAnySource, kPayload, v);
      EXPECT_DOUBLE_EQ(v, 20.0);
    } else if (comm.rank() == 1) {
      const double payload = 10.0, chain = 1.0;
      comm.send(0, kPayload, payload);
      comm.send(2, kChain, chain);
    } else {
      double chain = 0.0;
      comm.recv(1, kChain, chain);  // orders rank 2's send after rank 1's
      const double payload = 20.0, token = 1.0;
      comm.send(0, kPayload, payload);
      comm.send(0, kReady, token);
    }
    comm.barrier();
    EXPECT_EQ(
        comm.verifier().finding_count(verify::FindingKind::kWildcardRace),
        0u);
  });
}

// ---------------------------------------------------------------------------
// Collective-consistency check
// ---------------------------------------------------------------------------

TEST(ParVerify, MismatchedAllreduceLengthDetected) {
  expect_run_error(
      2,
      [](Comm& comm) {
        comm.set_verify(quiet(VerifyMode::kStrict));
        // Rank 1 enters the allreduce with a different element count: a
        // silent corruption without the checker, an immediate diagnostic
        // naming both entries with it.
        const std::size_t n = comm.rank() == 0 ? 4 : 5;
        std::vector<double> in(n, 1.0), out(n, 0.0);
        comm.allreduce(std::span<const double>(in), std::span<double>(out),
                       ReduceOp::kSum);
      },
      {"collective mismatch", "rank 0", "rank 1", "reduce", "count 4",
       "count 5"});
}

TEST(ParVerify, MismatchedReduceOpDetected) {
  expect_run_error(
      2,
      [](Comm& comm) {
        comm.set_verify(quiet(VerifyMode::kStrict));
        std::vector<double> in(3, 1.0), out(3, 0.0);
        comm.allreduce(std::span<const double>(in), std::span<double>(out),
                       comm.rank() == 0 ? ReduceOp::kSum : ReduceOp::kMax);
      },
      {"collective mismatch", "op sum", "op max"});
}

TEST(ParVerify, ConsistentCollectivesProduceNoFindings) {
  run(4, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kStrict));
    const int n = comm.size();
    double x = comm.rank() + 1.0;
    comm.bcast(x, 0);
    double sum = comm.allreduce_scalar(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, n);
    std::vector<double> block(2, comm.rank()), all(2 * n, 0.0);
    comm.allgather(block.data(), 2, all.data());
    std::vector<double> scat(n, 0.0);
    double mine = 0.0;
    comm.scatter(scat.data(), 1, &mine, 0);
    std::vector<int> counts(n, 1);
    std::vector<double> gv_in(1, comm.rank()), gv_out;
    comm.gatherv(gv_in, gv_out, counts, 0);
    std::vector<double> a2a_in(n, comm.rank()), a2a_out(n, 0.0);
    comm.alltoall(a2a_in.data(), a2a_out.data(), 1);
    auto sub = comm.split(comm.rank() % 2, comm.rank());
    ASSERT_NE(sub, nullptr);
    sub->barrier();
    comm.barrier();
    EXPECT_EQ(comm.verifier().finding_count(), 0u);
    EXPECT_EQ(comm.verify_quiescent(), 0u);
  });
}

// ---------------------------------------------------------------------------
// verify_quiescent under the many-rank stress harnesses
// ---------------------------------------------------------------------------

/// One all-to-all round of nonblocking traffic (the test_comm_nonblocking
/// stress shape): every rank exchanges one double with every other rank.
void stress_round(Comm& comm, int round) {
  const int n = comm.size();
  std::vector<double> in(n, -1.0), out(n, 0.0);
  std::vector<Request> reqs;
  for (int peer = 0; peer < n; ++peer) {
    if (peer == comm.rank()) continue;
    reqs.push_back(comm.irecv(peer, 10 + round, in[peer]));
  }
  for (int peer = 0; peer < n; ++peer) {
    if (peer == comm.rank()) continue;
    out[peer] = comm.rank() * 1000.0 + peer + round;
    reqs.push_back(comm.isend(peer, 10 + round, out[peer]));
  }
  comm.waitall(reqs);
  for (int peer = 0; peer < n; ++peer) {
    if (peer == comm.rank()) continue;
    EXPECT_DOUBLE_EQ(in[peer], peer * 1000.0 + comm.rank() + round);
  }
}

TEST(ParVerify, QuiescentCleanUnderEightRankStress) {
  run(8, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kStrict));
    for (int round = 0; round < 3; ++round) {
      stress_round(comm, round);
      EXPECT_EQ(comm.verify_quiescent(), 0u);  // strict: would throw too
    }
    EXPECT_EQ(comm.verifier().finding_count(), 0u);
  });
}

TEST(ParVerify, QuiescentFindsExactlyInjectedOrphanUnderTwelveRankStress) {
  run(12, [](Comm& comm) {
    comm.set_verify(quiet(VerifyMode::kAudit));
    for (int round = 0; round < 2; ++round) {
      stress_round(comm, round);
      EXPECT_EQ(comm.verify_quiescent(), 0u);
    }
    if (comm.rank() == 3) {
      const double stray = 9.9;
      Request s = comm.isend(7, /*tag=*/99, stray);
      comm.wait(s);
    }
    stress_round(comm, 2);
    EXPECT_EQ(comm.verify_quiescent(), 1u);  // the orphan, nothing else
    EXPECT_EQ(comm.verifier().finding_count(), 1u);
  });
}

// ---------------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------------

TEST(ParVerify, OptionsFromEnvironment) {
  ASSERT_EQ(setenv("FOAM_PAR_VERIFY", "audit", 1), 0);
  ASSERT_EQ(setenv("FOAM_PAR_VERIFY_TIMEOUT", "2.5", 1), 0);
  CommVerifyOptions o = CommVerifyOptions::from_env();
  EXPECT_EQ(o.mode, VerifyMode::kAudit);
  EXPECT_DOUBLE_EQ(o.stall_timeout_seconds, 2.5);

  ASSERT_EQ(setenv("FOAM_PAR_VERIFY", "strict", 1), 0);
  EXPECT_EQ(CommVerifyOptions::from_env().mode, VerifyMode::kStrict);

  ASSERT_EQ(setenv("FOAM_PAR_VERIFY", "nonsense", 1), 0);
  ASSERT_EQ(setenv("FOAM_PAR_VERIFY_TIMEOUT", "-3", 1), 0);
  o = CommVerifyOptions::from_env();
  EXPECT_EQ(o.mode, VerifyMode::kOff);
  EXPECT_DOUBLE_EQ(o.stall_timeout_seconds, 10.0);

  ASSERT_EQ(unsetenv("FOAM_PAR_VERIFY"), 0);
  ASSERT_EQ(unsetenv("FOAM_PAR_VERIFY_TIMEOUT"), 0);
  EXPECT_EQ(CommVerifyOptions::from_env().mode, VerifyMode::kOff);
}

TEST(ParVerify, OffModeRecordsNothing) {
  run(2, [](Comm& comm) {
    // No set_verify: the default is off; hooks must stay pure branches.
    if (comm.rank() == 0) {
      const double v = 4.0;
      Request s = comm.isend(1, 5, v);  // orphan — but nobody is looking
      comm.wait(s);
    }
    EXPECT_FALSE(comm.verifier().enabled());
    EXPECT_EQ(comm.verify_quiescent(), 0u);
    EXPECT_EQ(comm.verifier().finding_count(), 0u);
  });
}

}  // namespace
}  // namespace foam::par
