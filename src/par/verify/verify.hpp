#pragma once

/// \file verify.hpp
/// MPI-semantics correctness checking for the foam::par runtime.
///
/// FOAM's communication pattern is exercised exactly as with MPI, and the
/// classes of bug that dominate coupled-model debugging are MPI-semantics
/// bugs: deadlocked wait cycles, orphaned messages, wildcard receives whose
/// outcome depends on timing, and collectives entered inconsistently across
/// ranks. This layer is a built-in MUST/Marmot-style checker: every rank of
/// a parallel run can enable it (CommVerifyOptions, or the FOAM_PAR_VERIFY
/// environment variable) and the runtime then proves, as the run executes,
/// that it was deadlock-free, leak-free and deterministic.
///
/// Four detectors:
///  * Deadlock — every blocking wait (recv / wait / waitany / a collective
///    round) registers what it is blocked on in a cross-rank wait-for
///    table. When a wait stalls past CommVerifyOptions::
///    stall_timeout_seconds, the stalled rank computes the definitely-
///    deadlocked set: the largest set of blocked ranks in which every rank
///    that could release a member is itself a member (wildcard receives
///    contribute edges to every possible sender, waitany to every pending
///    request's senders). A non-empty set is a proven deadlock — no member
///    can ever run again — and is reported as a cycle walk plus each
///    member's pending (comm, src, tag) set, then aborts the run (in audit
///    mode too: there is nothing left to audit).
///  * Message audit — at communicator teardown and at explicit
///    Comm::verify_quiescent() barriers, each rank reports messages still
///    sitting in its mailbox (unmatched sends), posted receives that never
///    completed, and receives whose last Request handle was dropped while
///    still pending (the buffer handed to irecv can no longer be completed
///    or safely released). Each problem is reported exactly once.
///  * Wildcard races — when the verifier is on, every message carries the
///    sender's vector clock. When a kAnySource / kAnyTag receive matches a
///    message while another queued message was also eligible, and the two
///    sends are concurrent under the clocks (neither happens-before the
///    other), the match was timing-dependent: a different sender could
///    have matched. Reported with both candidates. (The check window is
///    the receive queue at match time — races whose alternative message
///    has not yet arrived are not observable in one run.)
///  * Collective consistency — every collective entry computes a signature
///    (operation, root, element count/width, ReduceOp, per-communicator
///    entry sequence number) that rides on the collective's own internal
///    messages; each receiving side compares against its local signature,
///    turning silent mismatches (different lengths, different operations,
///    skipped collectives) into immediate diagnostics naming both ranks.
///
/// Modes: kOff (no work beyond one branch per hook), kAudit (findings are
/// logged, counted and fed to telemetry; the run continues), kStrict
/// (findings throw foam::Error at the detecting rank; verify_quiescent
/// throws on every rank when the global finding count is non-zero).
/// Deadlocks always abort. Overhead in audit mode is gated < 5% of busy
/// time by bench_time_allocation.
///
/// The verifier object is shared by all ranks of a parallel run (one per
/// par::run Context). Vector clocks are per-rank and touched only by the
/// owning rank's thread; the wait-for table and findings list are guarded
/// by one mutex that is taken on blocking waits and findings, never on the
/// per-message fast path.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace foam::par {

namespace detail {
struct Message;
struct RequestState;
}  // namespace detail

/// How much semantics checking the runtime performs (see the file comment).
enum class VerifyMode : int { kOff = 0, kAudit = 1, kStrict = 2 };

const char* verify_mode_name(VerifyMode m);

/// Options for the correctness layer; Comm::set_verify installs them for
/// the whole run (collective call, identical values on every rank).
struct CommVerifyOptions {
  VerifyMode mode = VerifyMode::kOff;
  /// Age of a blocked wait after which the deadlock probe runs [s].
  double stall_timeout_seconds = 10.0;
  /// Log each finding as it is recorded (kWarn); findings are always
  /// counted and kept regardless.
  bool log_findings = true;

  /// Defaults from the environment: FOAM_PAR_VERIFY=off|audit|strict and
  /// FOAM_PAR_VERIFY_TIMEOUT=<seconds>. Unset or unrecognized means kOff.
  static CommVerifyOptions from_env();
};

namespace verify {

enum class FindingKind : int {
  kDeadlock = 0,
  kUnmatchedSend = 1,      ///< message delivered to a mailbox, never received
  kPendingReceive = 2,     ///< posted receive never completed
  kAbandonedRequest = 3,   ///< last Request handle dropped while pending
  kWildcardRace = 4,       ///< nondeterministic wildcard match
  kCollectiveMismatch = 5, ///< inconsistent collective entry across ranks
};
inline constexpr int kFindingKindCount = 6;

const char* finding_kind_name(FindingKind k);

struct Finding {
  FindingKind kind = FindingKind::kDeadlock;
  int rank = -1;  ///< world rank that detected (and usually owns) the problem
  std::string detail;
};

/// Collective operations carrying a consistency signature.
enum class CollKind : int {
  kBarrier = 0,
  kBcast = 1,
  kReduce = 2,
  kGather = 3,
  kScatter = 4,
  kGatherv = 5,
  kAlltoall = 6,
  kSplit = 7,
};

const char* coll_kind_name(CollKind k);

/// Signature of one collective entry, compared across ranks. Equal entries
/// hash equal; the decoded fields drive the mismatch diagnostic.
struct CollDesc {
  std::int32_t kind = 0;   ///< CollKind
  std::int32_t root = 0;
  std::uint64_t count = 0; ///< elements (or a content hash, e.g. gatherv counts)
  std::uint32_t elem = 0;  ///< element width [bytes]
  std::int32_t op = -1;    ///< ReduceOp for reductions, -1 otherwise
  std::uint64_t seq = 0;   ///< per-communicator collective entry number
  std::int32_t comm_id = 0;

  std::uint64_t hash() const;
  std::string describe() const;
};

/// One blocked wait's matching spec, registered in the wait-for table.
struct WaitSpec {
  int comm_id = 0;
  int want_src_global = -1;  ///< global rank, or -1 for kAnySource
  int tag = 0;               ///< kAnyTag allowed
  /// Global ranks of the waited communicator (for wildcard candidate
  /// expansion). Points at the blocked rank's Comm::members_, which is
  /// immutable after construction and outlives the wait; reads happen
  /// under the verifier mutex that also ordered the registration.
  const std::vector<int>* members = nullptr;
};

/// The shared correctness checker for one parallel run. See file comment
/// for the threading contract.
class Verifier {
 public:
  explicit Verifier(int nranks);

  /// Install options (any rank may call; callers pass identical values).
  void configure(const CommVerifyOptions& opts);
  CommVerifyOptions options() const;

  VerifyMode mode() const {
    // mo: standalone mode flag mirroring opts_.mode for lock-free reads;
    // configure() happens before the ranks that consult it are spawned.
    return static_cast<VerifyMode>(mode_.load(std::memory_order_relaxed));
  }
  bool enabled() const { return mode() != VerifyMode::kOff; }

  /// Abort path: stop recording (stack unwinding drops requests and tears
  /// down communicators; none of that is evidence once a rank has failed).
  void suppress() {
    // mo: standalone latch; a rank that misses it once just records one
    // more (discarded) finding on its next poll.
    suppressed_.store(true, std::memory_order_relaxed);
  }
  bool suppressed() const {
    // mo: see suppress.
    return suppressed_.load(std::memory_order_relaxed);
  }

  // --- message path (owner-thread only; no locks) ------------------------

  /// Stamp an outgoing message with the sender's vector clock and serial.
  void on_send(int me_global, detail::Message& msg);
  /// Merge a delivered message's clock into the receiver's clock.
  void on_deliver(int me_global, const detail::Message& msg);

  /// A wildcard receive matched \p matched while \p other (also queued,
  /// also eligible) differs in source or tag. Records a race finding if
  /// the two sends are concurrent under the vector clocks. Returns true
  /// if a finding was recorded. Called on the receiving rank's thread.
  bool check_wildcard_pair(int me_global, const detail::RequestState& rs,
                           const detail::Message& matched,
                           const detail::Message& other);

  // --- collective consistency -------------------------------------------

  /// Compare a received collective-round message's signature against the
  /// receiving rank's own entry. Throws in strict mode on mismatch.
  void check_collective(int me_global, const CollDesc& expect,
                        const detail::Message& msg);

  // --- wait-for graph / deadlock ----------------------------------------

  /// Register that \p me_global is blocked (\p what names the operation;
  /// specs are everything whose completion releases the wait).
  void enter_wait(int me_global, const char* what,
                  std::vector<WaitSpec> specs);
  void leave_wait(int me_global);
  /// Run the deadlock probe if this rank's wait has stalled past the
  /// configured timeout. Throws foam::Error (aborting the run) when a
  /// definitely-deadlocked set is found.
  void poll_deadlock(int me_global);

  // --- audits ------------------------------------------------------------

  /// Report unmatched mailbox messages and never-completed pending
  /// receives, each exactly once across repeated audits. When
  /// \p comm_id_filter >= 0 only that communicator's state is audited
  /// (teardown); \p where labels the diagnostic. Returns the number of
  /// new findings. Never throws (strict escalation is the caller's call).
  std::size_t audit(int me_global, const char* where, int comm_id_filter,
                    const std::deque<detail::Message>& queue,
                    const std::vector<std::shared_ptr<detail::RequestState>>&
                        pending);

  /// The last user handle of a still-pending receive was destroyed.
  void on_abandoned_request(detail::RequestState& rs);

  // --- findings -----------------------------------------------------------

  /// Record a finding: log, count into telemetry (counter + trace instant
  /// event), keep. In strict mode, throws foam::Error(detail) when
  /// \p allow_throw (detectors in destructors / audits pass false).
  void record(FindingKind kind, int rank, const std::string& detail,
              bool allow_throw);

  std::vector<Finding> findings() const;
  std::size_t finding_count() const;
  std::size_t finding_count(FindingKind kind) const;

 private:
  struct RankWait {
    bool blocked = false;
    const char* what = "";
    std::vector<WaitSpec> specs;
    std::chrono::steady_clock::time_point since{};
  };

  void record_locked(FindingKind kind, int rank, const std::string& detail,
                     bool allow_throw);
  /// Largest set of blocked ranks closed under "every possible releaser is
  /// in the set"; members must have been blocked at least \p min_age.
  std::vector<int> deadlocked_set_locked(double min_age_seconds) const;

  const int nranks_;
  std::atomic<int> mode_{static_cast<int>(VerifyMode::kOff)};
  std::atomic<bool> suppressed_{false};
  std::atomic<std::uint64_t> send_seq_{0};

  /// clocks_[r] is written only by rank r's thread; messages carry copies.
  std::vector<std::vector<std::uint32_t>> clocks_;

  mutable std::mutex mutex_;
  CommVerifyOptions opts_;               // guarded by mutex_
  std::vector<RankWait> waits_;          // guarded by mutex_
  std::vector<Finding> findings_;        // guarded by mutex_
  std::size_t kind_counts_[kFindingKindCount] = {};  // guarded by mutex_
  std::set<std::uint64_t> reported_msgs_;            // guarded by mutex_
  bool deadlock_reported_ = false;                   // guarded by mutex_
};

}  // namespace verify
}  // namespace foam::par
