#pragma once

/// \file comm.hpp
/// Message-passing runtime with MPI-1 style semantics.
///
/// FOAM was written against MPI on IBM SP distributed-memory systems. This
/// runtime reproduces the programming model — SPMD ranks, tagged
/// point-to-point messages, communicators and the collective operations the
/// model uses — with each rank hosted on an OS thread. Model code sees only
/// the interface, exactly as it would see MPI: no component shares mutable
/// state with another except through Comm.
///
/// The transport is one lock-free SPSC channel per directed rank pair: a
/// bounded cache-line-padded ring whose slots inline payloads up to
/// Payload::kInlineBytes (no heap allocation on the small-message fast
/// path), spilling to an unbounded lock-free overflow queue when a burst
/// outruns the ring, with per-channel sequence numbers merging the two lanes
/// back into exact FIFO. Blocked receives spin briefly, then yield, then
/// sleep in short slices — no mutex or condition variable anywhere on the
/// message path.
///
/// Because ranks share one address space, large transfers can skip the
/// copy-in/copy-out entirely: isend_move hands the sender's vector to the
/// runtime by pointer ownership (rendezvous handoff), and recv_vec /
/// irecv_vec move that buffer straight into the receiving vector when the
/// element types match — zero payload memcpy end to end. Ownership rule:
/// after isend_move the buffer belongs to the runtime (the sender's vector
/// is left empty and must not be aliased); after a move-out delivery it
/// belongs to the receiver, which frees it naturally. Mismatched receives
/// (recv_bytes, different element type) fall back to one copy-out.
///
/// Semantics:
///  * send() / isend() are buffered (always complete locally, like
///    MPI_Bsend): the payload is published to the destination's channel at
///    post time, so the source buffer may be reused immediately and a send
///    Request is born complete. isend_move completes locally too — the
///    handoff transfers ownership instead of copying.
///  * recv() blocks until a matching message arrives; irecv() posts a
///    pending receive completed by wait/test/waitall/waitany. Matching is by
///    (communicator, source, tag) with kAnySource / kAnyTag wildcards, FIFO
///    within a match class. Pending receives are matched in the order they
///    were posted (MPI posting-order semantics); a blocking recv is simply a
///    pending receive posted last and waited immediately, so blocking and
///    nonblocking receives order consistently against each other.
///  * kAnyTag matches user tags only — runtime-internal traffic (collective
///    rounds, split bookkeeping) can never be stolen by a wildcard receive.
///  * Requests are completed only by the posting rank's own thread (receiver
///    -driven matching): no request state is ever shared between threads.
///  * A pending receive must be completed (or the run aborted) before its
///    communicator is destroyed; buffers handed to irecv must stay alive
///    until completion.
///  * Collectives must be entered by every rank of the communicator in the
///    same order.
///
/// User tags must be in [0, kMaxUserTag]; the runtime reserves higher tags
/// for collectives.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "par/spsc.hpp"
#include "par/verify/verify.hpp"

namespace foam::par {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
inline constexpr int kMaxUserTag = (1 << 28) - 1;

/// Reduction operators for reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

/// The point-to-point substrate (see file comment); there is only one. The
/// benchmark's host block reads it through these two functions.
enum class CommTransport : int { kSpsc = 0 };
constexpr const char* comm_transport_name(CommTransport) { return "spsc"; }
constexpr CommTransport comm_transport() { return CommTransport::kSpsc; }

/// Status of a completed receive.
struct RecvStatus {
  int source = 0;  ///< rank (within the communicator) of the sender
  int tag = 0;
  std::size_t bytes = 0;
};

namespace detail {

/// Unique runtime code per element type, for typed buffer handoff (a
/// moved-out vector must be reinterpreted only as its original type).
template <typename T>
struct TypeTag {
  static constexpr char tag = 0;
};
template <typename T>
inline std::uintptr_t type_code_of() {
  return reinterpret_cast<std::uintptr_t>(&TypeTag<T>::tag);
}

/// A message payload: small payloads live inline (no heap allocation — the
/// slot of a lock-free channel carries the bytes), large copied payloads
/// live in a heap buffer, and moved payloads (isend_move) keep the sender's
/// own vector alive through a type-erased owner so the receiving side can
/// move it out again without ever copying the bytes.
class Payload {
 public:
  /// Largest payload carried inline in a channel slot.
  static constexpr std::size_t kInlineBytes = 256;

  Payload() = default;
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  Payload(Payload&& o) noexcept { steal(o); }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  ~Payload() { reset(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::byte* data() const {
    return ext_ != nullptr ? static_cast<const std::byte*>(ext_) : inline_;
  }
  /// True when the bytes ride inline in the containing slot (fast path).
  bool inlined() const { return owner_ == nullptr; }
  /// True when the payload owns a handed-off buffer (rendezvous path).
  bool owned() const { return owner_ != nullptr; }

  /// Copy \p bytes in: inline when small, one heap buffer otherwise.
  void assign(const void* src, std::size_t bytes) {
    reset();
    size_ = bytes;
    if (bytes == 0) return;
    if (bytes <= kInlineBytes) {
      std::memcpy(inline_, src, bytes);
      return;
    }
    auto* h = new std::vector<std::byte>(bytes);
    std::memcpy(h->data(), src, bytes);
    ext_ = h->data();
    owner_ = OwnerPtr(h, [](void* p) {
      delete static_cast<std::vector<std::byte>*>(p);
    });
  }

  /// Adopt \p v without copying: the vector's heap buffer becomes the
  /// payload and travels by pointer. \p v is left empty.
  template <typename T>
  void adopt(std::vector<T>&& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    reset();
    auto* h = new std::vector<T>(std::move(v));
    size_ = h->size() * sizeof(T);
    ext_ = h->data();
    owner_ = OwnerPtr(h, [](void* p) { delete static_cast<std::vector<T>*>(p); });
    type_code_ = type_code_of<T>();
  }

  /// Move an adopted buffer of matching element type out into \p dst (the
  /// zero-copy completion of a rendezvous handoff). False when the payload
  /// was not handed off as a vector<T> — the caller copies instead.
  template <typename T>
  bool try_move_out(std::vector<T>& dst) {
    if (owner_ == nullptr || type_code_ != type_code_of<T>()) return false;
    dst = std::move(*static_cast<std::vector<T>*>(owner_.get()));
    reset();
    return true;
  }

 private:
  using OwnerPtr = std::unique_ptr<void, void (*)(void*)>;

  void reset() {
    owner_.reset();
    ext_ = nullptr;
    size_ = 0;
    type_code_ = 0;
  }
  void steal(Payload& o) {
    size_ = o.size_;
    type_code_ = o.type_code_;
    ext_ = o.ext_;
    owner_ = std::move(o.owner_);
    if (ext_ == nullptr && size_ > 0) std::memcpy(inline_, o.inline_, size_);
    o.ext_ = nullptr;
    o.size_ = 0;
    o.type_code_ = 0;
  }

  std::size_t size_ = 0;
  std::uintptr_t type_code_ = 0;  ///< nonzero iff owner_ is a vector<T>
  void* ext_ = nullptr;           ///< heap bytes, or nullptr for inline
  OwnerPtr owner_{nullptr, [](void*) {}};
  alignas(std::max_align_t) std::byte inline_[kInlineBytes];
};

struct Message {
  int comm_id = 0;
  int src_global = 0;
  int tag = 0;
  Payload payload;
  /// Per-channel FIFO sequence (merges the ring and spill lanes).
  std::uint64_t channel_seq = 0;
  // --- verify piggyback (filled only when the verifier is enabled) ---
  /// Sender's vector clock at send time (wildcard-race detection).
  std::vector<std::uint32_t> vclock;
  /// Global send serial (exactly-once audit reporting); 0 = unstamped.
  std::uint64_t verify_seq = 0;
  /// Collective-entry signature hash; 0 = not a checked collective round.
  std::uint64_t coll_hash = 0;
  /// Decoded signature behind coll_hash, for the mismatch diagnostic.
  verify::CollDesc coll;
};

/// Ring capacity (messages) of one directed channel; bursts beyond it take
/// the unbounded spill lane, so senders never block (buffered semantics).
inline constexpr std::size_t kChannelRingSlots = 64;

/// One directed rank pair's lock-free lane: the generic ring + spill +
/// sequence-merge shape from spsc.hpp instantiated for the runtime's
/// Message. The same template is instantiated with the model-checker policy
/// in tests/mc, so the exact merge logic running here is the one verified
/// exhaustively over interleavings.
using Channel = SpscChannel<Message, kChannelRingSlots>;

/// Per-rank arrival state. Owner-thread-only: messages are drained from the
/// rank's inbound channels into this queue, where the matching engine
/// consumes them — no lock anywhere.
struct Inbox {
  std::deque<Message> arrivals;
};

/// State behind a Request handle. Owned (via shared_ptr) by the handle and,
/// while pending, by the posting rank's pending-receive list. All access is
/// from the posting rank's thread only.
struct RequestState {
  bool done = false;
  // --- matching (receives only) ---
  int comm_id = 0;
  int want_src_global = -1;  ///< global rank, or -1 for kAnySource
  int tag = kAnyTag;
  const std::vector<int>* members = nullptr;  ///< posting comm's rank map
  // --- delivery: either a raw destination buffer or a sink callback ---
  void* buffer = nullptr;
  std::size_t max_bytes = 0;
  std::function<void(Message&)> sink;  ///< used by vector/internal receives
  RecvStatus status;                   ///< filled at completion
  // --- verify bookkeeping ---
  int owner_global = -1;               ///< global rank that posted this
  bool verify_reported = false;        ///< audit already flagged this state
  /// Run verifier, for ~Request abandonment detection. Valid only while the
  /// run's Context is alive (requests must not outlive par::run, as with
  /// MPI_Finalize).
  verify::Verifier* verifier = nullptr;
};

struct Context {
  explicit Context(int nranks)
      : nranks(nranks),
        channels(static_cast<std::size_t>(nranks) *
                 static_cast<std::size_t>(nranks)),
        inboxes(static_cast<std::size_t>(nranks)),
        pending(nranks),
        verifier(nranks) {}

  Channel& channel(int src_global, int dst_global) {
    return channels[static_cast<std::size_t>(dst_global) *
                        static_cast<std::size_t>(nranks) +
                    static_cast<std::size_t>(src_global)];
  }

  const int nranks;
  /// Directed channels, dst-major so one rank's inbound lanes are adjacent.
  std::vector<Channel> channels;
  std::vector<Inbox> inboxes;  ///< per-rank arrivals
  /// Pending nonblocking receives per global rank, in posting order.
  /// Touched only by the owning rank's thread.
  std::vector<std::vector<std::shared_ptr<RequestState>>> pending;
  std::mutex comm_id_mutex;
  int next_comm_id = 1;
  /// Shared MPI-semantics checker (kOff by default: one branch per hook).
  verify::Verifier verifier;
};

/// Element-wise combine for the typed reduction collectives.
template <typename T>
void combine(void* acc_v, const void* in_v, std::size_t count, ReduceOp op) {
  T* acc = static_cast<T*>(acc_v);
  const T* in = static_cast<const T*>(in_v);
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i)
        acc[i] = in[i] < acc[i] ? in[i] : acc[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i)
        acc[i] = acc[i] < in[i] ? in[i] : acc[i];
      break;
  }
}

using CombineFn = void (*)(void*, const void*, std::size_t, ReduceOp);

// Telemetry hooks for the payload path (defined in comm.cpp so templated
// delivery code in this header stays free of the telemetry dependency).
void note_payload_copy(std::size_t bytes);
void note_zero_copy_recv();

/// Deliver \p p into \p v: move the buffer out when the sender handed it
/// off as the same element type (zero-copy), else resize-and-copy.
template <typename T>
void payload_to_vec(Payload& p, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (p.try_move_out(v)) {
    note_zero_copy_recv();
    return;
  }
  FOAM_REQUIRE(p.size() % sizeof(T) == 0,
               "recv_vec size " << p.size() << " not multiple of "
                                << sizeof(T));
  v.resize(p.size() / sizeof(T));
  if (!v.empty()) {
    std::memcpy(v.data(), p.data(), p.size());
    note_payload_copy(p.size());
  }
}

}  // namespace detail

/// Handle for an in-flight nonblocking operation (MPI_Request analogue).
/// Value-semantic; a default-constructed Request is null (wait/test on it
/// are no-ops). Completion via Comm::wait/test/waitall/waitany releases the
/// handle back to null.
class Request {
 public:
  Request() = default;
  Request(const Request&) = default;
  Request(Request&&) = default;
  Request& operator=(const Request&) = default;
  Request& operator=(Request&&) = default;
  /// Flags dropping the last user handle of a still-pending receive to the
  /// verifier (the irecv buffer can no longer be completed or safely
  /// released); out of line so the hook sees the shared state.
  ~Request();
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// A communicator: an ordered group of ranks with a private message space.
/// Each rank owns one Comm object per communicator it belongs to.
class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  /// Runs the teardown message audit when verification is on (unmatched
  /// inbound messages and never-completed pending receives of this
  /// communicator on this rank); never throws.
  ~Comm();

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }

  // --- semantics verification -------------------------------------------

  /// Install verification options for the whole run (collective: every
  /// rank of this communicator calls with identical values; returns after
  /// a barrier, so the new mode is in force on every rank).
  void set_verify(const CommVerifyOptions& opts);

  /// Collective quiescence audit: barrier, then each rank drains its
  /// inbound channels and checks that they hold no unmatched user messages
  /// and that it has no pending incomplete receives (with buffered sends,
  /// everything ever sent before the barrier has already been published to
  /// its destination, so leftovers are real). Returns the global number of
  /// new findings (allreduce). In strict mode throws on every rank when
  /// that number is non-zero. No-op returning 0 when verification is off.
  std::size_t verify_quiescent();

  /// The run's shared checker (finding counts for drivers and tests).
  const verify::Verifier& verifier() const { return ctx_->verifier; }

  /// Park this rank in a wait that can never complete, for up to
  /// \p max_seconds (fault injection: a wedged node). The wait registers in
  /// the deadlock detector's wait-for table with no releasable specs, so
  /// once the stall outlives the detector's timeout the run aborts with a
  /// diagnostic naming this rank. Wakes early (and throws the sympathetic
  /// AbortError) when another rank aborts the run; simply returns after
  /// \p max_seconds when nothing noticed (verification off).
  void stall(double max_seconds, const char* what = "injected stall");

  // --- point-to-point ---------------------------------------------------

  /// Buffered send of raw bytes.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);

  /// Blocking receive. Returns the matched message's payload size; the
  /// payload is copied into \p data (capacity \p max_bytes). Throws if the
  /// message is larger than the buffer (truncation is always a bug here).
  RecvStatus recv_bytes(int src, int tag, void* data, std::size_t max_bytes);

  /// Typed send/recv for trivially copyable values.
  template <typename T>
  void send(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, &value, sizeof(T));
  }
  template <typename T>
  RecvStatus recv(int src, int tag, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(src, tag, &value, sizeof(T));
  }

  /// Vector send/recv; the receive resizes to the incoming length. When
  /// the sender used isend_move with the same element type, the receive is
  /// a zero-copy buffer move-out.
  template <typename T>
  void send_vec(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  RecvStatus recv_vec(int src, int tag, std::vector<T>& v);

  // --- nonblocking point-to-point ---------------------------------------

  /// Nonblocking buffered send: the payload is copied out at post time, so
  /// the request is born complete and \p data may be reused immediately.
  /// Returned for API symmetry with irecv (wait/waitall accept it).
  Request isend_bytes(int dst, int tag, const void* data, std::size_t bytes);

  /// Zero-copy send (rendezvous handoff): the vector's heap buffer is
  /// handed to the runtime by pointer — no payload memcpy — and \p v is
  /// left empty. The buffer now belongs to the runtime and then to the
  /// receiver; the sender must hold no aliases into it. Completes locally
  /// like isend (the request is born complete). Pair with recv_vec /
  /// irecv_vec of the same element type for a fully zero-copy transfer.
  template <typename T>
  Request isend_move(int dst, int tag, std::vector<T>&& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::Message msg;
    msg.payload.adopt(std::move(v));
    return isend_adopted(dst, tag, std::move(msg));
  }

  /// Post a receive into \p data (capacity \p max_bytes); \p src may be
  /// kAnySource and \p tag kAnyTag. The buffer must stay alive until the
  /// request completes. Overflow throws from wait/test, as with recv_bytes.
  Request irecv_bytes(int src, int tag, void* data, std::size_t max_bytes);

  template <typename T>
  Request isend(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(dst, tag, &value, sizeof(T));
  }
  template <typename T>
  Request irecv(int src, int tag, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(src, tag, &value, sizeof(T));
  }

  template <typename T>
  Request isend_vec(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(dst, tag, v.data(), v.size() * sizeof(T));
  }
  /// Post a receive that resizes \p v to the incoming length at completion
  /// (or moves the sender's buffer in, when it was handed off with
  /// isend_move of the same element type). The vector must stay alive (and
  /// must not be resized by the caller) until the request completes.
  template <typename T>
  Request irecv_vec(int src, int tag, std::vector<T>& v);

  /// Block until \p r completes; returns the receive status (zeros for a
  /// send request) and nulls the handle. A null request returns zeros.
  RecvStatus wait(Request& r);

  /// Nonblocking completion check: true (and the handle is nulled, status
  /// stored if \p st) if complete. A null request tests true.
  bool test(Request& r, RecvStatus* st = nullptr);

  /// Wait for every request; completion is by message arrival order, so
  /// out-of-order arrivals complete fine. Null entries are skipped.
  void waitall(std::span<Request> rs);

  /// Wait until any request completes; returns its index (the handle is
  /// nulled, status stored if \p st), or -1 if every entry is null.
  /// Fairness: when several requests are ready, the scan starts one past
  /// the previously returned index (round-robin over the span), so a
  /// caller that re-arms completed slots under sustained traffic cannot
  /// starve high-index requests.
  int waitany(std::span<Request> rs, RecvStatus* st = nullptr);

  // --- collectives ------------------------------------------------------

  void barrier();

  /// Broadcast \p bytes from \p root to all ranks.
  void bcast_bytes(void* data, std::size_t bytes, int root);
  template <typename T>
  void bcast(T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(&value, sizeof(T), root);
  }
  template <typename T>
  void bcast_vec(std::vector<T>& v, int root);

  /// Element-wise typed reduction of equal-length spans to \p root (rank
  /// order combination: deterministic, bitwise-reproducible sums).
  template <typename T>
    requires std::is_arithmetic_v<T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
              int root) {
    FOAM_REQUIRE(in.size() == out.size(), "reduce span sizes "
                                              << in.size() << " vs "
                                              << out.size());
    reduce_impl(in.data(), out.data(), sizeof(T), in.size(),
                &detail::combine<T>, op, root);
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
    reduce(in, out, op, 0);
    bcast_bytes(out.data(), out.size() * sizeof(T), 0);
  }
  /// Scalar allreduce over any arithmetic type (exact for integers).
  template <typename T>
    requires std::is_arithmetic_v<T>
  T allreduce_scalar(T v, ReduceOp op) {
    T out{};
    allreduce(std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Gather equal-size blocks to root: root receives size()*count values.
  void gather(const double* in, std::size_t count, double* out, int root);
  /// Scatter equal-size blocks from root: rank r receives block r of
  /// root's size()*count values.
  void scatter(const double* in, std::size_t count, double* out, int root);
  void allgather(const double* in, std::size_t count, double* out);

  /// Variable-size gather of doubles; only root's \p out is filled, blocks
  /// concatenated in rank order. counts must agree across ranks.
  void gatherv(const std::vector<double>& in, std::vector<double>& out,
               const std::vector<int>& counts, int root);

  /// All-to-all of equal blocks: rank r's block s (count values each) goes
  /// to rank s's slot r. This is the transpose primitive of the parallel
  /// spectral transform.
  void alltoall(const double* in, double* out, std::size_t count_per_rank);

  /// Split into sub-communicators by color (ranks with equal color join the
  /// same new communicator, ordered by key then by parent rank). Every rank
  /// of this communicator must call split. Color < 0 returns nullptr (the
  /// rank joins no sub-communicator).
  std::unique_ptr<Comm> split(int color, int key);

  /// Global (world) rank hosting communicator rank \p r; used by the
  /// instrumentation to label timeline rows consistently across splits.
  int global_rank_of(int r) const {
    FOAM_REQUIRE(r >= 0 && r < size(), "rank " << r);
    return members_[r];
  }

 private:
  friend void run(int, const std::function<void(Comm&)>&);
  Comm(detail::Context* ctx, int comm_id, std::vector<int> members, int rank)
      : ctx_(ctx), comm_id_(comm_id), members_(std::move(members)),
        rank_(rank) {}

  int local_rank_of_global(int g) const;
  void send_internal(int dst, int tag, const void* data, std::size_t bytes);
  detail::Message recv_internal(int src, int tag);

  /// Stamp, verify-annotate and publish \p msg to \p dst's channel. The
  /// one funnel every send takes.
  void post_message(int dst, int tag, detail::Message&& msg);
  /// isend_move back half (transport + telemetry, out of the template).
  Request isend_adopted(int dst, int tag, detail::Message&& msg);

  /// Receive one collective-round message from \p src and require its
  /// payload to be exactly \p bytes long (\p what labels the diagnostic).
  /// The shared front half of every collective's gather/scatter loop.
  detail::Message recv_coll_sized(int src, std::size_t bytes,
                                  const char* what);
  /// recv_coll_sized plus the copy-out into \p dst — the shared back half
  /// of the gather/scatter/bcast/alltoall delivery loops.
  void recv_coll_into(int src, void* dst, std::size_t bytes,
                      const char* what);

  /// Build a pending-receive state (matching fields validated/translated).
  std::shared_ptr<detail::RequestState> make_recv_state(int src, int tag);
  /// Append to this rank's pending list (posting order = matching order).
  void post_recv_state(const std::shared_ptr<detail::RequestState>& rs);
  /// Block until \p rs completes (drives matching against the inbox).
  /// \p what labels the wait in deadlock diagnostics.
  void wait_state(detail::RequestState& rs, const char* what = "wait");

  void reduce_impl(const void* in, void* out, std::size_t elem_bytes,
                   std::size_t count, detail::CombineFn combine, ReduceOp op,
                   int root);

  /// RAII collective-entry scope: assigns the entry its per-communicator
  /// sequence number and, while in scope, makes send_internal stamp the
  /// collective's internal messages with the signature and recv_internal
  /// check received signatures against it.
  struct CollScope {
    CollScope(Comm& comm, verify::CollKind kind, int root,
              std::uint64_t count, std::uint32_t elem, int op = -1);
    ~CollScope();
    CollScope(const CollScope&) = delete;
    CollScope& operator=(const CollScope&) = delete;

    Comm& comm;
    verify::CollDesc desc;
    const verify::CollDesc* prev;
  };

  detail::Context* ctx_ = nullptr;
  int comm_id_ = 0;
  std::vector<int> members_;  // global rank of each communicator rank
  int rank_ = 0;              // this rank within the communicator
  /// Collective entries made through this communicator object (every rank
  /// counts its own; the counts agree exactly when entry is consistent —
  /// that agreement is what the collective check verifies).
  std::uint64_t coll_seq_ = 0;
  const verify::CollDesc* active_coll_ = nullptr;  // set by CollScope
  /// waitany round-robin cursor: the scan for a completed request starts
  /// one past the last returned index, so repeated waitany over a re-armed
  /// span services every slot instead of always favouring index 0.
  std::size_t waitany_next_ = 0;
};

/// Launch an SPMD computation with \p nranks ranks. Each rank runs \p fn on
/// its own thread with its world communicator. Exceptions thrown by any rank
/// are collected; the first (by rank) is rethrown after all threads join.
void run(int nranks, const std::function<void(Comm&)>& fn);

// --- template bodies ----------------------------------------------------

template <typename T>
RecvStatus Comm::recv_vec(int src, int tag, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::Message msg = recv_internal(src, tag);
  RecvStatus st;
  st.source = local_rank_of_global(msg.src_global);
  st.tag = msg.tag;
  st.bytes = msg.payload.size();
  detail::payload_to_vec(msg.payload, v);
  return st;
}

template <typename T>
Request Comm::irecv_vec(int src, int tag, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  FOAM_REQUIRE(tag == kAnyTag || (tag >= 0 && tag <= kMaxUserTag),
               "user tag " << tag);
  auto rs = make_recv_state(src, tag);
  std::vector<T>* dst = &v;
  rs->sink = [dst](detail::Message& msg) {
    detail::payload_to_vec(msg.payload, *dst);
  };
  post_recv_state(rs);
  return Request(std::move(rs));
}

template <typename T>
void Comm::bcast_vec(std::vector<T>& v, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::size_t n = v.size();
  bcast_bytes(&n, sizeof(n), root);
  v.resize(n);
  if (n > 0) bcast_bytes(v.data(), n * sizeof(T), root);
}

}  // namespace foam::par
