#include "par/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>

#include "base/logging.hpp"
#include "telemetry/observe.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::par {

namespace {

/// Reserved tags for runtime-internal traffic.
constexpr int kCollTag = kMaxUserTag + 1;   // collectives
constexpr int kSplitTag = kMaxUserTag + 2;  // communicator split bookkeeping

/// Set when any rank throws; blocked receives abort instead of deadlocking.
std::atomic<bool> g_abort{false};

/// Thrown by ranks released because *another* rank failed. run() prefers
/// rethrowing the root-cause exception over these sympathetic aborts.
struct AbortError : Error {
  using Error::Error;
};

/// One PAUSE-class instruction: tells the core this is a spin-wait (saves
/// power, yields pipeline slots to the sibling hyperthread).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Backoff policy between matching attempts of a lock-free blocking wait:
/// spin briefly (latency-critical window), then yield (oversubscribed
/// hosts), then sleep in slices that double up to 1 ms — bounded so abort
/// propagation and the deadlock detector stay responsive — polling the
/// detector roughly every 50 ms.
class SpinWaiter {
 public:
  void step(verify::Verifier* v, int me_global) {
    ++iter_;
    if (iter_ <= kSpins) {
      // Pausing only helps when the producer can run concurrently; on a
      // single-CPU host it just burns the timeslice the sender needs, so
      // skip straight to yielding there.
      if (!single_cpu()) {
        cpu_relax();
        return;
      }
      std::this_thread::yield();
      return;
    }
    if (iter_ <= kSpins + kYields) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    if (v != nullptr) {
      slept_us_ += sleep_us_;
      if (slept_us_ >= kPollEveryUs) {
        slept_us_ = 0;
        v->poll_deadlock(me_global);
      }
    }
    sleep_us_ = std::min(sleep_us_ * 2, kMaxSleepUs);
  }

 private:
  static bool single_cpu() {
    static const bool s = std::thread::hardware_concurrency() <= 1;
    return s;
  }

  static constexpr unsigned kSpins = 64;
  static constexpr unsigned kYields = 192;
  static constexpr int kMaxSleepUs = 1000;
  static constexpr long kPollEveryUs = 50 * 1000;

  unsigned iter_ = 0;
  int sleep_us_ = 50;
  long slept_us_ = 0;
};

/// The run's checker when it should observe events, else nullptr. One
/// relaxed atomic load on the kOff fast path.
verify::Verifier* active_verifier(detail::Context* ctx) {
  verify::Verifier& v = ctx->verifier;
  return v.enabled() && !v.suppressed() ? &v : nullptr;
}

void check_abort(detail::Context* ctx) {
  // mo: poll of a standalone abort latch — a late observation only delays
  // the unwind by one poll; the thrown AbortError carries no payload.
  if (g_abort.load(std::memory_order_relaxed)) {
    // Stack unwinding on this rank now tears down comms and requests in
    // arbitrary mid-operation states; none of that is evidence.
    ctx->verifier.suppress();
    throw AbortError("parallel run aborted by failure on another rank");
  }
}

int local_of(const std::vector<int>& members, int g) {
  for (std::size_t r = 0; r < members.size(); ++r)
    if (members[r] == g) return static_cast<int>(r);
  FOAM_REQUIRE(false, "global rank " << g << " not in communicator");
  return -1;
}

/// Move everything the peers have published into this rank's arrival queue.
/// Called only by the owning rank's thread; after it
/// returns, every message sent (with release ordering) before the caller's
/// last synchronization point is visible in the queue.
void drain_inbox(detail::Context* ctx, int me_global) {
  auto& arrivals = ctx->inboxes[me_global].arrivals;
  for (int src = 0; src < ctx->nranks; ++src) {
    detail::Channel& ch = ctx->channel(src, me_global);
    detail::Message m;
    while (ch.pop_next(m)) arrivals.push_back(std::move(m));
  }
}

bool matches(const detail::RequestState& rs, const detail::Message& m) {
  if (m.comm_id != rs.comm_id) return false;
  if (rs.want_src_global != -1 && m.src_global != rs.want_src_global)
    return false;
  // A wildcard tag matches user traffic only: runtime-internal messages
  // (collective rounds, split bookkeeping) are never up for grabs.
  if (rs.tag == kAnyTag) return m.tag <= kMaxUserTag;
  return m.tag == rs.tag;
}

/// Complete \p rs with \p msg. Runs on the posting rank's thread. \p v (may
/// be null) merges the message's vector clock into rank \p me_global's.
void deliver(detail::RequestState& rs, detail::Message& msg,
             verify::Verifier* v, int me_global) {
  if (telemetry::Telemetry* tel = telemetry::current())
    tel->comm().on_recv(msg.src_global, msg.tag > kMaxUserTag,
                        msg.payload.size());
  if (v != nullptr) v->on_deliver(me_global, msg);
  if (rs.sink) {
    rs.sink(msg);
  } else {
    FOAM_REQUIRE(msg.payload.size() <= rs.max_bytes,
                 "message of " << msg.payload.size()
                               << " bytes overflows buffer of "
                               << rs.max_bytes);
    if (!msg.payload.empty()) {
      std::memcpy(rs.buffer, msg.payload.data(), msg.payload.size());
      detail::note_payload_copy(msg.payload.size());
    }
  }
  rs.status.source = local_of(*rs.members, msg.src_global);
  rs.status.tag = msg.tag;
  rs.status.bytes = msg.payload.size();
  rs.done = true;
}

/// The matching engine: walk pending receives in posting order; each takes
/// the earliest queued message of its match class (MPI matching semantics —
/// FIFO within a class, posting order across overlapping wildcard classes).
/// \p queue is the owning rank's arrival queue; like the pending list it is
/// owner-thread-only once drained, so no lock is needed.
void progress(std::deque<detail::Message>& queue,
              std::vector<std::shared_ptr<detail::RequestState>>& pend,
              verify::Verifier* v, int me_global) {
  for (auto pit = pend.begin(); pit != pend.end();) {
    detail::RequestState& rs = **pit;
    auto mit = std::find_if(
        queue.begin(), queue.end(),
        [&rs](const detail::Message& m) { return matches(rs, m); });
    if (mit == queue.end()) {
      ++pit;
      continue;
    }
    // Wildcard-race check: if another queued message was also eligible for
    // this wildcard receive, the match is an arbitration; the verifier
    // flags it unless the vector clocks order the two sends.
    if (v != nullptr && (rs.want_src_global == -1 || rs.tag == kAnyTag)) {
      for (auto oit = queue.begin(); oit != queue.end(); ++oit) {
        if (oit == mit || !matches(rs, *oit)) continue;
        if (v->check_wildcard_pair(me_global, rs, *mit, *oit)) break;
      }
    }
    deliver(rs, *mit, v, me_global);
    queue.erase(mit);
    pit = pend.erase(pit);
  }
}

/// RAII wait-for-graph registration around a blocking wait.
class WaitGuard {
 public:
  WaitGuard(verify::Verifier* v, int me_global, const char* what,
            std::vector<verify::WaitSpec> specs)
      : v_(v), me_(me_global) {
    if (v_ != nullptr) v_->enter_wait(me_, what, std::move(specs));
  }
  ~WaitGuard() {
    if (v_ != nullptr) v_->leave_wait(me_);
  }
  WaitGuard(const WaitGuard&) = delete;
  WaitGuard& operator=(const WaitGuard&) = delete;

 private:
  verify::Verifier* v_;
  int me_;
};

verify::WaitSpec spec_of(const detail::RequestState& rs) {
  return {rs.comm_id, rs.want_src_global, rs.tag, rs.members};
}

}  // namespace

namespace detail {

void note_payload_copy(std::size_t bytes) {
  if (telemetry::Telemetry* tel = telemetry::current())
    tel->comm().payload_memcpy_bytes += bytes;
}

void note_zero_copy_recv() {
  if (telemetry::Telemetry* tel = telemetry::current())
    ++tel->comm().zero_copy_recvs;
}

}  // namespace detail

Request::~Request() {
  // use_count == 2 means this handle plus the pending list: the user is
  // dropping the only way to ever complete (or safely release the buffer
  // of) a still-pending receive. Copies of the handle keep the count above
  // 2 until the last one goes.
  if (state_ != nullptr && !state_->done && state_->verifier != nullptr &&
      state_.use_count() == 2)
    state_->verifier->on_abandoned_request(*state_);
}

Comm::~Comm() {
  if (ctx_ == nullptr) return;
  verify::Verifier* v = active_verifier(ctx_);
  if (v == nullptr) return;
  // Teardown audit of this communicator's state on this rank. Must not
  // throw: findings recorded while unwinding or in scope exit cannot be
  // allowed to terminate the process (strict escalation happened at
  // detection time). But "must not throw" is not "must not be seen": a
  // swallowed audit error is logged and counted in comm.teardown_errors so
  // a real fault in the teardown path stops disappearing. Anything that is
  // not a std::exception falls through to std::terminate — this destructor
  // is noexcept, and an unknown foreign exception here has no sane
  // recovery.
  try {
    const int me = members_[rank_];
    auto& pend = ctx_->pending[me];
    drain_inbox(ctx_, me);
    auto& arrivals = ctx_->inboxes[me].arrivals;
    progress(arrivals, pend, v, me);
    v->audit(me, "communicator teardown", comm_id_, arrivals, pend);
  } catch (const std::exception& e) {
    if (telemetry::Telemetry* tel = telemetry::current())
      tel->metrics().counter("comm.teardown_errors").add();
    FOAM_LOG_ERROR << "comm: teardown audit of communicator " << comm_id_
                   << " failed on rank " << rank_ << ": " << e.what();
  }
}

void Comm::set_verify(const CommVerifyOptions& opts) {
  ctx_->verifier.configure(opts);
  barrier();  // nobody proceeds until every rank observes the new mode
}

std::size_t Comm::verify_quiescent() {
  verify::Verifier& v = ctx_->verifier;
  if (!v.enabled()) return 0;
  barrier();
  // Sends are buffered (published to the destination at post), so after the
  // barrier every message any rank will ever have sent before this point is
  // already in its destination's channels: whatever progress()
  // cannot match after a drain is a genuine leftover.
  const int me = members_[rank_];
  auto& pend = ctx_->pending[me];
  drain_inbox(ctx_, me);
  auto& arrivals = ctx_->inboxes[me].arrivals;
  progress(arrivals, pend, active_verifier(ctx_), me);
  const std::size_t fresh =
      v.audit(me, "verify_quiescent", /*comm_id_filter=*/-1, arrivals, pend);
  const auto total = allreduce_scalar<long long>(
      static_cast<long long>(fresh), ReduceOp::kSum);
  if (total > 0 && v.mode() == VerifyMode::kStrict)
    throw Error("verify_quiescent: " + std::to_string(total) +
                " finding(s) across the run (see the per-rank diagnostics)");
  return static_cast<std::size_t>(total);
}

void Comm::stall(double max_seconds, const char* what) {
  const int me = members_[rank_];
  telemetry::observe_comm_op(what);
  verify::Verifier* v = active_verifier(ctx_);
  // Empty spec list: the deadlock detector treats this rank as blocked in a
  // wait nothing can release, so it anchors a definitely-deadlocked set as
  // soon as the stall outlives the detector's timeout. Messages meanwhile
  // pile up unread in this rank's channels — exactly a wedged node.
  WaitGuard guard(v, me, what, {});
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    check_abort(ctx_);
    if (v != nullptr) v->poll_deadlock(me);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (waited >= max_seconds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Comm::CollScope::CollScope(Comm& c, verify::CollKind kind, int root,
                           std::uint64_t count, std::uint32_t elem, int op)
    : comm(c), prev(c.active_coll_) {
  desc.kind = static_cast<std::int32_t>(kind);
  desc.root = root;
  desc.count = count;
  desc.elem = elem;
  desc.op = op;
  desc.seq = ++c.coll_seq_;  // counted even when off: toggle-consistent
  desc.comm_id = c.comm_id_;
  c.active_coll_ = &desc;
}

Comm::CollScope::~CollScope() { comm.active_coll_ = prev; }

int Comm::local_rank_of_global(int g) const {
  return local_of(members_, g);
}

void Comm::post_message(int dst, int tag, detail::Message&& msg) {
  FOAM_REQUIRE(dst >= 0 && dst < size(), "send to rank " << dst << " of "
                                                         << size());
  check_abort(ctx_);
  msg.comm_id = comm_id_;
  msg.src_global = members_[rank_];
  msg.tag = tag;
  const std::size_t bytes = msg.payload.size();
  if (verify::Verifier* v = active_verifier(ctx_)) {
    if (active_coll_ != nullptr && tag > kMaxUserTag) {
      msg.coll = *active_coll_;
      msg.coll_hash = msg.coll.hash();
    }
    v->on_send(members_[rank_], msg);
  }
  const int dst_global = members_[dst];
  detail::Channel& ch = ctx_->channel(members_[rank_], dst_global);
  ch.push(std::move(msg));
  if (telemetry::Telemetry* tel = telemetry::current())
    tel->comm().on_send(dst_global, tag > kMaxUserTag, bytes,
                        ch.depth_estimate());
}

void Comm::send_internal(int dst, int tag, const void* data,
                         std::size_t bytes) {
  detail::Message msg;
  msg.payload.assign(data, bytes);
  if (telemetry::Telemetry* tel = telemetry::current()) {
    if (msg.payload.inlined())
      ++tel->comm().fastpath_msgs;
    else
      tel->comm().payload_memcpy_bytes += bytes;
  }
  post_message(dst, tag, std::move(msg));
}

Request Comm::isend_adopted(int dst, int tag, detail::Message&& msg) {
  FOAM_REQUIRE(tag >= 0 && tag <= kMaxUserTag, "user tag " << tag);
  const std::size_t bytes = msg.payload.size();
  if (telemetry::Telemetry* tel = telemetry::current())
    ++tel->comm().zero_copy_handoffs;
  post_message(dst, tag, std::move(msg));
  // Ownership handoff completes locally just like a buffered send.
  auto rs = std::make_shared<detail::RequestState>();
  rs->done = true;
  rs->status.tag = tag;
  rs->status.bytes = bytes;
  return Request(std::move(rs));
}

std::shared_ptr<detail::RequestState> Comm::make_recv_state(int src,
                                                            int tag) {
  FOAM_REQUIRE(src == kAnySource || (src >= 0 && src < size()),
               "recv from rank " << src);
  auto rs = std::make_shared<detail::RequestState>();
  rs->comm_id = comm_id_;
  rs->want_src_global = (src == kAnySource) ? -1 : members_[src];
  rs->tag = tag;
  rs->members = &members_;
  rs->owner_global = members_[rank_];
  rs->verifier = &ctx_->verifier;
  return rs;
}

void Comm::post_recv_state(
    const std::shared_ptr<detail::RequestState>& rs) {
  // Posting order is matching priority; the list is owner-thread-only.
  ctx_->pending[members_[rank_]].push_back(rs);
}

void Comm::wait_state(detail::RequestState& rs, const char* what) {
  const int me = members_[rank_];
  auto& pend = ctx_->pending[me];
  // RAII wait marker: while this frame is live the rank is parked in a
  // tracked wait, so the watchdog blames whoever it is waiting for.
  const telemetry::ScopedCommWait obs_wait(what);
  telemetry::Telemetry* tel = telemetry::current();
  std::chrono::steady_clock::time_point t0;
  if (tel != nullptr) t0 = std::chrono::steady_clock::now();
  verify::Verifier* v = rs.done ? nullptr : active_verifier(ctx_);
  WaitGuard guard(v, me, what, v != nullptr
                                   ? std::vector<verify::WaitSpec>{spec_of(rs)}
                                   : std::vector<verify::WaitSpec>{});
  auto& arrivals = ctx_->inboxes[me].arrivals;
  SpinWaiter spin;
  for (;;) {
    check_abort(ctx_);
    drain_inbox(ctx_, me);
    if (tel != nullptr) tel->comm().on_mailbox_depth(arrivals.size());
    progress(arrivals, pend, active_verifier(ctx_), me);
    if (rs.done) break;
    spin.step(v, me);
  }
  if (tel != nullptr) {
    tel->comm().wait_seconds.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    ++tel->comm().requests_waited;
  }
}

detail::Message Comm::recv_internal(int src, int tag) {
  auto rs = make_recv_state(src, tag);
  detail::Message out;
  rs->sink = [&out](detail::Message& m) { out = std::move(m); };
  post_recv_state(rs);
  wait_state(*rs, active_coll_ != nullptr
                      ? verify::coll_kind_name(
                            static_cast<verify::CollKind>(active_coll_->kind))
                      : "recv");
  if (active_coll_ != nullptr && out.tag > kMaxUserTag)
    if (verify::Verifier* v = active_verifier(ctx_))
      v->check_collective(members_[rank_], *active_coll_, out);
  return out;
}

detail::Message Comm::recv_coll_sized(int src, std::size_t bytes,
                                      const char* what) {
  detail::Message msg = recv_internal(src, kCollTag);
  FOAM_REQUIRE(msg.payload.size() == bytes,
               what << " size mismatch from rank " << src << ": "
                    << msg.payload.size() << " vs " << bytes);
  return msg;
}

void Comm::recv_coll_into(int src, void* dst, std::size_t bytes,
                          const char* what) {
  detail::Message msg = recv_coll_sized(src, bytes, what);
  // The payload is exclusively ours here (the Message just came off the
  // wire), so this is the transfer's only copy; adopting raw destination
  // pointers is impossible, which is why collectives stop at one memcpy
  // while vector rendezvous (isend_move → recv_vec) reaches zero.
  if (bytes > 0) {
    std::memcpy(dst, msg.payload.data(), bytes);
    detail::note_payload_copy(bytes);
  }
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  FOAM_REQUIRE(tag >= 0 && tag <= kMaxUserTag, "user tag " << tag);
  send_internal(dst, tag, data, bytes);
}

RecvStatus Comm::recv_bytes(int src, int tag, void* data,
                            std::size_t max_bytes) {
  FOAM_REQUIRE(tag == kAnyTag || (tag >= 0 && tag <= kMaxUserTag),
               "user tag " << tag);
  auto rs = make_recv_state(src, tag);
  rs->buffer = data;
  rs->max_bytes = max_bytes;
  post_recv_state(rs);
  wait_state(*rs, "recv");
  return rs->status;
}

Request Comm::isend_bytes(int dst, int tag, const void* data,
                          std::size_t bytes) {
  FOAM_REQUIRE(tag >= 0 && tag <= kMaxUserTag, "user tag " << tag);
  // Buffered: the payload is published to the destination now, so the
  // request is born complete and the source buffer is immediately free.
  send_internal(dst, tag, data, bytes);
  auto rs = std::make_shared<detail::RequestState>();
  rs->done = true;
  rs->status.tag = tag;
  rs->status.bytes = bytes;
  return Request(std::move(rs));
}

Request Comm::irecv_bytes(int src, int tag, void* data,
                          std::size_t max_bytes) {
  FOAM_REQUIRE(tag == kAnyTag || (tag >= 0 && tag <= kMaxUserTag),
               "user tag " << tag);
  auto rs = make_recv_state(src, tag);
  rs->buffer = data;
  rs->max_bytes = max_bytes;
  post_recv_state(rs);
  return Request(std::move(rs));
}

RecvStatus Comm::wait(Request& r) {
  if (!r.state_) return RecvStatus{};
  wait_state(*r.state_);
  const RecvStatus st = r.state_->status;
  r.state_.reset();
  return st;
}

bool Comm::test(Request& r, RecvStatus* st) {
  if (!r.state_) return true;
  if (!r.state_->done) {
    const int me = members_[rank_];
    check_abort(ctx_);
    drain_inbox(ctx_, me);
    progress(ctx_->inboxes[me].arrivals, ctx_->pending[me],
             active_verifier(ctx_), me);
  }
  if (!r.state_->done) return false;
  if (st) *st = r.state_->status;
  r.state_.reset();
  return true;
}

void Comm::waitall(std::span<Request> rs) {
  for (Request& r : rs) wait(r);
}

int Comm::waitany(std::span<Request> rs, RecvStatus* st) {
  bool any = false;
  for (const Request& r : rs) any = any || r.valid();
  if (!any) return -1;
  const int me = members_[rank_];
  auto& pend = ctx_->pending[me];
  telemetry::Telemetry* tel = telemetry::current();
  std::chrono::steady_clock::time_point t0;
  if (tel != nullptr) t0 = std::chrono::steady_clock::now();
  verify::Verifier* v = active_verifier(ctx_);
  std::vector<verify::WaitSpec> specs;
  if (v != nullptr)
    for (const Request& r : rs)
      if (r.valid() && !r.state_->done) specs.push_back(spec_of(*r.state_));
  WaitGuard guard(v, me, "waitany", std::move(specs));
  const auto scan = [&]() -> int {
    // Round-robin fairness: start one past the previously returned index.
    // A scan that always began at 0 starved high-index requests whenever
    // the caller re-armed completed low-index slots under sustained
    // traffic (the low slot was ready again by the next call).
    for (std::size_t o = 0; o < rs.size(); ++o) {
      const std::size_t i = (waitany_next_ + o) % rs.size();
      if (!rs[i].valid() || !rs[i].state_->done) continue;
      if (st) *st = rs[i].state_->status;
      rs[i].state_.reset();
      waitany_next_ = i + 1;
      if (tel != nullptr) {
        tel->comm().wait_seconds.record(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
        ++tel->comm().requests_waited;
      }
      return static_cast<int>(i);
    }
    return -1;
  };
  auto& arrivals = ctx_->inboxes[me].arrivals;
  SpinWaiter spin;
  for (;;) {
    check_abort(ctx_);
    drain_inbox(ctx_, me);
    if (tel != nullptr) tel->comm().on_mailbox_depth(arrivals.size());
    progress(arrivals, pend, active_verifier(ctx_), me);
    const int i = scan();
    if (i >= 0) return i;
    spin.step(v, me);
  }
}

void Comm::barrier() {
  if (size() == 1) return;
  CollScope scope(*this, verify::CollKind::kBarrier, 0, 0, 0);
  const char token = 0;
  if (rank_ == 0) {
    // Receive from each rank specifically: per-source FIFO keeps successive
    // collective rounds from stealing each other's messages.
    telemetry::Telemetry* tel = telemetry::current();
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 1; r < size(); ++r) recv_internal(r, kCollTag);
    if (tel != nullptr)
      tel->comm().collective_skew_seconds.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    for (int r = 1; r < size(); ++r) send_internal(r, kCollTag, &token, 0);
  } else {
    send_internal(0, kCollTag, &token, 0);
    recv_internal(0, kCollTag);
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  FOAM_REQUIRE(root >= 0 && root < size(), "root " << root);
  if (size() == 1) return;
  CollScope scope(*this, verify::CollKind::kBcast, root, bytes, 1);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send_internal(r, kCollTag, data, bytes);
  } else {
    recv_coll_into(root, data, bytes, "bcast");
  }
}

void Comm::reduce_impl(const void* in, void* out, std::size_t elem_bytes,
                       std::size_t count, detail::CombineFn combine,
                       ReduceOp op, int root) {
  FOAM_REQUIRE(root >= 0 && root < size(), "root " << root);
  CollScope scope(*this, verify::CollKind::kReduce, root, count,
                  static_cast<std::uint32_t>(elem_bytes),
                  static_cast<int>(op));
  const std::size_t bytes = elem_bytes * count;
  if (rank_ == root) {
    // in == out is allowed (in-place reduction over the caller's storage).
    if (bytes > 0 && out != in) std::memcpy(out, in, bytes);
    // Receive in rank order: deterministic combination (bitwise-reproducible
    // sums) and no cross-round message mixing.
    telemetry::Telemetry* tel = telemetry::current();
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      detail::Message msg = recv_coll_sized(r, bytes, "reduce");
      combine(out, msg.payload.data(), count, op);
    }
    if (tel != nullptr)
      tel->comm().collective_skew_seconds.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
  } else {
    send_internal(root, kCollTag, in, bytes);
  }
}

void Comm::gather(const double* in, std::size_t count, double* out,
                  int root) {
  CollScope scope(*this, verify::CollKind::kGather, root, count,
                  sizeof(double));
  if (rank_ == root) {
    std::copy(in, in + count, out + static_cast<std::size_t>(root) * count);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_coll_into(r, out + static_cast<std::size_t>(r) * count,
                     count * sizeof(double), "gather");
    }
  } else {
    send_internal(root, kCollTag, in, count * sizeof(double));
  }
}

void Comm::scatter(const double* in, std::size_t count, double* out,
                   int root) {
  FOAM_REQUIRE(root >= 0 && root < size(), "root " << root);
  CollScope scope(*this, verify::CollKind::kScatter, root, count,
                  sizeof(double));
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        std::copy(in + static_cast<std::size_t>(r) * count,
                  in + static_cast<std::size_t>(r + 1) * count, out);
      } else {
        send_internal(r, kCollTag, in + static_cast<std::size_t>(r) * count,
                      count * sizeof(double));
      }
    }
  } else {
    recv_coll_into(root, out, count * sizeof(double), "scatter");
  }
}

void Comm::allgather(const double* in, std::size_t count, double* out) {
  gather(in, count, out, 0);
  bcast_bytes(out, static_cast<std::size_t>(size()) * count * sizeof(double),
              0);
}

void Comm::gatherv(const std::vector<double>& in, std::vector<double>& out,
                   const std::vector<int>& counts, int root) {
  FOAM_REQUIRE(static_cast<int>(counts.size()) == size(),
               "gatherv counts size " << counts.size());
  FOAM_REQUIRE(static_cast<int>(in.size()) == counts[rank_],
               "gatherv local size " << in.size() << " vs declared "
                                     << counts[rank_]);
  // The per-rank counts must agree across ranks; fold them into the
  // signature's count field so a disagreement shows up as a mismatch.
  std::uint64_t counts_hash = 1469598103934665603ULL;
  for (const int c : counts) {
    counts_hash ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(c));
    counts_hash *= 1099511628211ULL;
  }
  CollScope scope(*this, verify::CollKind::kGatherv, root, counts_hash,
                  sizeof(double));
  if (rank_ == root) {
    std::size_t total = 0;
    std::vector<std::size_t> offsets(size());
    for (int r = 0; r < size(); ++r) {
      offsets[r] = total;
      total += static_cast<std::size_t>(counts[r]);
    }
    out.resize(total);
    std::copy(in.begin(), in.end(), out.begin() + offsets[root]);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv_coll_into(r, out.data() + offsets[r],
                     static_cast<std::size_t>(counts[r]) * sizeof(double),
                     "gatherv");
    }
  } else {
    send_internal(root, kCollTag, in.data(), in.size() * sizeof(double));
  }
}

void Comm::alltoall(const double* in, double* out,
                    std::size_t count_per_rank) {
  CollScope scope(*this, verify::CollKind::kAlltoall, 0, count_per_rank,
                  sizeof(double));
  const std::size_t c = count_per_rank;
  // Local block first, then exchange with every peer.
  std::copy(in + static_cast<std::size_t>(rank_) * c,
            in + static_cast<std::size_t>(rank_ + 1) * c,
            out + static_cast<std::size_t>(rank_) * c);
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    send_internal(r, kCollTag, in + static_cast<std::size_t>(r) * c,
                  c * sizeof(double));
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    recv_coll_into(r, out + static_cast<std::size_t>(r) * c,
                   c * sizeof(double), "alltoall");
  }
}

std::unique_ptr<Comm> Comm::split(int color, int key) {
  // color/key legitimately differ per rank, so the signature carries only
  // the entry itself (kind + sequence + communicator).
  CollScope scope(*this, verify::CollKind::kSplit, 0, 0, 0);
  struct Entry {
    int color;
    int key;
    int parent_rank;
  };
  Entry mine{color, key, rank_};
  if (rank_ == 0) {
    std::vector<Entry> all(size());
    all[0] = mine;
    for (int r = 1; r < size(); ++r) {
      detail::Message msg = recv_internal(r, kSplitTag);
      FOAM_REQUIRE(msg.payload.size() == sizeof(Entry), "split size");
      Entry e;
      std::memcpy(&e, msg.payload.data(), sizeof(Entry));
      all[r] = e;
    }
    // Group by color; order within a group by (key, parent_rank).
    std::map<int, std::vector<Entry>> groups;
    for (const Entry& e : all)
      if (e.color >= 0) groups[e.color].push_back(e);
    std::map<int, std::pair<int, std::vector<int>>> by_color;  // id, members
    for (auto& [c, es] : groups) {
      std::sort(es.begin(), es.end(), [](const Entry& a, const Entry& b) {
        return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
      });
      int new_id = 0;
      {
        std::lock_guard<std::mutex> lock(ctx_->comm_id_mutex);
        new_id = ctx_->next_comm_id++;
      }
      std::vector<int> members;
      for (const Entry& e : es) members.push_back(members_[e.parent_rank]);
      by_color[c] = {new_id, std::move(members)};
    }
    // Reply to each rank with (new_id, nmembers, members...[global], my_rank)
    // encoded as int32s; new_id = -1 means "no sub-communicator".
    std::unique_ptr<Comm> result;
    for (int r = 0; r < size(); ++r) {
      const Entry& e = all[r];
      std::vector<int> reply;
      if (e.color < 0) {
        reply = {-1};
      } else {
        const auto& [id, members] = by_color[e.color];
        int my_new_rank = -1;
        for (std::size_t m = 0; m < members.size(); ++m)
          if (members[m] == members_[r]) my_new_rank = static_cast<int>(m);
        reply.push_back(id);
        reply.push_back(static_cast<int>(members.size()));
        reply.insert(reply.end(), members.begin(), members.end());
        reply.push_back(my_new_rank);
      }
      if (r == 0) {
        if (reply[0] >= 0) {
          std::vector<int> members(reply.begin() + 2,
                                   reply.begin() + 2 + reply[1]);
          result.reset(new Comm(ctx_, reply[0], members, reply.back()));
        }
      } else {
        send_internal(r, kSplitTag, reply.data(),
                      reply.size() * sizeof(int));
      }
    }
    return result;
  }
  send_internal(0, kSplitTag, &mine, sizeof(Entry));
  detail::Message msg = recv_internal(0, kSplitTag);
  std::vector<int> reply(msg.payload.size() / sizeof(int));
  std::memcpy(reply.data(), msg.payload.data(), msg.payload.size());
  if (reply[0] < 0) return nullptr;
  std::vector<int> members(reply.begin() + 2, reply.begin() + 2 + reply[1]);
  return std::unique_ptr<Comm>(
      new Comm(ctx_, reply[0], members, reply.back()));
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  FOAM_REQUIRE(nranks > 0, "nranks=" << nranks);
  // mo: single-threaded here (ranks not yet spawned; thread creation
  // orders this reset before any rank's polls).
  g_abort.store(false, std::memory_order_relaxed);
  detail::Context ctx(nranks);
  // Every run honors FOAM_PAR_VERIFY out of the box; drivers may override
  // through Comm::set_verify.
  ctx.verifier.configure(CommVerifyOptions::from_env());
  std::vector<int> world(nranks);
  for (int r = 0; r < nranks; ++r) world[r] = r;

  std::vector<std::exception_ptr> errors(nranks);
  std::vector<std::thread> threads;
  threads.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r]() {
      Comm comm(&ctx, /*comm_id=*/0, world, r);
      try {
        fn(comm);
      } catch (...) {
        // Catch-all by design (audited): this is a collector, not a
        // swallow — the exception is stored whole and rethrown from run()
        // after the join, so narrowing here would *lose* foreign
        // exception types instead of reporting them.
        ctx.verifier.suppress();
        errors[r] = std::current_exception();
        // Flight-recorder backstop for failures that escape without an
        // observer-attached frame; AbortError is sympathetic, not a cause.
        try {
          std::rethrow_exception(errors[r]);
        } catch (const AbortError&) {  // NOLINT(bugprone-empty-catch)
        } catch (const std::exception& e) {
          telemetry::observe_abort(e.what());
        } catch (...) {
          // Classifier fallback (audited): a non-std exception still gets
          // an abort record — nothing is dropped, only its what() is
          // unavailable.
          telemetry::observe_abort("unknown exception in rank " +
                                   std::to_string(r));
        }
        // mo: standalone latch; the unwinding it triggers carries no data
        // through it (see check_abort). Every blocked wait polls it.
        g_abort.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  // mo: single-threaded again — the joins above order every rank's stores
  // before these.
  const bool aborted = g_abort.load(std::memory_order_relaxed);
  // mo: see above.
  g_abort.store(false, std::memory_order_relaxed);
  if (aborted) {
    // Prefer the root cause: ranks released by another rank's failure
    // throw AbortError, which only wins when no rank has anything better.
    const auto is_sympathetic = [](const std::exception_ptr& e) {
      try {
        std::rethrow_exception(e);
      } catch (const AbortError&) {
        return true;
      } catch (...) {
        // Classifier (audited): "anything else" is precisely the intended
        // match — the exception stays owned by errors[] and is rethrown
        // below, so nothing is swallowed here.
        return false;
      }
    };
    std::exception_ptr chosen;
    for (int r = 0; r < nranks; ++r) {
      if (!errors[r]) continue;
      if (!chosen) chosen = errors[r];
      if (!is_sympathetic(errors[r])) {
        chosen = errors[r];
        break;
      }
    }
    if (chosen) std::rethrow_exception(chosen);
  }
}

}  // namespace foam::par
