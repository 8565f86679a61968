#pragma once

/// \file telemetry.hpp
/// Unified per-rank telemetry: hierarchical tracing + metrics session.
///
/// The paper's Fig. 2 splits each rank's day into regions (atmosphere/
/// coupler/ocean/idle/comm-wait). After the comm-overlap and batched-
/// spectral work, the interesting costs also live *inside* those regions:
/// per-stage transform time, per-message wait time, mailbox pressure. The
/// Tracer is the one record of both: region spans for the Fig. 2 split,
/// named spans nested inside them for the finer costs.
///
/// Model of operation:
///  * a Telemetry session (tracer + metrics registry + comm stats) is
///    installed per rank thread via ScopedSession; components reach it
///    through telemetry::current() and no-op when none is installed;
///  * region spans (begin_region/end_region) carry a par::Region class.
///    Each top-level region span adds its duration to the tracer's
///    per-region totals (region_totals()) when it ends, at every trace
///    level, so the Fig. 2 shares exist even at TraceLevel::kOff and no
///    ring overflow can lose them; the spans themselves are recorded at
///    TraceLevel::kRegions and above, and those are the Fig. 2 timelines;
///  * named spans (FOAM_TRACE_SCOPE("legendre_fold")) nest inside region
///    spans, inherit the innermost region class, and are recorded only at
///    TraceLevel::kFull;
///  * completed spans land in a bounded ring buffer (oldest overwritten,
///    drop count kept), so memory is fixed no matter how long the run is;
///  * a rank's trace serializes to a flat double stream (name table +
///    spans) for gathering with Comm::gatherv; chrome_trace.hpp merges the
///    gathered traces into one Perfetto-loadable timeline.
///
/// Tracer and session are strictly per-thread (one rank = one thread in
/// foam::par); nothing here takes a lock. The two concessions to cross-
/// thread observation are single relaxed atomics the observability
/// monitor thread reads while the owning rank keeps them current: the
/// packed "innermost open span" word (profile_leaf, one store per span
/// begin/end) and the liveness pulse (activity, one increment per
/// FOAM_TRACE_SCOPE entry at *every* trace level — so the watchdog sees
/// progress even when the production kRegions level records nothing
/// finer than one long region span).

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "par/timers.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slots.hpp"

namespace foam::telemetry {

/// How much the tracer records. kRegions is the production default: the
/// Fig. 2 regions as spans, nothing finer (< 2% overhead on the
/// coupled bench, gated by bench_time_allocation). kFull additionally
/// records every FOAM_TRACE_SCOPE span.
enum class TraceLevel : int { kOff = 0, kRegions = 1, kFull = 2 };

const char* trace_level_name(TraceLevel level);

/// Options for a telemetry session (ParallelRunOptions carries one).
struct TelemetryOptions {
  TraceLevel level = TraceLevel::kRegions;
  /// Ring capacity: completed spans kept per rank (oldest dropped first).
  std::size_t max_spans = 1 << 16;
  /// Read by nothing: the region totals and spans are always kept. The
  /// field stays only because the benchmark (foambench/) assigns it; the
  /// next change to the benchmark deletes it with those two assignments.
  bool record_flat = true;
};

/// One completed span. Times are seconds since the tracer epoch; depth is
/// the number of enclosing open spans when this one was recorded (0 =
/// top-level region span).
struct SpanRec {
  std::int32_t name_id = 0;
  par::Region region = par::Region::kOther;
  std::int32_t depth = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// A rank's trace in portable form: name table plus spans (completion
/// order), as produced by Tracer::trace() / deserialize().
struct RankTrace {
  std::vector<std::string> names;
  std::vector<SpanRec> spans;
  std::uint64_t dropped = 0;

  /// Total time in depth-0 region spans of class \p r: the counting rule
  /// of Tracer::region_totals, over the spans the ring kept.
  double region_total(par::Region r) const;
  /// True if any recorded span is nested (depth > 0).
  bool has_nested() const;
};

/// Packed "innermost open span" word for the sampling profiler: zero when
/// no span is open, else pack_leaf(name_id, region) of the top of the span
/// stack. The low bit marks a valid word so name_id 0 / kAtmosphere packs
/// to a non-zero value.
inline std::uint64_t pack_leaf(std::int32_t name_id, par::Region region) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(name_id))
          << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              static_cast<int>(region)))
          << 1) |
         1U;
}
inline bool leaf_open(std::uint64_t leaf) { return (leaf & 1U) != 0; }
inline std::int32_t leaf_name_id(std::uint64_t leaf) {
  return static_cast<std::int32_t>(leaf >> 32);
}
inline par::Region leaf_region(std::uint64_t leaf) {
  return static_cast<par::Region>((leaf >> 1) & 0x7FU);
}

/// Flat double-stream encoding of a RankTrace for Comm::gatherv.
/// deserialize validates the stream and throws foam::Error on malformed
/// input.
std::vector<double> serialize_trace(const RankTrace& t);
RankTrace deserialize_trace(const double* data, std::size_t count);

/// Same idea for flattened metric samples ((name, value) pairs).
std::vector<double> serialize_samples(
    const std::vector<std::pair<std::string, double>>& samples);
std::vector<std::pair<std::string, double>> deserialize_samples(
    const double* data, std::size_t count);

/// Hierarchical span recorder for one rank. Not thread-safe: one tracer
/// per rank, used only from that rank's thread.
class Tracer {
 public:
  explicit Tracer(const TelemetryOptions& opts = {});

  TraceLevel level() const { return level_; }

  /// Reset the epoch and drop all recorded state.
  void reset();
  /// Seconds since the epoch.
  double now() const;

  /// Begin/end a region span (see the file comment). Regions may nest,
  /// but only a top-level one (no span open around it when it ends)
  /// counts toward region_totals(). end_region() with nothing open is a
  /// no-op.
  void begin_region(par::Region r);
  void end_region();

  /// Begin/end a named span (callers normally use FOAM_TRACE_SCOPE, which
  /// checks the level once at entry). Recorded only at kFull.
  void begin_span(const char* name);
  void end_span();

  /// Record a zero-duration marker (Chrome trace instant event) at the
  /// current time. Markers flag rare point events — verify findings, abort
  /// propagation — so they record at every level except kOff.
  void instant(const char* name);

  /// Region class of the innermost open region span (kOther outside any).
  par::Region current_region() const;
  /// Open (unfinished) spans, region and named.
  int open_depth() const { return static_cast<int>(stack_.size()); }

  /// Seconds spent in top-level region spans, per par::Region class,
  /// since the last reset(). Each span adds the same t1 - t0 its record
  /// holds, so with no drops this is bitwise RankTrace::region_total.
  const std::array<double, par::kRegionCount>& region_totals() const {
    return region_s_;
  }

  /// Completed spans in chronological (completion) order.
  std::vector<SpanRec> spans() const;
  const std::vector<std::string>& names() const { return names_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Snapshot the recorded spans as a portable RankTrace. With
  /// \p include_open the currently open (unfinished) spans are appended
  /// as if they ended now — the flight recorder uses this so a postmortem
  /// names what each rank was doing when the run died.
  RankTrace trace(bool include_open = false) const;

  /// Names of the open spans, outermost first (postmortem diagnostics).
  std::vector<std::string> open_span_names() const;

  /// Packed innermost-open-span word + liveness pulse for the sampling
  /// profiler and watchdog (see pack_leaf and slots.hpp). Safe to read
  /// from another thread. The pulse is bumped by ScopedSpan entry at every
  /// trace level (one relaxed increment — no interning, no clock read, no
  /// recording), so a rank computing inside one long region span still
  /// advances a signal the watchdog can fold into its progress signature.
  const ProfileLeaf& profile_leaf() const { return leaf_; }
  void pulse() { leaf_.pulse(); }

 private:
  struct Open {
    std::int32_t name_id;
    par::Region region;
    bool is_region;
    double t0;
  };

  std::int32_t intern(const char* name);
  void finish_top(bool expect_region);
  void push_completed(const SpanRec& s);
  void update_leaf();

  TraceLevel level_;
  std::size_t cap_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<SpanRec> ring_;
  std::size_t head_ = 0;  // next overwrite slot once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::int32_t, std::less<>> name_ids_;
  std::array<double, par::kRegionCount> region_s_{};
  ProfileLeaf leaf_;
};

/// The per-rank telemetry context: tracer + metrics + comm stats.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& opts = {});

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  CommStats& comm() { return comm_; }
  const CommStats& comm() const { return comm_; }

  /// Flattened (name, value) samples of every metric in the session.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
  CommStats comm_;
};

/// The calling thread's installed session, or nullptr (instrumentation
/// no-ops without one).
Telemetry* current();

/// Installs \p t as the calling thread's session for the scope's lifetime;
/// restores the previous session (usually none) on exit.
class ScopedSession {
 public:
  explicit ScopedSession(Telemetry& t);
  ~ScopedSession();
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;

 private:
  Telemetry* prev_;
};

/// RAII named span; records only when a session is installed at kFull
/// (one thread-local read and a branch otherwise).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
};

/// Convenience metric helpers; no-ops without a session.
void count(const char* name, std::uint64_t v = 1);
void observe(const char* name, double v);
void gauge_max(const char* name, double v);

}  // namespace foam::telemetry

#define FOAM_TELEMETRY_CONCAT2(a, b) a##b
#define FOAM_TELEMETRY_CONCAT(a, b) FOAM_TELEMETRY_CONCAT2(a, b)

/// Hierarchical trace span covering the enclosing scope:
///   FOAM_TRACE_SCOPE("legendre_fold");
#define FOAM_TRACE_SCOPE(name)                                    \
  ::foam::telemetry::ScopedSpan FOAM_TELEMETRY_CONCAT(            \
      foam_trace_scope_, __LINE__)(name)
