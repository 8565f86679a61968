#pragma once

/// \file spans.hpp
/// The benchmark's own span log: one span around each public model call
/// the benchmark makes, recorded per rank thread, kept in memory and
/// written out when the run ends. Spans the program records itself (a
/// telemetry::RankTrace at TraceLevel::kFull) can be attached underneath,
/// so the self-time table covers both.

#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace foambench {

/// Seconds on the steady clock since the process's benchmark epoch.
double now_s();

/// One completed span. Times are benchmark-epoch seconds.
struct Span {
  std::string name;
  int rank = 0;
  int run = 0;       ///< attempt (run id) the span belongs to
  int parent = -1;   ///< index into the same rank's span list, -1 = root
  bool program = false;  ///< recorded by the model's tracer, not the bench
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Per-rank span lists. Each rank thread appends only to its own list, so
/// recording takes no lock; the lists are read after the ranks joined.
class SpanLog {
 public:
  explicit SpanLog(int ranks) : spans_(ranks), open_(ranks) {}

  int begin(int rank, int run, const char* name);
  void end(int rank, int id);

  /// Attach a rank's program trace under span \p parent. \p offset_s maps
  /// the trace's clock onto the benchmark clock (trace t + offset); each
  /// program span becomes a child of the innermost span containing it.
  void attach(int rank, int run, int parent,
              const foam::telemetry::RankTrace& trace, double offset_s);

  const std::vector<Span>& spans(int rank) const { return spans_[rank]; }
  int ranks() const { return static_cast<int>(spans_.size()); }

  /// Self time (duration minus time covered by child spans) summed over
  /// ranks, per span name.
  std::map<std::string, double> self_seconds() const;

  /// Write every span as a JSON array.
  void write_json(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> open_;
};

/// RAII span; a no-op when \p log is null (the untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, int rank, int run, const char* name)
      : log_(log), rank_(rank),
        id_(log != nullptr ? log->begin(rank, run, name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(rank_, id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int rank_;
  int id_;
};

}  // namespace foambench
