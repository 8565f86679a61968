#pragma once

/// \file workloads.hpp
/// The three workloads of the benchmark of record. Each is a closed-loop
/// batch job in one process with 3 rank threads (README.md says why 3):
///
///  * coupled      — run_coupled_parallel on 1+1x2, blocking exchange,
///                   default scheduler, daily checkpoints;
///  * ocean_alone  — OceanModel::step on a 3x1 rank grid under analytic
///                   wind stress and restoring heat flux;
///  * atm_fullcore — AtmosphereModel::step on 3 ranks with the full-core
///                   transform cost, prescribed climatological SST.
///
/// An attempt is one fresh run: set-up, stepping for attempt_days(), then
/// the final state handed to the output checks.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace foambench {

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  /// FoamConfig::testing() sizes (the smoke test), not the paper's.
  bool small = false;
  /// Directory the benchmark owns for checkpoint files.
  std::string scratch;
};

/// One component's steps in a traced attempt: the slowest rank's wall
/// time of each step, and whether the step included the component's
/// periodic extra work (a tracer step, a radiation step).
struct StepSamples {
  std::vector<double> slowest_s;
  std::vector<char> flagged;
};

struct Attempt {
  double setup_s = 0.0;  ///< construction + initialisation, to first step
  double wall_s = 0.0;   ///< the timed call
  double sim_s = 0.0;    ///< simulated seconds the timed call covers
  double cpu_s = 0.0;    ///< process user+sys CPU during the timed call
  /// Process peak RSS from the start of the attempt to the end of the
  /// timed call (the caller restarts the high-water mark).
  double peak_rss_mb = 0.0;
  /// Per-layer metrics; filled only by traced attempts.
  std::map<std::string, double> layers;
  /// Step times per component ("ocean", "atm"), pooled over the traced
  /// attempts into the step_ms percentiles; traced attempts only.
  std::map<std::string, StepSamples> steps;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One fresh run. \p log is non-null for a traced attempt: the workload
  /// records its spans there and turns on the program's own tracing. The
  /// final state goes to \p check, field by field.
  virtual Attempt attempt(int run, SpanLog* log, StateCheck& check) = 0;
  /// Rank layout, e.g. "1+1x2".
  virtual std::string layout() const = 0;
  /// The inputs generated from the seed, for the run block.
  virtual std::string inputs() const = 0;

  static constexpr int kRanks = 3;
};

/// The workload named by \p p.workload; throws on an unknown name.
std::unique_ptr<Workload> make_workload(const Params& p);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace foambench
