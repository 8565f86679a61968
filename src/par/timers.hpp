#pragma once

/// \file timers.hpp
/// Clocks and the Fig. 2 activity classes.
///
/// Figure 2 of the paper shows, for every SP processor, how one simulated
/// day divides into atmosphere (green), coupler (red), ocean (blue) and idle
/// (purple) time. Region names those classes; the tracer in
/// telemetry/telemetry.hpp records them as region spans and keeps the
/// per-region totals, which is where the Fig. 2 timelines and shares come
/// from. Header-only, so the telemetry library uses it without a link
/// cycle through foam_par.

#include <ctime>

#include <chrono>

namespace foam::par {

/// Per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID). Unlike the wall
/// clocks below, this only advances while the calling thread executes —
/// not while it sleeps on a condition variable or loses the core to
/// another rank — so busy-time measurements taken with it stay meaningful
/// on hosts with fewer cores than ranks.
inline double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Activity classes matching the paper's colour key, plus an explicit
/// communication-wait class: time a rank spends blocked on an in-flight
/// message (Comm::wait / a blocking exchange receive), as opposed to kIdle
/// time spent waiting inside collectives for slower peers. Separating the
/// two makes the comm/compute-overlap win directly visible in the Fig. 2
/// and scaling benches.
enum class Region : int {
  kAtmosphere = 0,  // green
  kCoupler = 1,     // red
  kOcean = 2,       // blue
  kIdle = 3,        // purple
  kOther = 4,
  kCommWait = 5,    // grey: blocked on message completion
};

inline constexpr int kRegionCount = 6;

inline const char* region_name(Region r) {
  switch (r) {
    case Region::kAtmosphere:
      return "atmosphere";
    case Region::kCoupler:
      return "coupler";
    case Region::kOcean:
      return "ocean";
    case Region::kIdle:
      return "idle";
    case Region::kOther:
      return "other";
    case Region::kCommWait:
      return "comm-wait";
  }
  return "?";
}

/// Simple wall-clock stopwatch for throughput measurement.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace foam::par
