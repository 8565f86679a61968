#pragma once

/// \file host.hpp
/// What a result must carry to be compared with another: the host and
/// build it came from, and the guards that keep two runs measuring the
/// same program.

#include <string>

namespace foambench {

/// Why this build may not report numbers (Debug or sanitizer build,
/// decided at compile time), or nullptr when it may.
const char* build_refusal();

/// The first environment knob that changes the program under test and is
/// set, or nullptr when none is.
const char* stray_knob();

/// The host and build part of the host block, as JSON members
/// ("cpu_model": ..., "nproc": ..., ...) without braces.
std::string host_json();

/// Host-wide CPU time counters from /proc/stat [jiffies]: what the
/// hypervisor stole, and everything.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
HostCpu host_cpu();
/// Share of host CPU time stolen between two samples (0 if unknown).
double steal_frac(const HostCpu& from, const HostCpu& to);

/// Process user + system CPU seconds so far.
double process_cpu_s();
/// Restart the process's peak-RSS high-water mark (Linux clear_refs); a
/// no-op where that is not permitted.
void reset_peak_rss();
/// Peak resident set size of the process since the last reset_peak_rss()
/// [MB].
double peak_rss_mb();

}  // namespace foambench
