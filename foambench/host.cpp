#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "foam/coupled.hpp"
#include "par/comm.hpp"

#ifndef FOAMBENCH_BUILD_TYPE
#define FOAMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FOAMBENCH_CXX_FLAGS
#define FOAMBENCH_CXX_FLAGS ""
#endif

namespace foambench {

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(NDEBUG)
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

// UBSan defines no macro, so the flags the package was built with are
// searched too (the model libraries are compiled with the same flags).
constexpr bool kSanitizerFlag =
    std::string_view(FOAMBENCH_CXX_FLAGS).find("-fsanitize") !=
    std::string_view::npos;
constexpr bool kDebugType = std::string_view(FOAMBENCH_BUILD_TYPE) == "Debug";

constexpr const char* kBuildRefusal =
    kSanitizerMacro || kSanitizerFlag ? "sanitizer build"
    : kDebugType || !kOptimized       ? "Debug (unoptimized) build"
    : !kAssertsOff                    ? "assertions enabled (NDEBUG unset)"
                                      : nullptr;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

}  // namespace

const char* build_refusal() { return kBuildRefusal; }

const char* stray_knob() {
  static const char* const kKnobs[] = {
      "FOAM_SCHEDULER", "FOAM_PAR_TRANSPORT",     "FOAM_TELEMETRY",
      "FOAM_OBSERVE",   "FOAM_OBSERVE_WATCHDOG",  "FOAM_FAULT",
      "FOAM_PAR_VERIFY", "FOAM_PAR_VERIFY_TIMEOUT"};
  for (const char* k : kKnobs)
    if (std::getenv(k) != nullptr) return k;
  return nullptr;
}

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream os;
  os << "\"cpu_model\": \"" << json_escape(cpu_model()) << "\", "
     << "\"nproc\": " << usable << ", "
     << "\"compiler\": \"" << json_escape(__VERSION__) << "\", "
     << "\"cxx_flags\": \"" << json_escape(FOAMBENCH_CXX_FLAGS) << "\", "
     << "\"build_type\": \"" << FOAMBENCH_BUILD_TYPE << "\", "
     << "\"scheduler\": \""
     << foam::scheduler_name(foam::ParallelRunOptions{}.scheduler) << "\", "
     << "\"transport\": \""
     << foam::par::comm_transport_name(foam::par::comm_transport()) << "\"";
  return os.str();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

HostCpu host_cpu() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  HostCpu h;
  for (double& x : v) {
    if (!(in >> x)) return HostCpu{};
    h.total += x;
  }
  h.steal = v[7];
  return h;
}

double steal_frac(const HostCpu& from, const HostCpu& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace foambench
