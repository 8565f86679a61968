// The FOAM benchmark of record: one workload per invocation, a closed loop
// of fresh fixed-length attempts for --seconds, output checks on
// every attempt, then every metric by name with its unit and, as the last
// line of standard output, one JSON object.
//
//   foambench --workload coupled --seed 3 --seconds 12 --trace 0
//             --scratch DIR [--size testing] [--doctor-nan] [--code ID]
//
// --trace 0 reports the end-to-end metrics from untraced attempts.
// --trace 1 interleaves untraced and traced attempts in the same time and
// reports the per-layer metrics from the traced ones, the self time per
// layer, and the tracing overhead. README.md documents the metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "host.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace foambench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  ///< what the metric should move, on which workload
};

// Must match BENCHMARK.json (the smoke test checks both ways).
const MetricDef kEndToEnd[] = {
    {"xrt", "sim_s/s", ""},
    {"setup_s", "s", ""},
    {"cpu_s_per_sim_day", "s/sim_day", ""},
    {"peak_rss_mb", "MB", ""},
    {"ok_frac", "frac", ""},
};

constexpr const char* kOceanMoves =
    "xrt/cpu_s_per_sim_day: ocean_alone (large), coupled (most of the run); "
    "atm_fullcore unchanged";
constexpr const char* kAtmMoves =
    "xrt: atm_fullcore (large), coupled (<= ~8% share); ocean_alone "
    "unchanged";
constexpr const char* kSpectralMoves = "xrt: atm_fullcore";
constexpr const char* kCommMoves =
    "xrt: ocean_alone (halos), atm_fullcore (collectives), coupled "
    "(exchange)";
constexpr const char* kDriverMoves = "xrt: coupled only";
constexpr const char* kTraceMoves = "telemetry cost, every workload";

const MetricDef kPerLayer[] = {
    {"ocean.step_ms.p50", "ms", kOceanMoves},
    {"ocean.step_ms.p90", "ms", kOceanMoves},
    {"ocean.step_cpu_ms", "ms", kOceanMoves},
    {"ocean.offcpu_frac", "frac", kOceanMoves},
    {"ocean.tracer_extra_ms", "ms", kOceanMoves},
    {"ocean.imbalance", "ratio", kOceanMoves},
    {"ocean.mpts_per_cpu_s", "Mpts/s", kOceanMoves},
    {"ocean.work_pts_per_sim_day", "pts/sim_day", kOceanMoves},
    {"ocean.setup_ms", "ms", kOceanMoves},
    {"atm.step_ms.p50", "ms", kAtmMoves},
    {"atm.step_ms.p90", "ms", kAtmMoves},
    {"atm.step_cpu_ms", "ms", kAtmMoves},
    {"atm.offcpu_frac", "frac", kAtmMoves},
    {"atm.radiation_extra_ms", "ms", kAtmMoves},
    {"atm.imbalance", "ratio", kAtmMoves},
    {"atm.work_pts_per_sim_day", "pts/sim_day", kAtmMoves},
    {"atm.setup_ms", "ms", kAtmMoves},
    {"spectral.batches_per_step", "batches/step", kSpectralMoves},
    {"spectral.fields_per_batch", "fields/batch", kSpectralMoves},
    {"comm.msgs", "msgs/sim_day", kCommMoves},
    {"comm.bytes", "B/sim_day", kCommMoves},
    {"comm.wait_s", "s/sim_day", kCommMoves},
    {"comm.skew_s", "s/sim_day", kCommMoves},
    {"comm.memcpy_bytes", "B/sim_day", kCommMoves},
    {"comm.zero_copy_frac", "frac", kCommMoves},
    {"driver.atm_s", "s/sim_day", kDriverMoves},
    {"driver.ocean_s", "s/sim_day", kDriverMoves},
    {"driver.coupler_s", "s/sim_day", kDriverMoves},
    {"driver.comm_wait_s", "s/sim_day", kDriverMoves},
    {"driver.idle_s", "s/sim_day", kDriverMoves},
    {"driver.atm_cpu_s", "s/sim_day", kDriverMoves},
    {"driver.ocean_cpu_s", "s/sim_day", kDriverMoves},
    {"driver.explained_frac", "frac", kDriverMoves},
    {"ckpt.write_s", "s/ckpt", kDriverMoves},
    {"ckpt.mb", "MB/ckpt", kDriverMoves},
    {"ckpt.io_wait_s", "s/ckpt", kDriverMoves},
    {"trace.overhead_frac", "frac", kTraceMoves},
};

/// The paper's ×real-time claim the workload is reported against.
const char* paper_claim(const std::string& workload) {
  if (workload == "coupled") return "paper: 6,000x coupled";
  if (workload == "ocean_alone") return "paper: 105,000x ocean alone";
  return "paper: no stand-alone atmosphere figure";
}

/// Linear-interpolated quantile (0 for no samples).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Options {
  Params params;
  double seconds = 10.0;
  bool trace = false;
  bool doctor_nan = false;
  std::string code = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "foambench: %s\nusage: foambench --workload "
               "coupled|ocean_alone|atm_fullcore --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--size paper|testing] "
               "[--doctor-nan] [--code ID] [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--doctor-nan") {
      o.doctor_nan = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.params.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.params.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.params.scratch = v;
      have_scratch = true;
    } else if (a == "--size") {
      if (v != "paper" && v != "testing") usage("--size takes paper|testing");
      o.params.small = v == "testing";
    } else if (a == "--code") {
      o.code = v;
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_scratch) usage("--workload and --scratch");
  return o;
}

struct Outcome {
  bool traced = false;
  Attempt a;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (const char* why = build_refusal()) {
    std::fprintf(stderr,
                 "foambench: refusing to report numbers from a %s; build "
                 "with an optimized, unsanitized build type\n",
                 why);
    return 2;
  }
  if (const char* knob = stray_knob()) {
    std::fprintf(stderr,
                 "foambench: %s is set; it changes the program under test, "
                 "so two runs would measure different programs. Unset it.\n",
                 knob);
    return 2;
  }
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(opt.params);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  std::filesystem::create_directories(opt.params.scratch);

  // Closed loop: attempts back to back until the time is used up. With
  // --trace 1 untraced and traced attempts alternate, so drift cancels out
  // of the tracing overhead. At least two attempts (two of each kind when
  // tracing), so the digest is always compared across a repeat.
  SpanLog log(Workload::kRanks);
  std::vector<Outcome> outcomes;
  int attempted = 0, failed = 0;
  std::optional<std::uint64_t> ref_digest;
  const int min_runs = opt.trace ? 4 : 2;
  const HostCpu cpu_start = host_cpu();
  const double t_start = now_s();
  for (int run = 0; run < min_runs || now_s() - t_start < opt.seconds;
       ++run) {
    const bool traced = opt.trace && run % 2 == 1;
    SpanLog* tlog = traced ? &log : nullptr;
    ++attempted;
    const HostCpu cpu_before = host_cpu();
    try {
      StateCheck check(opt.doctor_nan);
      Attempt a;
      {
        Scope s(tlog, 0, run, "bench:attempt");
        reset_peak_rss();
        a = w->attempt(run, tlog, check);
      }
      if (!check.ok()) {
        ++failed;
        std::printf("attempt %d: output check failed: %s\n", run,
                    check.failure().c_str());
      } else if (ref_digest && check.digest() != *ref_digest) {
        ++failed;
        std::printf("attempt %d: final-state digest %016llx differs from "
                    "%016llx (same seed)\n",
                    run, static_cast<unsigned long long>(check.digest()),
                    static_cast<unsigned long long>(*ref_digest));
      }
      if (!ref_digest) ref_digest = check.digest();
      std::printf("attempt %d%s: setup %.4f s, %.1f sim s in %.4f s = "
                  "%.0fx, cpu %.3f s, host steal %.1f%%\n",
                  run, traced ? " (traced)" : "", a.setup_s, a.sim_s,
                  a.wall_s, a.sim_s / a.wall_s, a.cpu_s,
                  100.0 * steal_frac(cpu_before, host_cpu()));
      outcomes.push_back(Outcome{traced, std::move(a)});
    } catch (const std::exception& e) {
      ++failed;
      std::printf("attempt %d: threw: %s\n", run, e.what());
    }
  }
  const double run_steal = steal_frac(cpu_start, host_cpu());
  std::fflush(stdout);

  std::vector<double> xrt, setup, cpu_day, rss, xrt_traced;
  std::map<std::string, std::vector<double>> layer_values;
  std::map<std::string, StepSamples> steps;
  double traced_days = 0.0;
  for (const auto& [traced, o] : outcomes) {
    if (traced) {
      xrt_traced.push_back(o.sim_s / o.wall_s);
      traced_days += o.sim_s / 86400.0;
      for (const auto& [k, v] : o.layers) layer_values[k].push_back(v);
      for (const auto& [k, v] : o.steps) {
        StepSamples& all = steps[k];
        all.slowest_s.insert(all.slowest_s.end(), v.slowest_s.begin(),
                             v.slowest_s.end());
        all.flagged.insert(all.flagged.end(), v.flagged.begin(),
                           v.flagged.end());
      }
      continue;
    }
    xrt.push_back(o.sim_s / o.wall_s);
    setup.push_back(o.setup_s);
    cpu_day.push_back(o.cpu_s / (o.sim_s / 86400.0));
    rss.push_back(o.peak_rss_mb);
  }
  if (xrt.empty() || (opt.trace && xrt_traced.empty())) {
    std::fprintf(stderr, "foambench: no attempt completed\n");
    return 1;
  }

  std::map<std::string, double> values;
  const MetricDef* defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = opt.trace ? std::size(kPerLayer)
                                      : std::size(kEndToEnd);
  if (!opt.trace) {
    values["xrt"] = median(xrt);
    values["setup_s"] = median(setup);
    values["cpu_s_per_sim_day"] = median(cpu_day);
    values["peak_rss_mb"] = median(rss);
    values["ok_frac"] =
        static_cast<double>(attempted - failed) / attempted;
    std::printf("\n%s: %.0fx real time over %zu attempts (%s)\n",
                opt.params.workload.c_str(), values["xrt"], xrt.size(),
                paper_claim(opt.params.workload));
  } else {
    for (const auto& [k, v] : layer_values) values[k] = median(v);
    for (const auto& [component, extra] :
         {std::pair{"ocean", "tracer_extra_ms"},
          std::pair{"atm", "radiation_extra_ms"}}) {
      const StepSamples& st = steps[component];
      if (st.slowest_s.empty()) continue;
      std::vector<double> flagged, plain;
      for (std::size_t k = 0; k < st.slowest_s.size(); ++k)
        (st.flagged[k] ? flagged : plain).push_back(st.slowest_s[k]);
      const std::string p = component;
      values[p + ".step_ms.p50"] = 1e3 * quantile(st.slowest_s, 0.5);
      values[p + ".step_ms.p90"] = 1e3 * quantile(st.slowest_s, 0.9);
      values[p + "." + extra] =
          flagged.empty() || plain.empty()
              ? 0.0
              : 1e3 * (median(flagged) - median(plain));
    }
    values["trace.overhead_frac"] = 1.0 - median(xrt_traced) / median(xrt);

    std::printf("\nself time per layer (summed over ranks, s per sim day):\n");
    std::vector<std::pair<double, std::string>> self;
    double total = 0.0;
    for (const auto& [name, s] : log.self_seconds()) {
      self.emplace_back(s / traced_days, name);
      total += s / traced_days;
    }
    std::sort(self.rbegin(), self.rend());
    for (const auto& [s, name] : self)
      std::printf("  %-42s %10.4f  %5.1f%%\n", name.c_str(), s,
                  total > 0.0 ? 100.0 * s / total : 0.0);
    std::printf("\nper-layer metrics and what each should move:\n");
    // A layer the workload does not exercise, or whose numbers the public
    // results do not carry, reads n/a here and 0 in the JSON.
    for (std::size_t i = 0; i < ndefs; ++i) {
      const auto it = values.find(defs[i].name);
      if (it == values.end())
        std::printf("  %-28s %14s %-13s %s\n", defs[i].name, "n/a",
                    defs[i].unit, defs[i].moves);
      else
        std::printf("  %-28s %14.6g %-13s %s\n", defs[i].name, it->second,
                    defs[i].unit, defs[i].moves);
    }
    if (!opt.spans_out.empty()) {
      log.write_json(opt.spans_out);
      std::printf("spans written to %s\n", opt.spans_out.c_str());
    }
  }

  std::printf("\n");
  for (std::size_t i = 0; i < ndefs; ++i)
    std::printf("metric %-28s %.17g %s\n", defs[i].name, values[defs[i].name],
                defs[i].unit);
  std::printf("failed_frac %.6f (%d of %d attempts)\n",
              static_cast<double>(failed) / attempted, failed, attempted);
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(ref_digest.value_or(0)));
  std::printf(
      "run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"size\": \"%s\", \"layout\": \"%s\", \"ranks\": %d, "
      "\"inputs\": \"%s\", \"attempts\": %d, \"sim_days_per_attempt\": %g, "
      "\"code\": \"%s\", %s, \"host_steal_frac\": %.4f, "
      "\"digest\": \"%016llx\"}\n",
      opt.params.workload.c_str(),
      static_cast<unsigned long long>(opt.params.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.params.small ? "testing" : "paper",
      w->layout().c_str(), Workload::kRanks, w->inputs().c_str(), attempted,
      outcomes.front().a.sim_s / 86400.0,
      opt.code.c_str(), host_json().c_str(), run_steal,
      static_cast<unsigned long long>(ref_digest.value_or(0)));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
            json_number(values[defs[i].name]) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
