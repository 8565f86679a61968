// Spectral-transform kernel bench: the plan-based engine (allocation-free
// real FFT, parity-folded Legendre panels, batched multi-field passes) at the
// paper's R15 resolution and at R31.
//
// Reported per (resolution, shape): ns per transform and effective GFLOP/s
// (flops counted for the straight-line algorithm — full Legendre sums and a
// full-length real FFT per row — so the engine's folding shows up as higher
// effective throughput rather than a smaller flop count). The batched rows
// transform a 15-field stack — the level count of the emulated full
// 18-level core (nlev - ndyn) — per pass. Agreement with the straight-line
// transform is a tier-1 test (EngineAgreement in tests/numerics), not a
// bench gate.
//
// The FFT layer gets its own rows: FftPlan's 48-point real transforms (one
// R15 row each way), a 128-point complex round trip (one ocean polar-filter
// row), and the share of the engine's batched analysis spent in its row
// FFTs (the same batch x nlat forward_real calls, timed alone).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/spectral.hpp"

using foam::Field2Dd;
using foam::numerics::FftPlan;
using foam::numerics::GaussianGrid;
using foam::numerics::SpectralField;
using foam::numerics::SpectralTransform;
using foam::numerics::SpectralWorkspace;

namespace {

template <class F>
double ns_per_call(F&& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  fn();  // warm caches and workspace growth
  int reps = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double sec =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (sec > 0.2 || reps >= (1 << 22)) return sec * 1e9 / reps;
    reps *= 4;
  }
}

/// Smooth deterministic test field: a handful of resolvable harmonics with
/// level-dependent phases.
Field2Dd make_field(const GaussianGrid& grid, int level) {
  Field2Dd f(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double mu = grid.mu(j);
    for (int i = 0; i < grid.nlon(); ++i) {
      const double lam = 2.0 * M_PI * i / grid.nlon();
      f(i, j) = std::sin(2.0 * lam + 0.3 * level) * (1.0 - mu * mu) +
                0.5 * std::cos(5.0 * lam) * mu +
                0.2 * std::sin((3.0 + level % 3) * lam) * mu * mu + 0.1 * mu;
    }
  }
  return f;
}

struct Case {
  const char* name;
  int nlon, nlat, mmax;
};

void run_case(const Case& c, foam::bench::BenchJson& out) {
  const int batch = 15;  // emulated level stack (nlev - ndyn)
  GaussianGrid grid(c.nlon, c.nlat);
  SpectralTransform st(grid, c.mmax);
  SpectralWorkspace ws;

  std::vector<Field2Dd> fields;
  std::vector<const Field2Dd*> f_ptrs;
  for (int l = 0; l < batch; ++l) fields.push_back(make_field(grid, l));
  for (auto& f : fields) f_ptrs.push_back(&f);

  // Straight-line flop count per scalar transform (Legendre triple loop at
  // 8 flops per (m, k, j) complex-times-real multiply-add, plus ~5 N log2 N
  // per FFT row): the engine is credited with this useful work.
  const double nm = c.mmax + 1.0, kmax = c.mmax + 1.0;
  const double legendre_flops = 8.0 * c.nlat * nm * kmax;
  const double fft_flops =
      5.0 * c.nlat * c.nlon * std::log2(static_cast<double>(c.nlon));
  const double flops = legendre_flops + fft_flops;

  const std::vector<SpectralField> specs = st.analyze_batch(f_ptrs, ws);
  std::vector<const SpectralField*> s_ptrs;
  std::vector<Field2Dd> grids(batch, Field2Dd(c.nlon, c.nlat));
  std::vector<Field2Dd*> g_ptrs;
  for (auto& s : specs) s_ptrs.push_back(&s);
  for (auto& g : grids) g_ptrs.push_back(&g);

  const double ns_an = ns_per_call([&] {
    volatile double sink = st.analyze(fields[0], ws).at(1, 1).real();
    (void)sink;
  });
  const double ns_sy = ns_per_call([&] {
    volatile double sink = st.synthesize(specs[0], ws)(0, 0);
    (void)sink;
  });
  const double ns_ban = ns_per_call([&] {
                          volatile double sink =
                              st.analyze_batch(f_ptrs, ws)[0].at(1, 1).real();
                          (void)sink;
                        }) /
                        batch;
  const double ns_bsy =
      ns_per_call([&] { st.synthesize_batch(s_ptrs, g_ptrs, ws); }) / batch;
  std::printf(
      "%s analyze %9.0f ns (%5.2f GFLOP/s)  synthesize %9.0f ns "
      "(%5.2f GFLOP/s)  batched[%d] analyze %9.0f ns  synthesize %9.0f "
      "ns\n",
      c.name, ns_an, flops / ns_an, ns_sy, flops / ns_sy, batch, ns_ban,
      ns_bsy);
  auto with_shape = [&](const char* shape) {
    return foam::bench::BenchParams{
        {"resolution", c.name}, {"impl", "engine"}, {"shape", shape}};
  };
  out.add("analyze_ns_per_transform", ns_an, "ns", with_shape("single"));
  out.add("synthesize_ns_per_transform", ns_sy, "ns", with_shape("single"));
  out.add("analyze_gflops", flops / ns_an, "GFLOP/s", with_shape("single"));
  out.add("synthesize_gflops", flops / ns_sy, "GFLOP/s",
          with_shape("single"));
  out.add("analyze_ns_per_transform", ns_ban, "ns", with_shape("batched"));
  out.add("synthesize_ns_per_transform", ns_bsy, "ns", with_shape("batched"));
  out.add("analyze_gflops", flops / ns_ban, "GFLOP/s", with_shape("batched"));
  out.add("synthesize_gflops", flops / ns_bsy, "GFLOP/s",
          with_shape("batched"));

  // The row FFTs of one engine batched analysis: gather each row and
  // forward_real it, as the engine does before its Legendre sums. Both
  // sides are the best of interleaved timings, so host noise (a shared
  // VM's steal) does not land on one side of the ratio only.
  const FftPlan plan(c.nlon);
  std::vector<double> row(c.nlon);
  std::vector<std::complex<double>> spec(c.nlon / 2 + 1),
      work(plan.workspace_size());
  auto fft_rows = [&] {
    for (const Field2Dd& f : fields)
      for (int j = 0; j < c.nlat; ++j) {
        for (int i = 0; i < c.nlon; ++i) row[i] = f(i, j);
        plan.forward_real(row.data(), spec.data(), work.data());
      }
  };
  auto analysis = [&] {
    volatile double sink = st.analyze_batch(f_ptrs, ws)[0].at(1, 1).real();
    (void)sink;
  };
  double ns_fft_rows = ns_per_call(fft_rows);
  double ns_analysis = ns_ban * batch;
  for (int rep = 0; rep < 4; ++rep) {
    ns_fft_rows = std::min(ns_fft_rows, ns_per_call(fft_rows));
    ns_analysis = std::min(ns_analysis, ns_per_call(analysis));
  }
  const double fft_share = ns_fft_rows / ns_analysis;
  std::printf("%s FFT share of engine batched analyze: %.2f (%d row FFTs "
              "%.0f ns of %.0f ns per field)\n\n",
              c.name, fft_share, c.nlat, ns_fft_rows / batch,
              ns_analysis / batch);
  out.add("fft_share_of_batched_analyze", fft_share, "frac",
          {{"resolution", c.name}});
}

/// FFT layer rows at the model's row lengths.
void run_fft_layer(foam::bench::BenchJson& out) {
  const int n_atm = 48;    // R15 Gaussian-grid row
  const int n_ocn = 128;   // paper ocean row (polar filter)
  const FftPlan p_atm(n_atm), p_ocn(n_ocn);
  std::vector<std::complex<double>> work(p_ocn.workspace_size());
  std::vector<double> x(n_atm);
  for (int i = 0; i < n_atm; ++i)
    x[i] = std::sin(0.3 * i) + 0.25 * std::cos(2.1 * i);
  std::vector<std::complex<double>> spec(n_atm / 2 + 1);
  // Best of three: a microsecond kernel is easily inflated by host noise.
  auto best_ns = [](auto&& fn) {
    double best = ns_per_call(fn);
    for (int rep = 0; rep < 2; ++rep) best = std::min(best, ns_per_call(fn));
    return best;
  };
  const double ns_fwd = best_ns(
      [&] { p_atm.forward_real(x.data(), spec.data(), work.data()); });
  const double ns_inv = best_ns(
      [&] { p_atm.inverse_real(spec.data(), x.data(), work.data()); });
  std::vector<std::complex<double>> a(n_ocn);
  for (int i = 0; i < n_ocn; ++i)
    a[i] = {std::sin(0.7 * i), 0.0};
  const double ns_rt = best_ns([&] {
    p_ocn.forward(a.data(), work.data());
    p_ocn.inverse(a.data(), work.data());
  });
  std::printf("FFT layer: n=%d forward_real %.0f ns, inverse_real %.0f ns; "
              "n=%d complex round trip %.0f ns\n\n",
              n_atm, ns_fwd, ns_inv, n_ocn, ns_rt);
  out.add("fft_forward_real_ns", ns_fwd, "ns", {{"n", n_atm}});
  out.add("fft_inverse_real_ns", ns_inv, "ns", {{"n", n_atm}});
  out.add("fft_roundtrip_ns", ns_rt, "ns", {{"n", n_ocn}});
}

}  // namespace

int main() {
  std::printf("=== spectral transform kernels: plan-based engine ===\n");
  foam::bench::BenchJson out("spectral_kernels");
  out.set_common("rank_layout", "serial");
  for (const Case& c : {Case{"R15", 48, 40, 15}, Case{"R31", 96, 80, 31}})
    run_case(c, out);
  run_fft_layer(out);
  return 0;
}
