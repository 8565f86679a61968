// Tests for the plan-based FFT (FftPlan) and the agreement of every spectral
// transform entry point with the straight-line test-side oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "base/constants.hpp"
#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/spectral.hpp"
#include "spectral_oracle.hpp"

namespace fn = foam::numerics;
using cplx = std::complex<double>;
using Field2Dd = foam::Field2Dd;

namespace {

std::vector<cplx> random_complex(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& z : v) z = cplx(dist(rng), dist(rng));
  return v;
}

std::vector<double> random_real(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

}  // namespace

TEST(FftPlan, MatchesReferenceAcrossSizes) {
  // Mixed radix {2,3,5,7}, powers of two, primes (11, 101 take the direct
  // fallback), and the grid sizes the model actually uses (48, 96, 128).
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 30, 35, 48, 96, 101,
                      105, 128}) {
    const fn::Fft ref(n);
    const fn::FftPlan plan(n);
    std::vector<cplx> a = random_complex(n, 1234u + n);
    std::vector<cplx> b = a;
    std::vector<cplx> work(plan.workspace_size());
    ref.forward(a);
    plan.forward(b.data(), work.data());
    for (int i = 0; i < n; ++i) {
      // The iterative plan replicates the recursion's butterflies, so the
      // complex path is bitwise identical to the reference.
      EXPECT_EQ(a[i].real(), b[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(a[i].imag(), b[i].imag()) << "n=" << n << " i=" << i;
    }
    ref.inverse(a);
    plan.inverse(b.data(), work.data());
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
  }
}

TEST(FftPlan, RealRoundTripEvenAndOdd) {
  for (const int n : {2, 4, 6, 7, 9, 15, 48, 63, 96}) {
    const fn::FftPlan plan(n);
    const std::vector<double> x = random_real(n, 99u + n);
    std::vector<cplx> spec(n / 2 + 1);
    std::vector<cplx> work(plan.workspace_size());
    plan.forward_real(x.data(), spec.data(), work.data());
    std::vector<double> back(n);
    plan.inverse_real(spec.data(), back.data(), work.data());
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], x[i], 1e-13) << "n=" << n << " i=" << i;
  }
}

TEST(FftPlan, RealMatchesReference) {
  for (const int n : {2, 5, 12, 48, 96, 128}) {
    const fn::Fft ref(n);
    const fn::FftPlan plan(n);
    const std::vector<double> x = random_real(n, 7u * n + 3u);
    const std::vector<cplx> sref = ref.forward_real(x);
    std::vector<cplx> s(n / 2 + 1);
    std::vector<cplx> work(plan.workspace_size());
    plan.forward_real(x.data(), s.data(), work.data());
    double scale = 0.0;
    for (const cplx& z : sref) scale = std::max(scale, std::abs(z));
    for (int k = 0; k <= n / 2; ++k)
      EXPECT_NEAR(std::abs(s[k] - sref[k]), 0.0, 1e-14 * scale)
          << "n=" << n << " k=" << k;
  }
}

namespace {

// FftPlan's real path spelled with std::complex arithmetic: the reference
// Fft at n/2 plus the split (forward) and un-split (inverse) passes; odd n
// is the reference full-length path. Every model state is built on these
// roundings, so the plan's kernel must reproduce every output bit.
std::vector<cplx> split_twiddles(int n) {
  std::vector<cplx> w(n / 2 + 1);
  for (int k = 0; k <= n / 2; ++k) {
    const double ang = -foam::constants::two_pi * k / n;
    w[k] = cplx(std::cos(ang), std::sin(ang));
  }
  return w;
}

std::vector<cplx> oracle_forward_real(const std::vector<double>& x) {
  const int n = static_cast<int>(x.size());
  if (n % 2 != 0) return fn::Fft(n).forward_real(x);
  const int n2 = n / 2;
  std::vector<cplx> z(n2);
  for (int j = 0; j < n2; ++j) z[j] = cplx(x[2 * j], x[2 * j + 1]);
  fn::Fft(n2).forward(z);
  const std::vector<cplx> w = split_twiddles(n);
  std::vector<cplx> spec(n2 + 1);
  for (int k = 0; k <= n2; ++k) {
    const cplx zk = (k == n2) ? z[0] : z[k];
    const cplx zc = std::conj(k == 0 ? z[0] : z[n2 - k]);
    const cplx even = 0.5 * (zk + zc);
    const cplx odd = cplx(0.0, -0.5) * (zk - zc);
    spec[k] = even + w[k] * odd;
  }
  return spec;
}

std::vector<double> oracle_inverse_real(const std::vector<cplx>& spec,
                                        int n) {
  if (n % 2 != 0) return fn::Fft(n).inverse_real(spec);
  const int n2 = n / 2;
  const std::vector<cplx> w = split_twiddles(n);
  std::vector<cplx> z(n2);
  for (int k = 0; k < n2; ++k) {
    const cplx xk = spec[k];
    const cplx xc = std::conj(spec[n2 - k]);
    const cplx fe = 0.5 * (xk + xc);
    const cplx fo = std::conj(w[k]) * (0.5 * (xk - xc));
    z[k] = fe + cplx(0.0, 1.0) * fo;
  }
  fn::Fft(n2).inverse(z);
  std::vector<double> x(n);
  for (int j = 0; j < n2; ++j) {
    x[2 * j] = z[j].real();
    x[2 * j + 1] = z[j].imag();
  }
  return x;
}

// Bit pattern: unlike ==, tells -0.0 from +0.0.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool finite(cplx z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

}  // namespace

TEST(FftPlan, RealPathMatchesComplexOracleBitwise) {
  // The R15 rows (48), the ocean rows (96, 128), their divisors, and the
  // odd full-length fallback (7, 15). Inputs include signed zeros, which
  // a reordered or shortcut product would turn into +0.
  for (const int n : {2, 4, 6, 7, 12, 15, 24, 48, 96, 128}) {
    const fn::FftPlan plan(n);
    std::vector<cplx> work(plan.workspace_size());
    for (unsigned trial = 0; trial < 4; ++trial) {
      std::vector<double> x = random_real(n, 31u * n + trial);
      std::vector<cplx> spec_in = random_complex(n / 2 + 1, 17u * n + trial);
      if (trial == 1) {
        for (double& v : x) v = -0.0;
        for (cplx& z : spec_in) z = cplx(-0.0, 0.0);
      }
      const std::vector<cplx> want_spec = oracle_forward_real(x);
      std::vector<cplx> spec(n / 2 + 1);
      plan.forward_real(x.data(), spec.data(), work.data());
      for (int k = 0; k <= n / 2; ++k) {
        EXPECT_EQ(bits(spec[k].real()), bits(want_spec[k].real()))
            << "n=" << n << " k=" << k;
        EXPECT_EQ(bits(spec[k].imag()), bits(want_spec[k].imag()))
            << "n=" << n << " k=" << k;
      }
      const std::vector<double> want_x = oracle_inverse_real(spec_in, n);
      std::vector<double> back(n);
      plan.inverse_real(spec_in.data(), back.data(), work.data());
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(bits(back[j]), bits(want_x[j])) << "n=" << n << " j=" << j;
    }
  }
}

TEST(FftPlan, NanReachesEveryOutput) {
  // Finite-state checks (foambench's output check among them) rely on a
  // NaN surviving a transform: every output depends on every input, so one
  // NaN anywhere must make every output non-finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int n : {7, 12, 48, 128}) {
    const fn::FftPlan plan(n);
    std::vector<cplx> work(plan.workspace_size());
    for (int pos = 0; pos < n; ++pos) {
      std::vector<cplx> a = random_complex(n, 3u * n + pos);
      a[pos] = cplx(nan, a[pos].imag());
      plan.forward(a.data(), work.data());
      for (int k = 0; k < n; ++k)
        EXPECT_FALSE(finite(a[k])) << "forward n=" << n << " pos=" << pos
                                   << " k=" << k;

      std::vector<double> x = random_real(n, 5u * n + pos);
      x[pos] = nan;
      std::vector<cplx> spec(n / 2 + 1);
      plan.forward_real(x.data(), spec.data(), work.data());
      for (int k = 0; k <= n / 2; ++k)
        EXPECT_FALSE(finite(spec[k])) << "forward_real n=" << n
                                      << " pos=" << pos << " k=" << k;
    }
    for (int pos = 0; pos <= n / 2; ++pos) {
      std::vector<cplx> spec = random_complex(n / 2 + 1, 7u * n + pos);
      spec[pos] = cplx(nan, spec[pos].imag());
      std::vector<double> x(n);
      plan.inverse_real(spec.data(), x.data(), work.data());
      for (int j = 0; j < n; ++j)
        EXPECT_FALSE(std::isfinite(x[j])) << "inverse_real n=" << n
                                          << " pos=" << pos << " j=" << j;
    }
  }
}

TEST(FftPlan, Parseval) {
  const int n = 48;
  const fn::FftPlan plan(n);
  const std::vector<double> x = random_real(n, 42u);
  std::vector<cplx> spec(n / 2 + 1);
  std::vector<cplx> work(plan.workspace_size());
  plan.forward_real(x.data(), spec.data(), work.data());
  double grid_power = 0.0;
  for (const double v : x) grid_power += v * v;
  // sum |X_k|^2 over the full spectrum = N * sum x_j^2; the one-sided
  // coefficients count twice except DC and (even n) Nyquist.
  double spec_power = std::norm(spec[0]) + std::norm(spec[n / 2]);
  for (int k = 1; k < n / 2; ++k) spec_power += 2.0 * std::norm(spec[k]);
  EXPECT_NEAR(spec_power, n * grid_power, 1e-10 * n * grid_power);
}

TEST(FftPlan, PrimeDirectFallback) {
  // 101 is prime > 7: the plan must fall back to the O(p^2) direct combine
  // and still agree with a brute-force DFT.
  const int n = 101;
  const fn::FftPlan plan(n);
  std::vector<cplx> a = random_complex(n, 5u);
  const std::vector<cplx> x = a;
  std::vector<cplx> work(plan.workspace_size());
  plan.forward(a.data(), work.data());
  for (int k = 0; k < n; k += 17) {  // spot-check a few bins
    cplx ref(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * j * k / n;
      ref += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(std::abs(a[k] - ref), 0.0, 1e-11) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Engine vs the straight-line oracle over every spectral entry point.

namespace {

/// A Gaussian grid and its truncation; tests are named by the grid alone.
struct AgreementCase {
  int nlon, nlat, mmax;
};

void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << "(" << c.nlon << ", " << c.nlat << ")";
}

class EngineAgreement : public ::testing::TestWithParam<AgreementCase> {};

Field2Dd wavy(const fn::GaussianGrid& grid, int which) {
  Field2Dd f(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double mu = grid.mu(j);
    for (int i = 0; i < grid.nlon(); ++i) {
      const double lam = 2.0 * M_PI * i / grid.nlon();
      f(i, j) = std::sin((1 + which % 3) * lam) * (1.0 - mu * mu) +
                0.3 * std::cos(2.0 * lam + which) * mu + 0.05 * which;
    }
  }
  return f;
}

void expect_spec_near(const fn::SpectralField& a, const fn::SpectralField& b,
                      double tol) {
  double scale = 1e-30;
  for (int m = 0; m <= a.mmax(); ++m)
    for (int k = 0; k < a.kmax(); ++k)
      scale = std::max(scale, std::abs(a.at(m, k)));
  for (int m = 0; m <= a.mmax(); ++m)
    for (int k = 0; k < a.kmax(); ++k)
      EXPECT_NEAR(std::abs(a.at(m, k) - b.at(m, k)), 0.0, tol * scale)
          << "m=" << m << " k=" << k;
}

void expect_grid_near(const Field2Dd& a, const Field2Dd& b, double tol) {
  double scale = 1e-30;
  for (std::size_t i = 0; i < a.size(); ++i)
    scale = std::max(scale, std::abs(a.vec()[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a.vec()[i], b.vec()[i], tol * scale) << "i=" << i;
}

}  // namespace

// Even nlat (all rows mirror-paired) and odd nlat (unpaired equator row) at
// R7, then the model's R15 and the R31 grid.
INSTANTIATE_TEST_SUITE_P(Grids, EngineAgreement,
                         ::testing::Values(AgreementCase{24, 20, 7},
                                           AgreementCase{24, 11, 7},
                                           AgreementCase{48, 40, 15},
                                           AgreementCase{96, 80, 31}));

TEST_P(EngineAgreement, AllBatchEntryPoints) {
  const auto [nlon, nlat, mmax] = GetParam();
  const fn::GaussianGrid grid(nlon, nlat);
  const fn::SpectralTransform st(grid, mmax);
  const fn::LegendreTable table(mmax, mmax + 1, grid.mus());
  const fn::Fft fft(nlon);
  fn::SpectralWorkspace ws;
  const double tol = 1e-12;

  const int batch = 3;
  std::vector<Field2Dd> As, Bs;
  std::vector<const Field2Dd*> a_ptrs, b_ptrs;
  for (int f = 0; f < batch; ++f) {
    As.push_back(wavy(grid, f));
    Bs.push_back(wavy(grid, f + batch));
  }
  for (int f = 0; f < batch; ++f) {
    a_ptrs.push_back(&As[f]);
    b_ptrs.push_back(&Bs[f]);
  }

  // Engine results through the batched entry points.
  const auto s_eng = st.analyze_batch(a_ptrs, ws);
  const auto d_eng = st.analyze_div_batch(a_ptrs, b_ptrs, ws);
  const auto c_eng = st.analyze_curl_batch(a_ptrs, b_ptrs, ws);
  std::vector<const fn::SpectralField*> s_ptrs, psi_ptrs, chi_ptrs;
  for (int f = 0; f < batch; ++f) {
    s_ptrs.push_back(&s_eng[f]);
    // psi/chi from the analyzed fields (the curl as chi exercises both
    // terms).
    psi_ptrs.push_back(&s_eng[f]);
    chi_ptrs.push_back(&c_eng[f]);
  }
  std::vector<Field2Dd> g_eng(batch), u_eng(batch), v_eng(batch);
  std::vector<Field2Dd*> g_ptrs, u_ptrs, v_ptrs;
  for (int f = 0; f < batch; ++f) {
    g_ptrs.push_back(&g_eng[f]);
    u_ptrs.push_back(&u_eng[f]);
    v_ptrs.push_back(&v_eng[f]);
  }
  st.synthesize_batch(s_ptrs, g_ptrs, ws);
  st.uv_from_psi_chi_batch(psi_ptrs, chi_ptrs, u_ptrs, v_ptrs, ws);

  for (int f = 0; f < batch; ++f) {
    expect_spec_near(fn::oracle::analyze(grid, table, fft, As[f]), s_eng[f],
                     tol);
    expect_spec_near(fn::oracle::analyze_div(grid, table, fft, As[f], Bs[f]),
                     d_eng[f], tol);
    expect_spec_near(
        fn::oracle::analyze_curl(grid, table, fft, As[f], Bs[f]), c_eng[f],
        tol);
    expect_grid_near(fn::oracle::synthesize(grid, table, fft, s_eng[f]),
                     g_eng[f], tol);
    Field2Dd u_ref, v_ref;
    fn::oracle::uv_from_psi_chi(grid, table, fft, s_eng[f], c_eng[f], u_ref,
                                v_ref);
    expect_grid_near(u_ref, u_eng[f], tol);
    expect_grid_near(v_ref, v_eng[f], tol);
  }

  // Single-field entry points are batches of one through the same kernel.
  expect_spec_near(st.analyze(As[0], ws), s_eng[0], 0.0);
  expect_spec_near(st.analyze_div(As[0], Bs[0]), d_eng[0], 0.0);
  expect_spec_near(st.analyze_curl(As[0], Bs[0]), c_eng[0], 0.0);
  expect_grid_near(st.synthesize(s_eng[0], ws), g_eng[0], 0.0);
  Field2Dd u1, v1;
  st.uv_from_psi_chi(s_eng[0], c_eng[0], u1, v1);
  expect_grid_near(u1, u_eng[0], 0.0);
  expect_grid_near(v1, v_eng[0], 0.0);
}
