#include "numerics/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "base/constants.hpp"
#include "par/decomp.hpp"

namespace foam::numerics {
namespace {

using constants::earth_radius;
using cplx = std::complex<double>;

/// R15 configuration used by the FOAM atmosphere.
struct R15 {
  R15() : grid(48, 40), st(grid, 15) {}
  GaussianGrid grid;
  SpectralTransform st;
};

SpectralField random_spectral(int mmax, int kmax, unsigned seed) {
  SpectralField s(mmax, kmax);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int m = 0; m <= mmax; ++m)
    for (int k = 0; k < kmax; ++k)
      s.at(m, k) = (m == 0) ? cplx(dist(rng), 0.0)
                            : cplx(dist(rng), dist(rng));
  return s;
}

TEST(Spectral, SynthesizeAnalyzeIsIdentityOnTruncatedFields) {
  R15 r;
  const SpectralField s = random_spectral(15, 16, 11);
  const Field2Dd g = r.st.synthesize(s);
  const SpectralField back = r.st.analyze(g);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      EXPECT_NEAR(back.at(m, k).real(), s.at(m, k).real(), 1e-10)
          << "m=" << m << " k=" << k;
      EXPECT_NEAR(back.at(m, k).imag(), s.at(m, k).imag(), 1e-10)
          << "m=" << m << " k=" << k;
    }
}

TEST(Spectral, ConstantFieldMapsToMeanCoefficient) {
  R15 r;
  Field2Dd g(48, 40, 3.25);
  const SpectralField s = r.st.analyze(g);
  EXPECT_NEAR(s.at(0, 0).real(), 3.25, 1e-12);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k)
      if (!(m == 0 && k == 0)) {
        EXPECT_NEAR(std::abs(s.at(m, k)), 0.0, 1e-12);
      }
}

TEST(Spectral, SphericalHarmonicIsLaplacianEigenfunction) {
  R15 r;
  // Y_n^m with (m, n) = (3, 7): put a single coefficient, synthesize,
  // analyze the Laplacian and compare with the eigenvalue.
  SpectralField s(15, 16);
  s.at(3, 4) = cplx(1.0, 0.5);  // n = 3 + 4 = 7
  SpectralField lap(s);
  r.st.laplacian(lap);
  const double expected = -7.0 * 8.0 / (earth_radius * earth_radius);
  EXPECT_NEAR(lap.at(3, 4).real(), expected * 1.0, std::abs(expected) * 1e-12);
  EXPECT_NEAR(lap.at(3, 4).imag(), expected * 0.5, std::abs(expected) * 1e-12);
}

TEST(Spectral, InverseLaplacianInvertsAwayFromN0) {
  R15 r;
  SpectralField s = random_spectral(15, 16, 21);
  SpectralField t(s);
  r.st.laplacian(t);
  r.st.inverse_laplacian(t);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      if (m == 0 && k == 0) {
        EXPECT_NEAR(std::abs(t.at(0, 0)), 0.0, 1e-14);
      } else {
        EXPECT_NEAR(t.at(m, k).real(), s.at(m, k).real(), 1e-11);
        EXPECT_NEAR(t.at(m, k).imag(), s.at(m, k).imag(), 1e-11);
      }
    }
}

TEST(Spectral, PowerMatchesAreaWeightedMeanSquare) {
  R15 r;
  const SpectralField s = random_spectral(15, 16, 31);
  const Field2Dd g = r.st.synthesize(s);
  // Area-weighted mean square over the Gaussian grid.
  double ms = 0.0;
  for (int j = 0; j < 40; ++j) {
    double row = 0.0;
    for (int i = 0; i < 48; ++i) row += g(i, j) * g(i, j);
    ms += 0.5 * r.grid.gauss_weight(j) * row / 48.0;
  }
  EXPECT_NEAR(s.power(), ms, 1e-10 * std::max(1.0, ms));
}

TEST(Spectral, CurlOfPsiWindsRecoversVorticity) {
  // U, V from a pure streamfunction psi: analyze_curl(U, V) must equal
  // laplacian(psi) — the core identity of the vorticity-divergence dycore.
  R15 r;
  SpectralField psi = random_spectral(15, 16, 41);
  psi *= 1.0e7;  // physical streamfunction magnitude [m^2/s]
  // Zero the last total wavenumber rows to leave headroom: the winds of a
  // degree-n streamfunction have degree n+1 content.
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);  // zero
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField zeta = r.st.analyze_curl(U, V);
  SpectralField expected(psi);
  r.st.laplacian(expected);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k) {
      EXPECT_NEAR(zeta.at(m, k).real(), expected.at(m, k).real(), 1e-9)
          << "m=" << m << " k=" << k;
      EXPECT_NEAR(zeta.at(m, k).imag(), expected.at(m, k).imag(), 1e-9)
          << "m=" << m << " k=" << k;
    }
}

TEST(Spectral, DivOfChiWindsRecoversDivergence) {
  R15 r;
  SpectralField chi = random_spectral(15, 16, 43);
  chi *= 1.0e7;  // physical velocity-potential magnitude [m^2/s]
  for (int m = 0; m <= 15; ++m) chi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField psi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField div = r.st.analyze_div(U, V);
  SpectralField expected(chi);
  r.st.laplacian(expected);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k) {
      EXPECT_NEAR(div.at(m, k).real(), expected.at(m, k).real(), 1e-9);
      EXPECT_NEAR(div.at(m, k).imag(), expected.at(m, k).imag(), 1e-9);
    }
}

TEST(Spectral, PsiWindsAreNonDivergent) {
  R15 r;
  SpectralField psi = random_spectral(15, 16, 47);
  psi *= 1.0e7;
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField div = r.st.analyze_div(U, V);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 15; ++k)
      EXPECT_NEAR(std::abs(div.at(m, k)), 0.0, 1e-9)
          << "m=" << m << " k=" << k;
}

TEST(Spectral, DdlonMultipliesByIm) {
  R15 r;
  SpectralField s = random_spectral(15, 16, 53);
  const SpectralField d = r.st.d_dlon(s);
  for (int m = 0; m <= 15; ++m)
    for (int k = 0; k < 16; ++k) {
      const cplx expected = cplx(0.0, static_cast<double>(m)) * s.at(m, k);
      EXPECT_NEAR(d.at(m, k).real(), expected.real(), 1e-14);
      EXPECT_NEAR(d.at(m, k).imag(), expected.imag(), 1e-14);
    }
}

TEST(Spectral, RejectsTooCoarseGrids) {
  GaussianGrid tiny(32, 20);
  EXPECT_THROW(SpectralTransform(tiny, 15), Error);  // nlon < 3*15+1
}

// Every entry point checks its fields against the grid and the truncation
// before the kernel indexes them, in Release builds too (Field2Dd and
// SpectralField bounds are debug-only assertions).
TEST(Spectral, EveryEntryPointRejectsMisshapenFields) {
  R15 r;
  SpectralWorkspace ws;
  const Field2Dd g(48, 40, 1.0);
  const Field2Dd short_g(48, 39, 1.0);  // one latitude row missing
  const SpectralField s(15, 16);
  const SpectralField short_k(15, 15);  // right mmax, wrong kmax
  const SpectralField short_m(14, 16);
  Field2Dd U, V;

  EXPECT_THROW(r.st.analyze(short_g), Error);
  EXPECT_THROW(r.st.analyze(short_g, ws), Error);
  EXPECT_THROW(r.st.synthesize(short_k), Error);
  EXPECT_THROW(r.st.synthesize(short_m, ws), Error);
  EXPECT_THROW(r.st.analyze_div(short_g, g), Error);
  EXPECT_THROW(r.st.analyze_div(g, short_g), Error);
  EXPECT_THROW(r.st.analyze_curl(short_g, g), Error);
  EXPECT_THROW(r.st.analyze_curl(g, short_g), Error);
  EXPECT_THROW(r.st.uv_from_psi_chi(short_k, s, U, V), Error);
  EXPECT_THROW(r.st.uv_from_psi_chi(s, short_k, U, V), Error);
  EXPECT_THROW(r.st.analyze_batch({&g, &short_g}, ws), Error);
  EXPECT_THROW(r.st.synthesize_batch({&s, &short_k}, {&U, &V}, ws), Error);
  EXPECT_THROW(r.st.analyze_div_batch({&g}, {&short_g}, ws), Error);
  EXPECT_THROW(r.st.analyze_curl_batch({&short_g}, {&g}, ws), Error);
  EXPECT_THROW(r.st.uv_from_psi_chi_batch({&s}, {&short_m}, {&U}, {&V}, ws),
               Error);

  // Every rank sees the same bad call and rejects it before the allreduce.
  par::run(2, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    ParSpectralTransform pst(r.st, owned[comm.rank()]);
    Field2Dd out(48, 40), out2(48, 40), short_out(48, 39);
    EXPECT_THROW(pst.analyze(comm, short_g), Error);
    EXPECT_THROW(pst.synthesize(short_k, out), Error);
    EXPECT_THROW(pst.synthesize(s, short_out), Error);
    EXPECT_THROW(pst.analyze_div(comm, short_g, g), Error);
    EXPECT_THROW(pst.analyze_curl(comm, g, short_g), Error);
    EXPECT_THROW(pst.uv_from_psi_chi(s, short_k, out, out2), Error);
    EXPECT_THROW(pst.uv_from_psi_chi(s, s, out, short_out), Error);
    EXPECT_THROW(pst.analyze_batch(comm, {&g, &short_g}), Error);
    EXPECT_THROW(pst.synthesize_batch({&s}, {&short_out}), Error);
    EXPECT_THROW(pst.analyze_div_batch(comm, {&short_g}, {&g}), Error);
    EXPECT_THROW(pst.analyze_curl_batch(comm, {&g}, {&short_g}), Error);
    EXPECT_THROW(
        pst.uv_from_psi_chi_batch({&short_m}, {&s}, {&out}, {&out2}), Error);
    // The rejected calls left the transform usable.
    const SpectralField ok = pst.analyze(comm, g);
    EXPECT_NEAR(ok.at(0, 0).real(), 1.0, 1e-12);
  });
}

class ParSpectralRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParSpectralRanks, MatchesSerialTransform) {
  const int nranks = GetParam();
  R15 r;
  const SpectralField s_in = random_spectral(15, 16, 61);
  const Field2Dd g_ref = r.st.synthesize(s_in);
  const SpectralField spec_ref = r.st.analyze(g_ref);

  par::run(nranks, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    ParSpectralTransform pst(r.st, owned[comm.rank()]);
    // Parallel analysis of the full grid field (each rank reads only its
    // own latitude rows).
    const SpectralField spec = pst.analyze(comm, g_ref);
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(spec.at(m, k) - spec_ref.at(m, k)), 0.0, 1e-11);
    // Parallel synthesis fills only owned rows; assemble and compare.
    Field2Dd local(48, 40, 0.0);
    pst.synthesize(spec, local);
    for (const int j : owned[comm.rank()])
      for (int i = 0; i < 48; ++i)
        EXPECT_NEAR(local(i, j), g_ref(i, j), 1e-10);
  });
}

TEST_P(ParSpectralRanks, ParallelCurlMatchesSerial) {
  const int nranks = GetParam();
  R15 r;
  SpectralField psi = random_spectral(15, 16, 67);
  psi *= 1.0e7;
  for (int m = 0; m <= 15; ++m) psi.at(m, 15) = cplx(0.0, 0.0);
  SpectralField chi(15, 16);
  Field2Dd U, V;
  r.st.uv_from_psi_chi(psi, chi, U, V);
  const SpectralField ref = r.st.analyze_curl(U, V);

  par::run(nranks, [&](par::Comm& comm) {
    const auto owned = par::paired_latitudes(40, comm.size());
    ParSpectralTransform pst(r.st, owned[comm.rank()]);
    const SpectralField curl = pst.analyze_curl(comm, U, V);
    for (int m = 0; m <= 15; ++m)
      for (int k = 0; k < 16; ++k)
        EXPECT_NEAR(std::abs(curl.at(m, k) - ref.at(m, k)), 0.0, 1e-11);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParSpectralRanks,
                         ::testing::Values(1, 2, 4, 5));

}  // namespace
}  // namespace foam::numerics
