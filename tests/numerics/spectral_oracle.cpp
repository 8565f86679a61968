#include "spectral_oracle.hpp"

#include <complex>
#include <vector>

#include "base/constants.hpp"

namespace foam::numerics::oracle {

using cplx = std::complex<double>;
using constants::earth_radius;

namespace {

/// Fourier modes 0..mmax of latitude row j, with the 1/nlon normalization.
std::vector<cplx> fourier_row(const Fft& fft, int mmax, const Field2Dd& f,
                              int j) {
  const int nlon = f.nx();
  std::vector<double> row(nlon);
  for (int i = 0; i < nlon; ++i) row[i] = f(i, j);
  const std::vector<cplx> spec = fft.forward_real(row);
  std::vector<cplx> fm(mmax + 1);
  for (int m = 0; m <= mmax; ++m) fm[m] = spec[m] / static_cast<double>(nlon);
  return fm;
}

/// Inverse of fourier_row: modes 0..mmax into grid row j.
void inv_fourier_row(const Fft& fft, const std::vector<cplx>& fm, Field2Dd& f,
                     int j) {
  const int nlon = f.nx();
  std::vector<cplx> spec(nlon / 2 + 1, cplx(0.0, 0.0));
  for (std::size_t m = 0; m < fm.size(); ++m)
    spec[m] = fm[m] * static_cast<double>(nlon);
  const std::vector<double> row = fft.inverse_real(spec);
  for (int i = 0; i < nlon; ++i) f(i, j) = row[i];
}

/// Quadrature weight of the vector analysis at row j.
double vec_weight(const GaussianGrid& grid, int j) {
  const double mu = grid.mu(j);
  return 0.5 * grid.gauss_weight(j) / (earth_radius * (1.0 - mu * mu));
}

SpectralField analyze_vec(const GaussianGrid& grid, const LegendreTable& t,
                          const Fft& fft, const Field2Dd& A,
                          const Field2Dd& B, bool curl) {
  SpectralField s(t.mmax(), t.kmax());
  for (int j = 0; j < grid.nlat(); ++j) {
    const std::vector<cplx> am = fourier_row(fft, t.mmax(), A, j);
    const std::vector<cplx> bm = fourier_row(fft, t.mmax(), B, j);
    const double wj = vec_weight(grid, j);
    for (int m = 0; m <= t.mmax(); ++m) {
      const cplx im(0.0, static_cast<double>(m));
      // div: (i m A) P - B H;  curl: (i m B) P + A H.
      const cplx cp = im * (curl ? bm[m] : am[m]) * wj;
      const cplx ch = (curl ? am[m] : -bm[m]) * wj;
      for (int k = 0; k < t.kmax(); ++k)
        s.at(m, k) += cp * t.p(m, k, j) + ch * t.h(m, k, j);
    }
  }
  return s;
}

}  // namespace

SpectralField analyze(const GaussianGrid& grid, const LegendreTable& table,
                      const Fft& fft, const Field2Dd& f) {
  SpectralField s(table.mmax(), table.kmax());
  for (int j = 0; j < grid.nlat(); ++j) {
    const std::vector<cplx> fm = fourier_row(fft, table.mmax(), f, j);
    const double wj = 0.5 * grid.gauss_weight(j);
    for (int m = 0; m <= table.mmax(); ++m)
      for (int k = 0; k < table.kmax(); ++k)
        s.at(m, k) += wj * fm[m] * table.p(m, k, j);
  }
  return s;
}

Field2Dd synthesize(const GaussianGrid& grid, const LegendreTable& table,
                    const Fft& fft, const SpectralField& s) {
  Field2Dd f(grid.nlon(), grid.nlat());
  std::vector<cplx> fm(table.mmax() + 1);
  for (int j = 0; j < grid.nlat(); ++j) {
    for (int m = 0; m <= table.mmax(); ++m) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < table.kmax(); ++k)
        acc += s.at(m, k) * table.p(m, k, j);
      fm[m] = acc;
    }
    inv_fourier_row(fft, fm, f, j);
  }
  return f;
}

SpectralField analyze_div(const GaussianGrid& grid, const LegendreTable& table,
                          const Fft& fft, const Field2Dd& A,
                          const Field2Dd& B) {
  return analyze_vec(grid, table, fft, A, B, /*curl=*/false);
}

SpectralField analyze_curl(const GaussianGrid& grid,
                           const LegendreTable& table, const Fft& fft,
                           const Field2Dd& A, const Field2Dd& B) {
  return analyze_vec(grid, table, fft, A, B, /*curl=*/true);
}

void uv_from_psi_chi(const GaussianGrid& grid, const LegendreTable& table,
                     const Fft& fft, const SpectralField& psi,
                     const SpectralField& chi, Field2Dd& U, Field2Dd& V) {
  U = Field2Dd(grid.nlon(), grid.nlat());
  V = Field2Dd(grid.nlon(), grid.nlat());
  std::vector<cplx> um(table.mmax() + 1), vm(table.mmax() + 1);
  for (int j = 0; j < grid.nlat(); ++j) {
    for (int m = 0; m <= table.mmax(); ++m) {
      const cplx im(0.0, static_cast<double>(m));
      cplx u(0.0, 0.0), v(0.0, 0.0);
      for (int k = 0; k < table.kmax(); ++k) {
        const double p = table.p(m, k, j);
        const double h = table.h(m, k, j);
        u += im * chi.at(m, k) * p - psi.at(m, k) * h;
        v += im * psi.at(m, k) * p + chi.at(m, k) * h;
      }
      um[m] = u / earth_radius;
      vm[m] = v / earth_radius;
    }
    inv_fourier_row(fft, um, U, j);
    inv_fourier_row(fft, vm, V, j);
  }
}

}  // namespace foam::numerics::oracle
