#pragma once

/// \file filters.hpp
/// Horizontal filters and dissipation operators for grid-point models.
///
/// * PolarFourierFilter — the "spatial filter similar to the sort used in
///   atmospheric models" that keeps the FOAM ocean stable in the Arctic:
///   poleward of a critical latitude, zonal wavenumbers whose physical
///   wavelength falls below the critical-latitude resolution are attenuated.
/// * laplacian_masked / biharmonic_tendency — metric-aware 5-point Laplacian
///   with land masking (no-flux walls) and the del^4 dissipation built from
///   it ("spatial mode splitting on the grid is prevented through the use of
///   a del^4 numerical dissipation").

#include <complex>
#include <vector>

#include "base/field.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"

namespace foam::numerics {

/// Zonal Fourier filter applied poleward of a critical latitude.
/// Wavenumber m at latitude phi keeps the fraction
///   f_m(phi) = min(1, m_max(phi) / m),  m_max = (nlon/2) cos(phi)/cos(phi_c)
/// so the shortest retained physical wavelength never falls below the one
/// resolved at the critical latitude. m = 0 (the zonal mean) always passes
/// unchanged, and the filter never amplifies.
class PolarFourierFilter {
 public:
  PolarFourierFilter(const MercatorGrid& grid, double crit_lat_deg = 60.0);

  /// Transform scratch for filter_row: the caller owns one per thread, so
  /// filtering a row allocates nothing.
  struct Workspace {
    std::vector<std::complex<double>> spec;
    std::vector<std::complex<double>> work;
  };
  Workspace make_workspace() const;

  /// True when grid row \p j lies poleward of the critical latitude, i.e.
  /// the filter acts on it.
  bool filters_row(int j) const { return grid_.cos_lat(j) < cos_crit_; }

  /// Filter one zonal row of nlon values at grid row \p j in place. With a
  /// \p mask (nullptr = all wet), dry cells are filled with the row's wet
  /// mean for the transform so the filter sees no artificial jumps at
  /// coastlines, and only wet cells are written back; a row with no wet
  /// cell is left untouched. The transform is FftPlan's complex path, so
  /// the result is bitwise that of the reference Fft.
  void filter_row(double* row, const int* mask, int j, Workspace& ws) const;

  /// Filter one 2-D field in place: every row poleward of the critical
  /// latitude goes through filter_row. Land cells (mask == 0) keep their
  /// values (the filter is a numerical-stability device, exact
  /// conservation near coasts is not required — the paper's usage).
  void apply(Field2Dd& f, const Field2D<int>& mask) const;
  void apply(Field2Dd& f) const;

  /// Attenuation factor for wavenumber m at latitude row j (1 = untouched).
  double factor(int m, int j) const;

  double crit_lat_deg() const { return crit_lat_deg_; }

 private:
  const MercatorGrid& grid_;
  double crit_lat_deg_;
  double cos_crit_;
  FftPlan plan_;
  /// factor(m, j) tabulated for m = 0..nlon/2, row-major in j.
  std::vector<double> gain_;
};

/// Masked metric Laplacian on a Mercator grid: for each ocean cell,
///   lap = (1/dx^2)(f_e - 2f + f_w) + (1/(dy^2))(f_n - 2f + f_s)
/// with one-sided closure at land (no-flux). Longitude wraps periodically.
void laplacian_masked(const MercatorGrid& grid, const Field2Dd& f,
                      const Field2D<int>& mask, Field2Dd& out);

/// laplacian_masked restricted to rows [j0, j1) and columns [i0, i1) of
/// \p out (already grid-sized); cells outside the box are not written.
/// Longitude still wraps, so a box edge reads its neighbour column.
void laplacian_masked_box(const MercatorGrid& grid, const Field2Dd& f,
                          const Field2D<int>& mask, Field2Dd& out, int j0,
                          int j1, int i0, int i1);

/// Biharmonic (del^4) dissipation tendency: out = -k4 * lap(lap(f)).
/// k4 in m^4/s.
void biharmonic_tendency(const MercatorGrid& grid, const Field2Dd& f,
                         const Field2D<int>& mask, double k4, Field2Dd& out);

}  // namespace foam::numerics
