#include "numerics/filters.hpp"

#include <cmath>

#include "base/constants.hpp"

namespace foam::numerics {

using constants::deg2rad;

PolarFourierFilter::PolarFourierFilter(const MercatorGrid& grid,
                                       double crit_lat_deg)
    : grid_(grid), crit_lat_deg_(crit_lat_deg),
      cos_crit_(std::cos(crit_lat_deg * deg2rad)), plan_(grid.nlon()) {
  FOAM_REQUIRE(crit_lat_deg > 0.0 && crit_lat_deg < 90.0,
               "crit_lat_deg=" << crit_lat_deg);
  const int nm = grid.nlon() / 2 + 1;
  gain_.resize(static_cast<std::size_t>(grid.nlat()) * nm);
  for (int j = 0; j < grid.nlat(); ++j)
    for (int m = 0; m < nm; ++m)
      gain_[static_cast<std::size_t>(j) * nm + m] = factor(m, j);
}

double PolarFourierFilter::factor(int m, int j) const {
  if (m == 0) return 1.0;
  const double cos_lat = grid_.cos_lat(j);
  if (cos_lat >= cos_crit_) return 1.0;  // equatorward of critical latitude
  const double m_max = 0.5 * grid_.nlon() * cos_lat / cos_crit_;
  return std::min(1.0, m_max / m);
}

PolarFourierFilter::Workspace PolarFourierFilter::make_workspace() const {
  Workspace ws;
  ws.spec.resize(static_cast<std::size_t>(plan_.size()));
  ws.work.resize(plan_.workspace_size());
  return ws;
}

void PolarFourierFilter::filter_row(double* row, const int* mask, int j,
                                    Workspace& ws) const {
  const int n = plan_.size();
  FOAM_REQUIRE(static_cast<int>(ws.spec.size()) == n &&
                   ws.work.size() >= plan_.workspace_size(),
               "filter workspace not from make_workspace()");
  std::complex<double>* x = ws.spec.data();
  if (mask == nullptr) {
    for (int i = 0; i < n; ++i) x[i] = {row[i], 0.0};
  } else {
    double mean = 0.0;
    int wet = 0;
    for (int i = 0; i < n; ++i)
      if (mask[i] != 0) {
        mean += row[i];
        ++wet;
      }
    if (wet == 0) return;
    mean /= wet;
    for (int i = 0; i < n; ++i) x[i] = {mask[i] != 0 ? row[i] : mean, 0.0};
  }
  plan_.forward(x, ws.work.data());
  const double* gain = gain_.data() + static_cast<std::size_t>(j) * (n / 2 + 1);
  for (int m = 1; m <= n / 2; ++m) x[m] *= gain[m];
  // Real input: rebuild the upper half from the filtered lower half.
  for (int k = n / 2 + 1; k < n; ++k) x[k] = std::conj(x[n - k]);
  plan_.inverse(x, ws.work.data());
  for (int i = 0; i < n; ++i)
    if (mask == nullptr || mask[i] != 0) row[i] = x[i].real();
}

void PolarFourierFilter::apply(Field2Dd& f) const {
  Workspace ws = make_workspace();
  for (int j = 0; j < grid_.nlat(); ++j)
    if (filters_row(j)) filter_row(&f(0, j), nullptr, j, ws);
}

void PolarFourierFilter::apply(Field2Dd& f, const Field2D<int>& mask) const {
  FOAM_REQUIRE(f.same_shape(Field2Dd(mask.nx(), mask.ny())),
               "mask shape mismatch");
  Workspace ws = make_workspace();
  for (int j = 0; j < grid_.nlat(); ++j)
    if (filters_row(j)) filter_row(&f(0, j), &mask(0, j), j, ws);
}

void laplacian_masked(const MercatorGrid& grid, const Field2Dd& f,
                      const Field2D<int>& mask, Field2Dd& out) {
  const int nx = grid.nlon();
  const int ny = grid.nlat();
  if (out.nx() != nx || out.ny() != ny) out = Field2Dd(nx, ny);
  laplacian_masked_box(grid, f, mask, out, 0, ny, 0, nx);
}

void laplacian_masked_box(const MercatorGrid& grid, const Field2Dd& f,
                          const Field2D<int>& mask, Field2Dd& out, int j0,
                          int j1, int i0, int i1) {
  const int nx = grid.nlon();
  const int ny = grid.nlat();
  FOAM_REQUIRE(f.nx() == nx && f.ny() == ny && out.nx() == nx &&
                   out.ny() == ny,
               "field shape");
  FOAM_REQUIRE(0 <= j0 && j0 <= j1 && j1 <= ny && 0 <= i0 && i0 <= i1 &&
                   i1 <= nx,
               "box [" << j0 << "," << j1 << ")x[" << i0 << "," << i1
                       << ")");
  for (int j = j0; j < j1; ++j) {
    const double inv_dx2 = 1.0 / (grid.dx(j) * grid.dx(j));
    const double inv_dy2 = 1.0 / (grid.dy(j) * grid.dy(j));
    for (int i = i0; i < i1; ++i) {
      if (mask(i, j) == 0) {
        out(i, j) = 0.0;
        continue;
      }
      const double fc = f(i, j);
      // No-flux closure: a land (or domain-edge) neighbour contributes the
      // center value, i.e. zero gradient across the wall.
      const double fe = (mask.wrap_x(i + 1, j) != 0) ? f.wrap_x(i + 1, j) : fc;
      const double fw = (mask.wrap_x(i - 1, j) != 0) ? f.wrap_x(i - 1, j) : fc;
      const double fn =
          (j + 1 < ny && mask(i, j + 1) != 0) ? f(i, j + 1) : fc;
      const double fs = (j - 1 >= 0 && mask(i, j - 1) != 0) ? f(i, j - 1) : fc;
      out(i, j) =
          (fe - 2.0 * fc + fw) * inv_dx2 + (fn - 2.0 * fc + fs) * inv_dy2;
    }
  }
}

void biharmonic_tendency(const MercatorGrid& grid, const Field2Dd& f,
                         const Field2D<int>& mask, double k4, Field2Dd& out) {
  FOAM_REQUIRE(k4 >= 0.0, "k4=" << k4);
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  laplacian_masked(grid, lap, mask, out);
  out *= -k4;
}

}  // namespace foam::numerics
