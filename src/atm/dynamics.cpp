#include "atm/dynamics.hpp"

#include <cmath>

#include "base/constants.hpp"

namespace foam::atm {

namespace c = foam::constants;
using numerics::SpectralField;

namespace {

/// Climatological zonal-mean zonal wind [m/s] for dynamical level l
/// (0 = upper troposphere ... ndyn-1 = near surface).
double u_climatology(double lat, int l, int ndyn) {
  const double s2 = std::sin(2.0 * lat);
  const double envelope = std::exp(-std::pow(lat / (75.0 * c::deg2rad), 8.0));
  if (l == ndyn - 1) {
    // Surface level: trades / westerlies / polar easterlies.
    return -7.0 * std::cos(3.0 * lat) * envelope;
  }
  const double amp = (l == 0) ? 35.0 : 18.0;
  return (amp * s2 * s2 - 3.0) * envelope;
}

/// Deterministic uniform noise in [-1, 1] (LCG); identical sequence on
/// every rank so the stirring needs no communication.
double lcg_noise(unsigned& state) {
  state = state * 1664525u + 1013904223u;
  return 2.0 * (static_cast<double>(state >> 8) /
                static_cast<double>(1u << 24)) -
         1.0;
}

}  // namespace

SpectralDynamics::SpectralDynamics(const AtmConfig& cfg,
                                   const numerics::SpectralTransform& st,
                                   std::vector<int> my_lats)
    : cfg_(cfg),
      st_(st),
      pst_(st, my_lats),
      my_lats_(std::move(my_lats)),
      planetary_(st.mmax(), st.kmax()) {
  const int nd = cfg_.ndyn;
  FOAM_REQUIRE(nd >= 1, "ndyn=" << nd);
  zeta_.assign(nd, SpectralField(st.mmax(), st.kmax()));
  zeta_prev_.assign(nd, SpectralField(st.mmax(), st.kmax()));
  jet_.assign(nd, SpectralField(st.mmax(), st.kmax()));
  u_.assign(nd, Field2Dd(st.grid().nlon(), st.grid().nlat(), 0.0));
  v_.assign(nd, Field2Dd(st.grid().nlon(), st.grid().nlat(), 0.0));
  // Planetary vorticity f = 2 Omega mu: spectral (m=0, n=1) coefficient.
  // f = 2*Omega*mu = 2*Omega/sqrt(3) * Pbar_1^0(mu).
  planetary_.at(0, 1) = 2.0 * c::earth_omega / std::sqrt(3.0);
}

SpectralField SpectralDynamics::jet_climatology(int l) const {
  // Relative vorticity of the zonal climatological flow via the curl
  // analysis of its wind images.
  const auto& grid = st_.grid();
  Field2Dd uimg(grid.nlon(), grid.nlat());
  Field2Dd vimg(grid.nlon(), grid.nlat(), 0.0);
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j);
    double uu = u_climatology(lat, l, cfg_.ndyn);
    if (l == cfg_.ndyn - 1 &&
        static_cast<int>(thermal_jet_.size()) == grid.nlat())
      uu = thermal_jet_[j];
    const double img = uu * std::cos(lat);
    for (int i = 0; i < grid.nlon(); ++i) uimg(i, j) = img;
  }
  return st_.analyze_curl(uimg, vimg);
}

void SpectralDynamics::init(unsigned seed) {
  noise_state_ = seed;
  for (int l = 0; l < cfg_.ndyn; ++l) {
    jet_[l] = jet_climatology(l);
    zeta_[l] = jet_[l];
    // Small deterministic perturbation on synoptic wavenumbers.
    for (int m = 3; m <= std::min(8, st_.mmax()); ++m)
      for (int k = 0; k < 4 && k < st_.kmax(); ++k)
        zeta_[l].at(m, k) += std::complex<double>(
            2.0e-6 * lcg_noise(noise_state_),
            2.0e-6 * lcg_noise(noise_state_));
    zeta_prev_[l] = zeta_[l];
  }
  have_prev_ = false;
  synthesize_winds();
}

void SpectralDynamics::set_thermal_jet(
    const std::vector<double>& u_target_per_lat) {
  FOAM_REQUIRE(static_cast<int>(u_target_per_lat.size()) ==
                   st_.grid().nlat(),
               "thermal jet size " << u_target_per_lat.size());
  thermal_jet_ = u_target_per_lat;
  jet_[cfg_.ndyn - 1] = jet_climatology(cfg_.ndyn - 1);
}

void SpectralDynamics::synthesize_winds() {
  const auto& grid = st_.grid();
  const int nd = cfg_.ndyn;
  // All levels through one batched inverse transform: the Legendre panels
  // are loaded once per latitude pair for the whole level stack.
  std::vector<SpectralField> psis(nd, SpectralField(st_.mmax(), st_.kmax()));
  const SpectralField chi(st_.mmax(), st_.kmax());  // nondivergent core
  std::vector<const SpectralField*> psi_ptrs(nd), chi_ptrs(nd);
  std::vector<Field2Dd*> u_ptrs(nd), v_ptrs(nd);
  for (int l = 0; l < nd; ++l) {
    psis[l] = zeta_[l];
    st_.inverse_laplacian(psis[l]);
    psi_ptrs[l] = &psis[l];
    chi_ptrs[l] = &chi;
    u_ptrs[l] = &u_[l];
    v_ptrs[l] = &v_[l];
  }
  pst_.uv_from_psi_chi_batch(psi_ptrs, chi_ptrs, u_ptrs, v_ptrs);
  // Divide out the cos(lat) image on owned rows.
  for (int l = 0; l < nd; ++l) {
    for (const int j : my_lats_) {
      const double inv_cos = 1.0 / std::cos(grid.lat(j));
      for (int i = 0; i < grid.nlon(); ++i) {
        u_[l](i, j) *= inv_cos;
        v_[l](i, j) *= inv_cos;
      }
    }
  }
}

void SpectralDynamics::step(par::Comm* comm) {
  const double dt = cfg_.dt;
  const double dt2 = have_prev_ ? 2.0 * dt : dt;
  const auto& grid = st_.grid();
  const int nlon = grid.nlon();
  const double nn_max =
      static_cast<double>(st_.mmax() + st_.kmax() - 1) *
      (st_.mmax() + st_.kmax());

  const int nd = cfg_.ndyn;
  // Batched synthesis of all levels' absolute vorticity, then batched flux
  // divergence analysis (with one fused allreduce in the parallel case).
  std::vector<SpectralField> abs_zeta(nd, SpectralField(zeta_[0]));
  std::vector<Field2Dd> zg(nd, Field2Dd(nlon, grid.nlat(), 0.0));
  std::vector<const SpectralField*> az_ptrs(nd);
  std::vector<Field2Dd*> zg_ptrs(nd);
  for (int l = 0; l < nd; ++l) {
    abs_zeta[l] = zeta_[l];
    abs_zeta[l] += planetary_;
    az_ptrs[l] = &abs_zeta[l];
    zg_ptrs[l] = &zg[l];
  }
  pst_.synthesize_batch(az_ptrs, zg_ptrs);
  // Flux images A = U * zeta_a, B = V * zeta_a (winds are true winds;
  // the transform expects cos(lat) images, so multiply back).
  std::vector<Field2Dd> A(nd, Field2Dd(nlon, grid.nlat(), 0.0));
  std::vector<Field2Dd> B(nd, Field2Dd(nlon, grid.nlat(), 0.0));
  std::vector<const Field2Dd*> a_ptrs(nd), b_ptrs(nd);
  for (int l = 0; l < nd; ++l) {
    for (const int j : my_lats_) {
      const double cl = std::cos(grid.lat(j));
      for (int i = 0; i < nlon; ++i) {
        A[l](i, j) = u_[l](i, j) * cl * zg[l](i, j);
        B[l](i, j) = v_[l](i, j) * cl * zg[l](i, j);
      }
    }
    a_ptrs[l] = &A[l];
    b_ptrs[l] = &B[l];
  }
  std::vector<SpectralField> advs =
      (comm != nullptr) ? pst_.analyze_div_batch(*comm, a_ptrs, b_ptrs)
                        : st_.analyze_div_batch(a_ptrs, b_ptrs, ws_);

  for (int l = 0; l < nd; ++l) {
    const SpectralField& adv = advs[l];
    // Leapfrog with lagged del^4 damping and jet relaxation.
    const double tau_relax = 8.0 * c::seconds_per_day;
    SpectralField znew(st_.mmax(), st_.kmax());
    for (int m = 0; m <= st_.mmax(); ++m) {
      for (int k = 0; k < st_.kmax(); ++k) {
        const int n = m + k;
        const double sel = static_cast<double>(n) * (n + 1) / nn_max;
        const double damp = sel * sel / cfg_.tau_del4;
        const std::complex<double> tend =
            -adv.at(m, k) +
            (jet_[l].at(m, k) - zeta_[l].at(m, k)) / tau_relax -
            damp * zeta_prev_[l].at(m, k);
        znew.at(m, k) = zeta_prev_[l].at(m, k) + dt2 * tend;
      }
    }
    // Baroclinic stirring: stochastic forcing at synoptic wavenumbers
    // stands in for the baroclinic eddy generation the reduced core lacks.
    const double stir = 2.0e-11 * std::sqrt(dt2);
    for (int m = 4; m <= std::min(7, st_.mmax()); ++m)
      for (int k = 0; k < 4 && k < st_.kmax(); ++k)
        znew.at(m, k) += std::complex<double>(stir * lcg_noise(noise_state_),
                                              stir * lcg_noise(noise_state_));

    // Robert-Asselin filter, rotate time levels.
    const double eps = cfg_.asselin;
    for (int m = 0; m <= st_.mmax(); ++m)
      for (int k = 0; k < st_.kmax(); ++k) {
        zeta_prev_[l].at(m, k) =
            zeta_[l].at(m, k) +
            eps * (znew.at(m, k) - 2.0 * zeta_[l].at(m, k) +
                   zeta_prev_[l].at(m, k));
        zeta_[l].at(m, k) = znew.at(m, k);
      }
  }
  have_prev_ = true;
  synthesize_winds();
}

namespace {

std::vector<double> spec_to_vec(const SpectralField& s) {
  std::vector<double> v(s.size() * 2);
  const double* raw = reinterpret_cast<const double*>(s.data());
  std::copy(raw, raw + v.size(), v.begin());
  return v;
}

void vec_to_spec(const std::vector<double>& v, SpectralField& s) {
  FOAM_REQUIRE(v.size() == s.size() * 2, "spectral checkpoint size");
  double* raw = reinterpret_cast<double*>(s.data());
  std::copy(v.begin(), v.end(), raw);
}

}  // namespace

void SpectralDynamics::save_state(HistoryWriter& out,
                                  const std::string& prefix) const {
  for (int l = 0; l < nlevels(); ++l) {
    out.write_series(prefix + ".zeta" + std::to_string(l),
                     spec_to_vec(zeta_[l]));
    out.write_series(prefix + ".zeta_prev" + std::to_string(l),
                     spec_to_vec(zeta_prev_[l]));
    out.write_series(prefix + ".jet" + std::to_string(l),
                     spec_to_vec(jet_[l]));
  }
  out.write_scalar(prefix + ".noise_state",
                   static_cast<double>(noise_state_));
  out.write_scalar(prefix + ".have_prev", have_prev_ ? 1.0 : 0.0);
  out.write_series(prefix + ".thermal_jet", thermal_jet_);
}

void SpectralDynamics::load_state(const HistoryReader& in,
                                  const std::string& prefix) {
  for (int l = 0; l < nlevels(); ++l) {
    vec_to_spec(in.find(prefix + ".zeta" + std::to_string(l)).data,
                zeta_[l]);
    vec_to_spec(in.find(prefix + ".zeta_prev" + std::to_string(l)).data,
                zeta_prev_[l]);
    vec_to_spec(in.find(prefix + ".jet" + std::to_string(l)).data, jet_[l]);
  }
  noise_state_ = static_cast<unsigned>(
      in.find(prefix + ".noise_state").data[0]);
  have_prev_ = in.find(prefix + ".have_prev").data[0] != 0.0;
  const auto& tj = in.find(prefix + ".thermal_jet");
  thermal_jet_.assign(tj.data.begin(), tj.data.end());
  synthesize_winds();
}

double SpectralDynamics::total_enstrophy() const {
  double sum = 0.0;
  for (const auto& z : zeta_) sum += z.power();
  return sum;
}

}  // namespace foam::atm
