#include "atm/column.hpp"

#include <algorithm>
#include <cmath>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::atm {

namespace c = foam::constants;

std::vector<double> sigma_levels(int nlev) {
  FOAM_REQUIRE(nlev >= 2, "nlev=" << nlev);
  // Quadratic stretching: finer resolution near the surface, like the
  // hybrid 18-level CCM2 grid.
  std::vector<double> sig(nlev);
  for (int k = 0; k < nlev; ++k) {
    const double x = (k + 0.5) / nlev;  // 0 at top, 1 at surface
    sig[k] = 0.01 + 0.99 * x * (0.4 + 0.6 * x);
  }
  return sig;
}

double saturation_q(double t_k, double p_pa) {
  const double t_c = t_k - 273.15;
  const double es = 610.78 * std::exp(17.27 * t_c / (t_c + 237.3));
  const double e = std::min(es, 0.5 * p_pa);
  return 0.622 * e / (p_pa - 0.378 * e);
}

double bulk_transfer_coefficient(double z_ref, double z0, double ri_bulk) {
  FOAM_REQUIRE(z_ref > z0 && z0 > 0.0, "z_ref=" << z_ref << " z0=" << z0);
  const double log_ratio = std::log(z_ref / z0);
  const double cn = c::von_karman * c::von_karman / (log_ratio * log_ratio);
  // Louis (1979)-type stability functions. The unstable branch keeps the
  // sqrt(z/z0) factor of the original scheme: it bounds the free-convection
  // enhancement as -Ri grows, so strongly heated surfaces (hot desert over a
  // cooler boundary layer) saturate near the convective limit instead of
  // producing runaway transfer coefficients and unphysical kW/m^2 fluxes.
  if (ri_bulk < 0.0) {
    const double c_unstable =
        75.0 * cn * std::sqrt((z_ref / z0) * -ri_bulk);
    return cn * (1.0 - 10.0 * ri_bulk / (1.0 + c_unstable));
  }
  const double denom = 1.0 + 10.0 * ri_bulk * (1.0 + 8.0 * ri_bulk);
  return cn / denom;
}

double ocean_roughness_ccm3(double wind_speed) {
  // Charnock with a smooth-flow floor: z0 = a u*^2 / g, u* ~ sqrt(Cd) U.
  const double cd_guess = 1.3e-3;
  const double ustar2 = cd_guess * wind_speed * wind_speed;
  return std::max(1.5e-5, 0.018 * ustar2 / c::gravity);
}

std::vector<double> radiation_heating(const AtmConfig& cfg, const Column& col,
                                      const Surface& sfc, double cos_zenith,
                                      ColumnFluxes& fluxes) {
  const int nlev = static_cast<int>(col.t.size());
  const auto sig = sigma_levels(nlev);
  std::vector<double> heat(nlev, 0.0);

  // --- shortwave -------------------------------------------------------
  const double s0 = c::solar_constant * std::max(0.0, cos_zenith);
  // Cloud fraction from column relative humidity (simple diagnostic).
  double rh_mid = 0.0;
  int nmid = 0;
  for (int k = nlev / 3; k < nlev; ++k) {
    const double p = sig[k] * col.ps;
    rh_mid += std::min(1.2, col.q[k] / std::max(1e-9, saturation_q(col.t[k], p)));
    ++nmid;
  }
  rh_mid /= std::max(1, nmid);
  const double cloud = std::clamp(1.6 * (rh_mid - 0.55), 0.0, 0.85);
  const double cloud_albedo = 0.45 * cloud;
  // Atmospheric SW absorption (water vapour), surface absorption.
  const double atm_abs = 0.18;
  const double sw_after_cloud = s0 * (1.0 - cloud_albedo);
  const double sw_sfc_incident = sw_after_cloud * (1.0 - atm_abs);
  fluxes.sw_absorbed_sfc = sw_sfc_incident * (1.0 - sfc.albedo);
  fluxes.sw_toa = fluxes.sw_absorbed_sfc + sw_after_cloud * atm_abs;
  // Distribute the atmospheric SW absorption by mass.
  for (int k = 0; k < nlev; ++k) {
    const double dsig = 1.0 / nlev;
    const double mass = col.ps * dsig / c::gravity;
    heat[k] += sw_after_cloud * atm_abs * dsig / (mass * c::cp_dry);
  }

  // --- longwave ---------------------------------------------------------
  // Gray emissivity from precipitable water + CO2 (15-um band stand-in) +
  // cloud longwave effect.
  double pwat = 0.0;
  for (int k = 0; k < nlev; ++k)
    pwat += col.q[k] * col.ps / (nlev * c::gravity);
  // Independent overlapping absorbers combine through their transmissions
  // (1 - eps_total = product of individual transmissions), so the CO2 band
  // retains its effect under a moist atmosphere instead of saturating.
  const double eps_h2o =
      1.0 - std::exp(-0.35 * std::sqrt(std::max(0.0, pwat)));
  const double eps_co2 = 0.18 * std::log(1.0 + 2.0 * cfg.co2_factor) /
                         std::log(3.0);
  const double eps_cloud = 0.10 * cloud;
  const double eps_atm = std::clamp(
      1.0 - (1.0 - eps_h2o) * (1.0 - eps_co2) * (1.0 - eps_cloud), 0.05,
      0.995);
  // Effective radiating temperatures: lower troposphere for downwelling,
  // upper troposphere for OLR's atmospheric part.
  const double t_low = col.t[nlev - 2];
  const double t_up = col.t[nlev / 3];
  fluxes.lw_down_sfc = eps_atm * c::stefan_boltzmann * std::pow(t_low, 4);
  fluxes.lw_up_sfc = c::stefan_boltzmann * std::pow(sfc.tsurf, 4);
  fluxes.olr = (1.0 - eps_atm) * fluxes.lw_up_sfc +
               eps_atm * c::stefan_boltzmann * std::pow(t_up, 4);
  // Column longwave heating: net divergence distributed with a cooling
  // profile (clear-sky cooling ~2 K/day in the troposphere), closed so
  // that column LW heating equals absorbed-at-surface minus emitted.
  const double lw_net_column =
      (fluxes.lw_up_sfc - fluxes.lw_down_sfc) - fluxes.olr +
      fluxes.lw_down_sfc - fluxes.lw_up_sfc + 0.0;  // = -olr (net to space)
  (void)lw_net_column;
  for (int k = 0; k < nlev; ++k) {
    // Radiative cooling toward a gray equilibrium profile.
    const double cool = 2.2 / c::seconds_per_day;  // K/s scale
    heat[k] -= cool * std::clamp((col.t[k] - 200.0) / 90.0, 0.2, 1.4);
  }
  return heat;
}

double moist_convection(const AtmConfig& cfg, Column& col, double dt) {
  const int nlev = static_cast<int>(col.t.size());
  const auto sig = sigma_levels(nlev);
  double rain = 0.0;

  // --- Hack-style shallow/middle moist adjustment (CCM2 and CCM3) ------
  // Sweep adjacent level pairs: when a lifted lower level is buoyant and
  // saturated, mix and rain out the excess moisture.
  for (int k = nlev - 1; k > 0; --k) {
    const double p_lo = sig[k] * col.ps;
    const double p_up = sig[k - 1] * col.ps;
    // Dry static energy check with moisture contribution.
    const double theta_lo =
        col.t[k] * std::pow(c::p_ref / p_lo, c::kappa);
    const double theta_up =
        col.t[k - 1] * std::pow(c::p_ref / p_up, c::kappa);
    const double qsat_lo = saturation_q(col.t[k], p_lo);
    const double buoyant =
        theta_lo + (c::latent_vap / c::cp_dry) * col.q[k] * 0.35 -
        (theta_up + (c::latent_vap / c::cp_dry) * col.q[k - 1] * 0.35);
    if (buoyant > 0.3 && col.q[k] > 0.85 * qsat_lo) {
      // Mix the pair and condense the supersaturation produced.
      const double tm = 0.5 * (theta_lo + theta_up);
      col.t[k] = tm * std::pow(p_lo / c::p_ref, c::kappa);
      col.t[k - 1] = tm * std::pow(p_up / c::p_ref, c::kappa);
      const double qm = 0.5 * (col.q[k] + col.q[k - 1]);
      col.q[k] = qm;
      col.q[k - 1] = qm;
      const double qex =
          std::max(0.0, col.q[k] - 0.9 * saturation_q(col.t[k], p_lo));
      col.q[k] -= qex;
      col.t[k] += qex * c::latent_vap / c::cp_dry;
      rain += qex * col.ps / (nlev * c::gravity) / dt;
    }
  }

  // --- Zhang-McFarlane-style deep convection (CCM3 only) ---------------
  if (cfg.physics == PhysicsVersion::kCcm3) {
    // CAPE proxy: boundary-layer moist static energy vs mid-troposphere
    // saturation moist static energy.
    const int kb = nlev - 1;
    const int km = nlev / 2;
    const double p_b = sig[kb] * col.ps;
    const double p_m = sig[km] * col.ps;
    const double h_b = c::cp_dry * col.t[kb] + c::latent_vap * col.q[kb] +
                       c::r_dry * col.t[kb] * std::log(c::p_ref / p_b);
    const double h_m_sat = c::cp_dry * col.t[km] +
                           c::latent_vap * saturation_q(col.t[km], p_m) +
                           c::r_dry * col.t[km] * std::log(c::p_ref / p_m);
    const double cape_proxy = (h_b - h_m_sat) / c::cp_dry;  // [K]
    if (cape_proxy > 1.0) {
      // Consume CAPE over a fixed adjustment time: move moisture from the
      // boundary layer upward, heat the mid troposphere, rain the excess.
      const double tau_adj = 2.0 * 3600.0;
      const double frac = std::min(0.5, dt / tau_adj);
      const double dq = frac * 0.5 * col.q[kb];
      col.q[kb] -= dq;
      const double condensed = 0.7 * dq;
      const double detrained = dq - condensed;
      for (int k = km; k < kb; ++k) {
        col.t[k] += condensed * c::latent_vap /
                    (c::cp_dry * (kb - km));
        col.q[k] += detrained / (kb - km);
      }
      rain += condensed * col.ps / (nlev * c::gravity) / dt;
    }
  }
  return rain;
}

double large_scale_condensation(const AtmConfig& cfg, Column& col,
                                double dt) {
  const int nlev = static_cast<int>(col.t.size());
  const auto sig = sigma_levels(nlev);
  double rain = 0.0;
  for (int k = 0; k < nlev; ++k) {
    const double p = sig[k] * col.ps;
    const double qsat = saturation_q(col.t[k], p);
    if (col.q[k] > qsat) {
      const double dq = col.q[k] - qsat;
      col.q[k] = qsat;
      col.t[k] += dq * c::latent_vap / c::cp_dry;
      double flux = dq * col.ps / (nlev * c::gravity) / dt;
      // CCM3: evaporate part of the falling stratiform precipitation into
      // the subsaturated layers below.
      if (cfg.physics == PhysicsVersion::kCcm3) {
        for (int kk = k + 1; kk < nlev && flux > 0.0; ++kk) {
          const double pk = sig[kk] * col.ps;
          const double deficit =
              std::max(0.0, 0.8 * saturation_q(col.t[kk], pk) - col.q[kk]);
          const double evap =
              std::min(flux * 0.25,
                       deficit * col.ps / (nlev * c::gravity) / dt);
          flux -= evap;
          const double dqe = evap * dt * nlev * c::gravity / col.ps;
          col.q[kk] += dqe;
          col.t[kk] -= dqe * c::latent_vap / c::cp_dry;
        }
      }
      rain += flux;
    }
  }
  return rain;
}

ColumnFluxes step_column_physics(const AtmConfig& cfg, Column& col,
                                 const Surface& sfc,
                                 const std::vector<double>& rad_heat,
                                 double u_sfc, double v_sfc, double dt) {
  const int nlev = static_cast<int>(col.t.size());
  const auto sig = sigma_levels(nlev);
  ColumnFluxes fluxes;

  // Apply the cached radiative heating rates every step.
  FOAM_REQUIRE(static_cast<int>(rad_heat.size()) == nlev,
               "rad_heat size " << rad_heat.size());
  for (int k = 0; k < nlev; ++k) col.t[k] += rad_heat[k] * dt;

  // --- surface fluxes ----------------------------------------------------
  const int kb = nlev - 1;
  const double p_b = sig[kb] * col.ps;
  const double rho = p_b / (c::r_dry * col.t[kb]);
  const double wind =
      std::max(1.0, std::sqrt(u_sfc * u_sfc + v_sfc * v_sfc));
  double z0 = sfc.roughness;
  if (sfc.is_ocean && !sfc.is_ice) {
    z0 = (cfg.physics == PhysicsVersion::kCcm3)
             ? ocean_roughness_ccm3(wind)
             : 1.0e-4;  // CCM2: constant ocean roughness
  }
  const double z_ref = 70.0;  // lowest-level height proxy [m]
  // Bulk Richardson number of the surface layer.
  const double dtheta = col.t[kb] - sfc.tsurf;
  const double ri = c::gravity * z_ref * dtheta /
                    (col.t[kb] * wind * wind);
  const double ch = bulk_transfer_coefficient(z_ref, z0, ri);
  const double cd = bulk_transfer_coefficient(z_ref, 10.0 * z0, ri);
  fluxes.sensible = rho * c::cp_dry * ch * wind * (sfc.tsurf - col.t[kb]);
  const double qsat_s = saturation_q(sfc.tsurf, col.ps);
  const double evap_potential = rho * ch * wind * (qsat_s - col.q[kb]);
  fluxes.evaporation = std::max(0.0, sfc.wetness * evap_potential);
  const double lheat =
      (sfc.is_ice || sfc.tsurf < c::t_melt) ? c::latent_sub : c::latent_vap;
  fluxes.latent = fluxes.evaporation * lheat;
  fluxes.taux = rho * cd * wind * u_sfc;
  fluxes.tauy = rho * cd * wind * v_sfc;

  // Apply surface fluxes to the lowest layer.
  const double mass_b = col.ps / (nlev * c::gravity);
  col.t[kb] += fluxes.sensible * dt / (mass_b * c::cp_dry);
  col.q[kb] += fluxes.evaporation * dt / mass_b;

  // --- boundary layer: implicit vertical diffusion of t (as potential
  // temperature) and q with a PBL-depth-limited K profile ---------------
  {
    const double k_pbl = 12.0 * std::clamp(1.0 - 4.0 * std::max(0.0, ri),
                                           0.05, 2.0);
    std::vector<double> theta(nlev);
    for (int k = 0; k < nlev; ++k)
      theta[k] = col.t[k] * std::pow(c::p_ref / (sig[k] * col.ps), c::kappa);
    const double dz_proxy = 800.0;  // layer thickness proxy [m]
    const double r = k_pbl * dt / (dz_proxy * dz_proxy);
    // Simple implicit tri-diagonal over the lowest third of the column.
    const int k_top = 2 * nlev / 3;
    for (int it = 0; it < 2; ++it) {
      for (int k = nlev - 1; k > k_top; --k) {
        const double mix = r / (1.0 + 2.0 * r);
        const double dth = theta[k - 1] - theta[k];
        theta[k] += mix * dth;
        theta[k - 1] -= mix * dth;
        const double dq = col.q[k - 1] - col.q[k];
        col.q[k] += mix * dq;
        col.q[k - 1] -= mix * dq;
      }
    }
    for (int k = 0; k < nlev; ++k)
      col.t[k] = theta[k] * std::pow(sig[k] * col.ps / c::p_ref, c::kappa);
  }

  // --- moist processes ----------------------------------------------------
  double rain = moist_convection(cfg, col, dt);
  rain += large_scale_condensation(cfg, col, dt);
  // Snow when the lower troposphere is below freezing.
  if (col.t[nlev - 2] < c::t_melt) {
    fluxes.precip_snow = rain;
  } else {
    fluxes.precip_rain = rain;
  }

  // Moisture cannot go negative (round-off from the schemes above).
  for (auto& qv : col.q) qv = std::max(0.0, qv);
  return fluxes;
}

}  // namespace foam::atm
