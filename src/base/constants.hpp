#pragma once

/// \file constants.hpp
/// Physical and model constants shared by all FOAM components.
///
/// Values follow the CCM2/CCM3 technical notes where the paper references
/// them; purely numerical tuning constants live with the component that owns
/// them.

#include <cstdint>

namespace foam::constants {

inline constexpr double pi = 3.14159265358979323846;
inline constexpr double two_pi = 2.0 * pi;
inline constexpr double deg2rad = pi / 180.0;
inline constexpr double rad2deg = 180.0 / pi;

/// Radius of the earth [m].
inline constexpr double earth_radius = 6.371e6;
/// Rotation rate of the earth [1/s].
inline constexpr double earth_omega = 7.292e-5;
/// Gravitational acceleration [m/s^2].
inline constexpr double gravity = 9.80616;

/// Gas constant for dry air [J/(kg K)].
inline constexpr double r_dry = 287.04;
/// Gas constant for water vapour [J/(kg K)].
inline constexpr double r_vapor = 461.5;
/// Specific heat of dry air at constant pressure [J/(kg K)].
inline constexpr double cp_dry = 1004.64;
/// kappa = R/cp for dry air.
inline constexpr double kappa = r_dry / cp_dry;
/// Latent heat of vaporization [J/kg].
inline constexpr double latent_vap = 2.501e6;
/// Latent heat of fusion [J/kg].
inline constexpr double latent_fus = 3.336e5;
/// Latent heat of sublimation [J/kg].
inline constexpr double latent_sub = latent_vap + latent_fus;

/// Stefan-Boltzmann constant [W/(m^2 K^4)].
inline constexpr double stefan_boltzmann = 5.67e-8;
/// Solar constant [W/m^2].
inline constexpr double solar_constant = 1367.0;
/// Von Karman constant.
inline constexpr double von_karman = 0.4;

/// Density of sea water [kg/m^3].
inline constexpr double rho_sea_water = 1025.0;
/// Density of fresh water [kg/m^3].
inline constexpr double rho_fresh_water = 1000.0;
/// Specific heat of sea water [J/(kg K)].
inline constexpr double cp_sea_water = 3996.0;
/// Freezing point of sea water, the ocean-model temperature clamp used when
/// sea ice is present (paper section 4.3) [deg C].
inline constexpr double sea_ice_freeze_c = -1.92;
/// Melting point of fresh ice [K].
inline constexpr double t_melt = 273.15;

/// Reference surface pressure [Pa].
inline constexpr double p_ref = 1.0e5;

/// Effective river flow velocity u of the Miller et al. routing scheme
/// adopted by the FOAM coupler [m/s].
inline constexpr double river_flow_velocity = 0.35;
/// Soil-moisture bucket capacity of the FOAM hydrology box model [m].
inline constexpr double bucket_capacity_m = 0.15;
/// Snow depth (liquid-water equivalent) above which excess snow is routed to
/// the river model to mimic ice-sheet near-equilibrium [m].
inline constexpr double snow_cap_lwe_m = 1.0;
/// Divisor applied to ice-atmosphere stress before it is passed to the
/// ocean model (paper section 4.3).
inline constexpr double ice_stress_divisor = 15.0;
/// Freshwater flux extracted from the ocean when sea ice forms [m].
inline constexpr double ice_formation_flux_m = 2.0;

/// Seconds per (model) day; FOAM uses a 365-day no-leap calendar.
inline constexpr double seconds_per_day = 86400.0;
/// The same day length for the calendar's whole-second int64 arithmetic.
inline constexpr std::int64_t seconds_per_day_i = 86400;
inline constexpr int days_per_year = 365;

}  // namespace foam::constants
