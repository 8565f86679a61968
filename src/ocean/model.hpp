#pragma once

/// \file model.hpp
/// The FOAM parallel ocean model (and, by configuration, its conventional
/// baseline).
///
/// A z-level primitive-equation ocean on an unstaggered (A-grid) Mercator
/// grid, following the description in paper §4.2:
///  * linear (non-advective) momentum dynamics with leapfrog time stepping
///    (Robert-Asselin filtered), explicit Coriolis, hydrostatic baroclinic
///    pressure gradients, wind stress, implicit Pacanowski-Philander
///    vertical mixing with a steepened Richardson dependency, Laplacian
///    lateral viscosity and del^4 dissipation against A-grid mode splitting;
///  * an explicitly represented free surface whose dynamics are
///    artificially *slowed* (continuity scaled by 1/slow_factor, reducing
///    the external wave speed by sqrt(slow_factor) while leaving steady
///    circulation unchanged);
///  * the fast 2-D barotropic subsystem *split* from the internal mode and
///    subcycled forward-backward with a short step while the internal ocean
///    takes a long one;
///  * an even longer step for the advective/diffusive (tracer) processes.
///    The paper's is a centred leapfrog; as built (DESIGN.md, as-built
///    deviation 2) tracers step forward in time with upwind transport, so
///    T and S carry a single time level.
///
/// The column kernels are row-tiled and level-major (rows, then levels,
/// then the x-contiguous columns), with per-column state in nx-long row
/// accumulators or nz x nx row tiles owned by the model; see model.cpp.
///
/// Parallelization: the domain is distributed in balanced contiguous boxes
/// over a px * py Cartesian rank grid (par::Decomp2D; px = 1 reproduces the
/// historic latitude-row decomposition rank-for-rank). Each rank computes
/// its box and keeps a one-cell halo ring current through nonblocking
/// message passing (rows first, then periodic columns over the extended row
/// range, so corners arrive consistent). Zonal operations that need whole
/// rows — the polar Fourier filter — transpose the polar rows across the
/// process row (one all-to-all deals each rank the segments of the rows it
/// filters, a balanced share), filter them, and transpose the owned
/// segments back. With comm == nullptr the model runs serially.

#include <cstdint>
#include <memory>
#include <vector>

#include "base/field.hpp"
#include "base/history.hpp"
#include "numerics/filters.hpp"
#include "numerics/grid.hpp"
#include "ocean/config.hpp"
#include "ocean/vgrid.hpp"
#include "par/comm.hpp"
#include "par/decomp.hpp"

namespace foam::ocean {

/// Diagnostics snapshot returned by OceanModel::diagnostics().
struct OceanDiagnostics {
  double mean_sst = 0.0;      ///< area-weighted mean SST [deg C]
  double mean_kinetic = 0.0;  ///< mean kinetic energy density [m^2/s^2]
  double max_speed = 0.0;     ///< max |u| over the full state [m/s]
  double max_eta = 0.0;       ///< max |eta| [m]
  double mean_temp_3d = 0.0;  ///< volume-mean temperature [deg C]
  double frazil_heat = 0.0;   ///< accumulated freeze-clamp heat [J/m^2]
};

/// One coupling interval's surface forcing, applied atomically through
/// OceanModel::set_forcing. Null members keep the previously set field;
/// wind components must be supplied together. Every supplied field is
/// shape-checked before any is copied, so a malformed bundle can never
/// leave the model with a half-updated forcing state.
struct OceanForcing {
  const Field2Dd* wind_x = nullptr;      ///< zonal wind stress [N/m^2]
  const Field2Dd* wind_y = nullptr;      ///< meridional wind stress [N/m^2]
  const Field2Dd* heat = nullptr;        ///< net heat flux [W/m^2, into ocean]
  const Field2Dd* freshwater = nullptr;  ///< freshwater flux [m/s liquid]
  const Field2Dd* ice = nullptr;         ///< sea-ice cell fraction [0..1]
};

class OceanModel {
 public:
  /// The grid and bathymetry must outlive the model. \p comm may be null
  /// (serial); otherwise the domain is decomposed over a px * (size/px)
  /// rank grid (px must divide the communicator size) and every rank must
  /// construct the model with the same arguments. px = 1 is the historic
  /// row decomposition.
  OceanModel(const OceanConfig& cfg, const numerics::MercatorGrid& grid,
             const Field2Dd& bathymetry, par::Comm* comm = nullptr,
             int px = 1);

  /// Initialize T/S to an analytic stratified climatology and the
  /// velocities to thermal-wind balance.
  void init_climatology();

  // --- forcing (set on full-size fields; only owned cells are read) ------
  /// Apply one coupling interval's forcing bundle atomically: wind stress,
  /// net heat flux [W/m^2 into the ocean], freshwater flux [m/s liquid],
  /// and sea-ice fraction (clamps SST; scales stress by
  /// 1/ice_stress_divisor per the paper). The per-field setter shims that
  /// predated the bundle (set_wind_stress & co.) were deprecated in PR 6
  /// and are gone.
  void set_forcing(const OceanForcing& f);

  /// Advance one internal (momentum) step dt_mom, subcycling the barotropic
  /// system and taking a tracer step when due.
  void step();
  /// Advance a whole number of days.
  void run_days(double days);

  double time_seconds() const {
    return static_cast<double>(steps_) * cfg_.dt_mom;
  }
  std::int64_t step_count() const { return steps_; }
  const OceanConfig& config() const { return cfg_; }
  const VerticalGrid& vgrid() const { return vgrid_; }
  const Field2D<int>& levels() const { return levels_; }

  // --- state access -------------------------------------------------------
  /// SST [deg C]: valid on owned cells (serial: everywhere).
  Field2Dd sst() const;
  /// Full-field gather of any 2-D box-decomposed field (collective).
  Field2Dd gather(const Field2Dd& f) const;
  const Field2Dd& eta() const { return eta_; }
  const Field3Dd& temperature() const { return t_; }
  const Field3Dd& salinity() const { return s_; }
  /// Full velocities (baroclinic + barotropic) [m/s].
  double u_total(int i, int j, int k) const {
    return up_(i, j, k) + ub_(i, j);
  }
  double v_total(int i, int j, int k) const {
    return vp_(i, j, k) + vb_(i, j);
  }

  /// Collective diagnostics over the whole domain.
  OceanDiagnostics diagnostics() const;

  /// Per-cell freeze-clamp heat accumulated since the last drain [J/m^2]
  /// (the coupler turns it into sea-ice growth); draining resets it.
  Field2Dd drain_frazil();

  /// Checkpoint the full prognostic state (serial use; records are written
  /// under \p prefix). Restart with load_state on a freshly constructed
  /// model with identical configuration.
  void save_state(HistoryWriter& out, const std::string& prefix) const;
  void load_state(const HistoryReader& in, const std::string& prefix);

  /// Abstract cost: grid-point updates performed so far, the paper's
  /// "number of computations required per unit of simulated time" metric
  /// behind the ~10x formulation claim.
  double work_points() const { return work_points_; }

  /// Owned row range [row_lo, row_hi).
  int row_lo() const { return j0_; }
  int row_hi() const { return j1_; }
  /// Owned column range [col_lo, col_hi).
  int col_lo() const { return i0_; }
  int col_hi() const { return i1_; }
  /// The rank grid this model was decomposed on (1x1 when serial).
  const par::Decomp2D& decomp() const { return decomp_; }

 private:
  bool wet(int i, int j, int k) const { return levels_(i, j) > k; }
  double dx(int j) const { return grid_.dx(j); }
  double dy(int j) const { return grid_.dy(j); }

  void exchange_halo(Field2Dd& f);
  void exchange_halo(Field3Dd& f);
  /// One zonal row the polar filter acts on: the row's nx cells in a 2-D
  /// or 3-D field (x-contiguous), its wet mask and its grid row.
  struct PolarSlot {
    double* row;
    const int* mask;
    int j;
  };
  /// Filter every slot of polar_slots_ in place (only wet owned cells
  /// change). Serial or px == 1, each row is local and is filtered where
  /// it lies; otherwise filter_rows_distributed does it.
  void filter_polar_slots();
  /// Transpose the polar slots across the process row (P ranks): slot s
  /// goes to row-comm rank s % P, which receives every rank's segment of
  /// it in one alltoall (blocks padded to the widest x-range), filters the
  /// whole row, and a second alltoall returns each rank only its own
  /// filtered segments. The filter is deterministic per row, so the result
  /// is bitwise independent of which rank filtered which slot.
  void filter_rows_distributed();
  void density();
  void baroclinic_pressure();
  void pressure_forces();  // fills gx_, gy_, fbar_x_, fbar_y_ from pbc_
  void internal_momentum_step();
  /// Row j of the momentum update, start to finish in the kTileU/kTileV
  /// tiles: leapfrog, implicit viscosity, wall damping, deep drag, clamp,
  /// Robert-Asselin filter and the depth-mean transfer to ub_/vb_.
  void momentum_row(int j, double dt2);
  void barotropic_subcycle();
  void tracer_step();
  void vertical_mixing_coefficients();
  /// Convective adjustment of column i (lev wet levels) of the T and S
  /// row tiles.
  void convective_adjustment(double* t, double* s, int i, int lev) const;
  void apply_polar_filter_2d(Field2Dd& f);
  void apply_polar_filter_3d(Field3Dd& f);
  /// Fold row j's depth-mean deviation velocity into ub_/vb_.
  void remove_depth_mean_row(int j);
  void index_biharmonic_filter(Field2Dd& f, double eps);
  void init_thermal_wind();
  /// Vertical velocity of row j at layer-top interfaces from the baroclinic
  /// deviation velocities (positive up); fills the kTileW tile.
  void diagnose_w_row(int j);
  /// The new T and S of row j (advection, surface forcing, lateral
  /// diffusion) into the t_new/s_new tiles; t_ and s_ are only read.
  void advect_tracer_row(int j, double dtt, double* t_new, double* s_new);
  /// Implicit vertical diffusion, freeze clamp and convective adjustment of
  /// row j's new tracer tiles, then their write-back into t_ and s_.
  void finish_tracer_row(int j, double dtt, double* t_new, double* s_new);
  /// Implicit vertical-diffusion matrix of row j (tiles kTileA/B/C, column
  /// lengths row_len_) for interface coefficients coeff over time dt.
  void vertical_diffusion_row(int j, const Field3Dd& coeff, double dt);
  /// Solve the system vertical_diffusion_row built for the row tile d.
  void solve_vertical_row(double* d);

  OceanConfig cfg_;
  const numerics::MercatorGrid& grid_;
  par::Comm* comm_;
  VerticalGrid vgrid_;
  Field2D<int> levels_;
  Field2D<int> mask2d_;
  /// Per-level wet masks: kmask_[k](i, j) = wet(i, j, k) ? 1 : 0.
  std::vector<Field2D<int>> kmask_;
  Field2Dd depth_;  // actual wet column depth [m]
  /// Wet levels of the deepest column in each row j.
  std::vector<int> row_levels_;
  numerics::PolarFourierFilter filter_;

  par::Decomp2D decomp_;
  int pi_ = 0, pj_ = 0;  // this rank's coordinates on the rank grid
  int j0_ = 0;  // owned rows [j0, j1)
  int j1_ = 0;
  int i0_ = 0;  // owned columns [i0, i1)
  int i1_ = 0;
  /// Columns visited by extended-range loops: owned columns plus (when
  /// px > 1) the wrapped halo column on each side.
  std::vector<int> xext_;
  /// Communicator over the ranks sharing this process row (key = pi), used
  /// by the polar-filter transpose; null when px == 1.
  std::unique_ptr<par::Comm> row_comm_;
  /// Owned rows poleward of the filter's critical latitude that hold
  /// water, each with its number of wet levels (the deepest column along
  /// the row). Dry rows and levels are never filtered: the filter would
  /// leave them untouched, so they are not transposed either.
  struct PolarRow {
    int j;
    int wet_levels;
  };
  std::vector<PolarRow> polar_rows_;
  /// Polar-filter scratch, reused every call: the slots being filtered,
  /// the transform workspace, and the transpose buffers (alltoall blocks
  /// and the whole rows this rank filters).
  std::vector<PolarSlot> polar_slots_;
  numerics::PolarFourierFilter::Workspace filter_ws_;
  std::vector<double> transpose_send_, transpose_recv_, transpose_rows_;

  // State (leapfrog: current and previous levels).
  Field3Dd up_, vp_;            // baroclinic deviation velocity [m/s]
  Field3Dd up_prev_, vp_prev_;  // previous time level
  Field3Dd t_, s_;              // temperature [C], salinity [psu]
  Field2Dd eta_;                // free surface [m]
  Field2Dd ub_, vb_;            // barotropic velocity [m/s]
  bool have_mom_prev_ = false;

  // Work arrays.
  Field3Dd rho_, pbc_, nu_, kappa_, gx_, gy_;
  Field2Dd fbar_x_, fbar_y_;

  /// Row scratch of the level-major column kernels, reused every call:
  /// kRowAccs nx-long per-column accumulators (acc) and kRowTiles nz x nx
  /// row tiles (tile; element k * nx + i), plus the per-column lengths of a
  /// row's tridiagonal systems. A kernel owns the accumulators only while
  /// it works on one row.
  enum RowTile {
    kTileA, kTileB, kTileC, kTileCp,  // vertical-diffusion system
    kTileU, kTileV,                   // new momentum level
    kTileW,                           // vertical velocity
    kTileT0, kTileT1, kTileS0, kTileS1,  // new tracer rows, double-buffered
    kRowTiles
  };
  static constexpr int kRowAccs = 4;
  double* acc(int n) {
    return row_acc_.data() + static_cast<std::size_t>(n) * cfg_.nx;
  }
  double* tile(RowTile t) {
    return row_tiles_.data() +
           static_cast<std::size_t>(t) * cfg_.nz * cfg_.nx;
  }
  std::vector<double> row_acc_, row_tiles_;
  std::vector<int> row_len_;

  // Forcing.
  Field2Dd taux_, tauy_, qnet_, fw_, ice_;

  std::int64_t steps_ = 0;
  double work_points_ = 0.0;
  double frazil_heat_ = 0.0;
  Field2Dd frazil_cell_;
};

/// Analytic wind stress for ocean-only experiments: tropical easterlies,
/// mid-latitude westerlies, polar decay [N/m^2].
double analytic_zonal_stress(double lat_rad);

/// Restoring heat flux toward the SST climatology [W/m^2]:
/// q = lambda * (T_clim - sst).
Field2Dd restoring_heat_flux(const numerics::MercatorGrid& grid,
                             const Field2Dd& sst, int month,
                             double lambda_w_m2_k = 40.0);

}  // namespace foam::ocean
