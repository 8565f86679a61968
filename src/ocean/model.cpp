#include "ocean/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "base/constants.hpp"
#include "data/earth.hpp"
#include "numerics/tridiag.hpp"
#include "par/decomp.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::ocean {

using constants::cp_sea_water;
using constants::deg2rad;
using constants::earth_omega;
using constants::gravity;
using constants::ice_stress_divisor;
using constants::sea_ice_freeze_c;

namespace {
constexpr int kTagSouth = 100;  // halo row travelling southward
constexpr int kTagNorth = 101;  // halo row travelling northward
constexpr int kTagWest = 102;   // halo column travelling westward
constexpr int kTagEast = 103;   // halo column travelling eastward

/// Periodic x-neighbours of an in-range column, without a division.
inline int x_east(int i, int nx) { return i + 1 == nx ? 0 : i + 1; }
inline int x_west(int i, int nx) { return i == 0 ? nx - 1 : i - 1; }

par::Decomp2D make_ocean_decomp(const OceanConfig& cfg, par::Comm* comm,
                                int px) {
  FOAM_REQUIRE(px >= 1, "ocean decomposition px=" << px);
  if (comm == nullptr) {
    FOAM_REQUIRE(px == 1, "serial ocean cannot use px=" << px);
    return par::Decomp2D(cfg.nx, cfg.ny, 1, 1);
  }
  FOAM_REQUIRE(comm->size() % px == 0,
               "ocean rank count " << comm->size()
                                   << " not divisible by px=" << px);
  return par::Decomp2D(cfg.nx, cfg.ny, px, comm->size() / px);
}

}  // namespace

OceanModel::OceanModel(const OceanConfig& cfg,
                       const numerics::MercatorGrid& grid,
                       const Field2Dd& bathymetry, par::Comm* comm, int px)
    : cfg_(cfg),
      grid_(grid),
      comm_(comm),
      vgrid_(cfg.nz, cfg.dz_top, cfg.total_depth),
      levels_(column_levels(vgrid_, bathymetry)),
      mask2d_(cfg.nx, cfg.ny, 0),
      kmask_(static_cast<std::size_t>(cfg.nz),
             Field2D<int>(cfg.nx, cfg.ny, 0)),
      depth_(cfg.nx, cfg.ny, 0.0),
      filter_(grid, cfg.filter_lat),
      decomp_(make_ocean_decomp(cfg, comm, px)),
      up_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      vp_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      up_prev_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      vp_prev_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      t_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      s_(cfg.nx, cfg.ny, cfg.nz, cfg.s_ref),
      eta_(cfg.nx, cfg.ny, 0.0),
      ub_(cfg.nx, cfg.ny, 0.0),
      vb_(cfg.nx, cfg.ny, 0.0),
      rho_(cfg.nx, cfg.ny, cfg.nz, cfg.rho0),
      pbc_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      nu_(cfg.nx, cfg.ny, cfg.nz, cfg.nu_b),
      kappa_(cfg.nx, cfg.ny, cfg.nz, cfg.kappa_b),
      gx_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      gy_(cfg.nx, cfg.ny, cfg.nz, 0.0),
      fbar_x_(cfg.nx, cfg.ny, 0.0),
      fbar_y_(cfg.nx, cfg.ny, 0.0),
      taux_(cfg.nx, cfg.ny, 0.0),
      tauy_(cfg.nx, cfg.ny, 0.0),
      qnet_(cfg.nx, cfg.ny, 0.0),
      fw_(cfg.nx, cfg.ny, 0.0),
      ice_(cfg.nx, cfg.ny, 0.0),
      frazil_cell_(cfg.nx, cfg.ny, 0.0) {
  FOAM_REQUIRE(grid.nlon() == cfg.nx && grid.nlat() == cfg.ny,
               "grid " << grid.nlon() << "x" << grid.nlat() << " vs config "
                       << cfg.nx << "x" << cfg.ny);
  FOAM_REQUIRE(bathymetry.nx() == cfg.nx && bathymetry.ny() == cfg.ny,
               "bathymetry shape");
  FOAM_REQUIRE(
      cfg.dt_mom > 0.0 && cfg.nsub_baro >= 1 && cfg.tracer_every >= 1,
      "ocean time stepping config");
  // Bury the artificial north/south domain walls in land: wall-adjacent
  // open water develops spurious wall-trapped modes on the A-grid (the
  // paper's hand-tuned topography closes its grid boundaries too).
  for (int i = 0; i < cfg_.nx; ++i) {
    levels_(i, 0) = 0;
    levels_(i, 1) = 0;
    levels_(i, cfg_.ny - 1) = 0;
    levels_(i, cfg_.ny - 2) = 0;
  }
  row_levels_.assign(static_cast<std::size_t>(cfg_.ny), 0);
  for (int j = 0; j < cfg_.ny; ++j) {
    for (int i = 0; i < cfg_.nx; ++i) {
      const int lev = levels_(i, j);
      row_levels_[j] = std::max(row_levels_[j], lev);
      mask2d_(i, j) = lev > 0 ? 1 : 0;
      double h = 0.0;
      for (int k = 0; k < lev; ++k) {
        h += vgrid_.dz(k);
        kmask_[static_cast<std::size_t>(k)](i, j) = 1;
      }
      depth_(i, j) = h;
    }
  }
  const int rank = comm_ != nullptr ? comm_->rank() : 0;
  pi_ = decomp_.pi_of(rank);
  pj_ = decomp_.pj_of(rank);
  const par::Range yr = decomp_.y_range(pj_);
  const par::Range xr = decomp_.x_range(pi_);
  j0_ = yr.lo;
  j1_ = yr.hi;
  i0_ = xr.lo;
  i1_ = xr.hi;
  // Columns visited by extended-range loops. With px == 1 every column is
  // owned and the list is 0..nx-1, reproducing the row-decomposed loops
  // bitwise; otherwise the wrapped halo column on each side joins in.
  if (decomp_.px() > 1) {
    xext_.push_back((i0_ - 1 + cfg_.nx) % cfg_.nx);
    for (int i = i0_; i < i1_; ++i) xext_.push_back(i);
    xext_.push_back(i1_ % cfg_.nx);
  } else {
    for (int i = 0; i < cfg_.nx; ++i) xext_.push_back(i);
  }
  // The polar filter needs whole zonal rows: build a communicator over the
  // ranks sharing this process row (collective over comm_, so every rank
  // takes this branch or none do).
  if (comm_ != nullptr && decomp_.px() > 1)
    row_comm_ = comm_->split(pj_, pi_);
  for (int j = j0_; j < j1_; ++j)
    if (filter_.filters_row(j) && row_levels_[j] > 0)
      polar_rows_.push_back({j, row_levels_[j]});
  filter_ws_ = filter_.make_workspace();
  row_acc_.assign(static_cast<std::size_t>(kRowAccs) * cfg_.nx, 0.0);
  row_tiles_.assign(static_cast<std::size_t>(kRowTiles) * cfg_.nz * cfg_.nx,
                    0.0);
  row_len_.assign(static_cast<std::size_t>(cfg_.nx), 0);
  // External gravity-wave CFL sanity check.
  const double c_ext =
      std::sqrt(gravity * cfg_.total_depth / cfg_.slow_factor);
  double dx_min = grid_.dx(0);
  for (int j = 0; j < cfg_.ny; ++j) dx_min = std::min(dx_min, grid_.dx(j));
  const double dt_wave =
      cfg_.split_barotropic ? cfg_.dt_mom / cfg_.nsub_baro : cfg_.dt_mom;
  FOAM_REQUIRE(dt_wave * c_ext * 1.5 < dx_min,
               "external wave CFL violated: dt_wave="
                   << dt_wave << "s, c=" << c_ext << " m/s, dx_min="
                   << dx_min << " m");
}

void OceanModel::init_climatology() {
  // The profiles separate into a latitude factor and a depth factor; each
  // transcendental is evaluated once per row or level, not per cell.
  std::vector<double> e900(cfg_.nz), e500(cfg_.nz);
  for (int k = 0; k < cfg_.nz; ++k) {
    e900[k] = std::exp(-vgrid_.z_center(k) / 900.0);
    e500[k] = std::exp(-vgrid_.z_center(k) / 500.0);
  }
  for (int j = 0; j < cfg_.ny; ++j) {
    const double lat_deg = grid_.lat(j) / deg2rad;
    const double tsurf =
        std::max(sea_ice_freeze_c,
                 -2.0 + 30.0 * std::exp(-std::pow(lat_deg / 32.0, 2.0)));
    const double cos2lat = std::cos(2.0 * grid_.lat(j));
    for (int k = 0; k < cfg_.nz; ++k) {
      const double z = vgrid_.z_center(k);
      // Deep water near 0.5 C with a weak stable abyssal gradient (an
      // exactly neutral abyss lets advection noise churn unopposed);
      // surface-intensified thermocline. The salinity term keeps polar
      // columns (cold fresh over warmer salty) statically stable.
      const double t = 0.5 + 0.6 * (1.0 - z / cfg_.total_depth) +
                       (tsurf - 1.1) * e900[k];
      const double s = cfg_.s_ref + 1.2 * e500[k] * cos2lat;
      for (int i = 0; i < cfg_.nx; ++i) {
        t_(i, j, k) = t;
        s_(i, j, k) = s;
      }
    }
  }
  up_.fill(0.0);
  vp_.fill(0.0);
  ub_.fill(0.0);
  vb_.fill(0.0);
  eta_.fill(0.0);
  steps_ = 0;
  init_thermal_wind();
  up_prev_ = up_;
  vp_prev_ = vp_;
  have_mom_prev_ = false;
}

void OceanModel::init_thermal_wind() {
  // Start the baroclinic velocities in geostrophic balance with the initial
  // density field so the model does not open with a basin-scale adjustment
  // shock. The Coriolis parameter is floored at its 5-degree value; the
  // equatorial strip starts slightly unbalanced but bounded.
  const int save_lo = j0_, save_hi = j1_;
  const int save_ilo = i0_, save_ihi = i1_;
  std::vector<int> save_xext;
  save_xext.swap(xext_);
  j0_ = 0;
  j1_ = cfg_.ny;  // initialization is rank-replicated over the full domain
  i0_ = 0;
  i1_ = cfg_.nx;
  for (int i = 0; i < cfg_.nx; ++i) xext_.push_back(i);
  density();
  baroclinic_pressure();
  pressure_forces();
  const double f_floor = 2.0 * earth_omega * std::sin(5.0 * deg2rad);
  for (int j = 0; j < cfg_.ny; ++j) {
    double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
    if (std::abs(f) < f_floor) f = (f >= 0.0 ? f_floor : -f_floor);
    const int* lev = &levels_(0, j);
    const double* fbx = &fbar_x_(0, j);
    const double* fby = &fbar_y_(0, j);
    for (int k = 0; k < row_levels_[j]; ++k) {
      const double* gx = &gx_(0, j, k);
      const double* gy = &gy_(0, j, k);
      double* u = &up_(0, j, k);
      double* v = &vp_(0, j, k);
      for (int i = 0; i < cfg_.nx; ++i) {
        if (k >= lev[i]) continue;
        u[i] = (gy[i] - fby[i]) / f;
        v[i] = -(gx[i] - fbx[i]) / f;
      }
    }
  }
  for (int j = j0_; j < j1_; ++j) remove_depth_mean_row(j);
  j0_ = save_lo;
  j1_ = save_hi;
  i0_ = save_ilo;
  i1_ = save_ihi;
  xext_.swap(save_xext);
}

void OceanModel::set_forcing(const OceanForcing& f) {
  // Validate every supplied field before copying any: a malformed bundle
  // must not leave the model half-updated.
  FOAM_REQUIRE((f.wind_x == nullptr) == (f.wind_y == nullptr),
               "wind stress components must be supplied together");
  auto check = [&](const Field2Dd* p, const char* what) {
    if (p != nullptr)
      FOAM_REQUIRE(p->nx() == cfg_.nx && p->ny() == cfg_.ny,
                   what << " shape " << p->nx() << "x" << p->ny() << " vs "
                        << cfg_.nx << "x" << cfg_.ny);
  };
  check(f.wind_x, "wind_x");
  check(f.wind_y, "wind_y");
  check(f.heat, "heat");
  check(f.freshwater, "freshwater");
  check(f.ice, "ice");
  if (f.wind_x != nullptr) taux_ = *f.wind_x;
  if (f.wind_y != nullptr) tauy_ = *f.wind_y;
  if (f.heat != nullptr) qnet_ = *f.heat;
  if (f.freshwater != nullptr) fw_ = *f.freshwater;
  if (f.ice != nullptr) ice_ = *f.ice;
}

// Two-phase halo exchange: rows first (open walls, owned columns), then
// periodic columns over the *extended* row range. Because x-neighbours
// share a process row (identical j-range), their extended ranges line up,
// and the column phase forwards values received in the row phase — so the
// four corner cells of the halo ring arrive consistent without dedicated
// diagonal messages. All transfers use nonblocking isend/irecv with a
// waitall barrier between the phases.
namespace {

/// Runs one exchange phase: posts the irecvs, packs and posts the isends,
/// waits, then unpacks. lo/hi are the two neighbour ranks (-1 = absent);
/// tag_to_lo/tag_to_hi name the tags of the messages travelling toward
/// them. pack/unpack copy `count` doubles for one side (side 0 = lo-ward
/// boundary, side 1 = hi-ward boundary).
template <typename Pack, typename Unpack>
void exchange_phase(par::Comm& comm, int lo, int hi, int tag_to_lo,
                    int tag_to_hi, std::size_t count, Pack&& pack,
                    Unpack&& unpack) {
  // The freshly packed boundary strips are handed to the runtime by
  // ownership (isend_move): the neighbour's irecv_vec moves the same buffer
  // in, so a halo strip never crosses a memcpy.
  std::vector<double> send_lo, send_hi, recv_lo, recv_hi;
  std::array<par::Request, 4> reqs;
  std::size_t nreq = 0;
  if (lo >= 0) reqs[nreq++] = comm.irecv_vec(lo, tag_to_hi, recv_lo);
  if (hi >= 0) reqs[nreq++] = comm.irecv_vec(hi, tag_to_lo, recv_hi);
  if (lo >= 0) {
    send_lo.resize(count);
    pack(0, send_lo);
    reqs[nreq++] = comm.isend_move(lo, tag_to_lo, std::move(send_lo));
  }
  if (hi >= 0) {
    send_hi.resize(count);
    pack(1, send_hi);
    reqs[nreq++] = comm.isend_move(hi, tag_to_hi, std::move(send_hi));
  }
  comm.waitall(std::span<par::Request>(reqs.data(), nreq));
  if (lo >= 0) unpack(0, recv_lo);
  if (hi >= 0) unpack(1, recv_hi);
}

}  // namespace

void OceanModel::exchange_halo(Field2Dd& f) {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int rank = comm_->rank();
  const int nx = cfg_.nx;
  // Phase 1: rows, over owned columns.
  exchange_phase(
      *comm_, decomp_.south_of(rank), decomp_.north_of(rank), kTagSouth,
      kTagNorth, static_cast<std::size_t>(i1_ - i0_),
      [&](int side, std::vector<double>& buf) {
        const int j = side == 0 ? j0_ : j1_ - 1;
        for (int i = i0_; i < i1_; ++i) buf[i - i0_] = f(i, j);
      },
      [&](int side, const std::vector<double>& buf) {
        const int j = side == 0 ? j0_ - 1 : j1_;
        for (int i = i0_; i < i1_; ++i) f(i, j) = buf[i - i0_];
      });
  if (decomp_.px() == 1) return;
  // Phase 2: periodic columns, over the extended row range (the halo rows
  // just received are forwarded, making the corners consistent).
  const int jlo = std::max(0, j0_ - 1);
  const int jhi = std::min(cfg_.ny, j1_ + 1);
  const int iw = x_west(i0_, nx);
  const int ie = x_east(i1_ - 1, nx);
  exchange_phase(
      *comm_, decomp_.west_of(rank), decomp_.east_of(rank), kTagWest,
      kTagEast, static_cast<std::size_t>(jhi - jlo),
      [&](int side, std::vector<double>& buf) {
        const int i = side == 0 ? i0_ : i1_ - 1;
        for (int j = jlo; j < jhi; ++j) buf[j - jlo] = f(i, j);
      },
      [&](int side, const std::vector<double>& buf) {
        const int i = side == 0 ? iw : ie;
        for (int j = jlo; j < jhi; ++j) f(i, j) = buf[j - jlo];
      });
}

void OceanModel::exchange_halo(Field3Dd& f) {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int rank = comm_->rank();
  const int nx = cfg_.nx;
  const int nz = cfg_.nz;
  const std::size_t xcnt = static_cast<std::size_t>(i1_ - i0_);
  exchange_phase(
      *comm_, decomp_.south_of(rank), decomp_.north_of(rank), kTagSouth,
      kTagNorth, xcnt * nz,
      [&](int side, std::vector<double>& buf) {
        const int j = side == 0 ? j0_ : j1_ - 1;
        for (int k = 0; k < nz; ++k)
          for (int i = i0_; i < i1_; ++i)
            buf[static_cast<std::size_t>(k) * xcnt + (i - i0_)] = f(i, j, k);
      },
      [&](int side, const std::vector<double>& buf) {
        const int j = side == 0 ? j0_ - 1 : j1_;
        for (int k = 0; k < nz; ++k)
          for (int i = i0_; i < i1_; ++i)
            f(i, j, k) = buf[static_cast<std::size_t>(k) * xcnt + (i - i0_)];
      });
  if (decomp_.px() == 1) return;
  const int jlo = std::max(0, j0_ - 1);
  const int jhi = std::min(cfg_.ny, j1_ + 1);
  const std::size_t ycnt = static_cast<std::size_t>(jhi - jlo);
  const int iw = x_west(i0_, nx);
  const int ie = x_east(i1_ - 1, nx);
  exchange_phase(
      *comm_, decomp_.west_of(rank), decomp_.east_of(rank), kTagWest,
      kTagEast, ycnt * nz,
      [&](int side, std::vector<double>& buf) {
        const int i = side == 0 ? i0_ : i1_ - 1;
        for (int k = 0; k < nz; ++k)
          for (int j = jlo; j < jhi; ++j)
            buf[static_cast<std::size_t>(k) * ycnt + (j - jlo)] = f(i, j, k);
      },
      [&](int side, const std::vector<double>& buf) {
        const int i = side == 0 ? iw : ie;
        for (int k = 0; k < nz; ++k)
          for (int j = jlo; j < jhi; ++j)
            f(i, j, k) = buf[static_cast<std::size_t>(k) * ycnt + (j - jlo)];
      });
}

// The column kernels below are row-tiled and level-major: each loops rows
// j, then levels k, then columns i, so the inner loop runs along the
// x-contiguous storage. Per-column state (running sums, the new time level,
// tridiagonal systems) lives in nx-long row accumulators or nz x nx row
// tiles, never in a 3-D temporary. Every wet cell performs exactly the
// floating-point operations, in the order, of the column-at-a-time
// formulation; only the order in which independent cells are visited
// changes, so results are bitwise those of that formulation.

void OceanModel::density() {
  const int lo = std::max(0, j0_ - 1);
  const int hi = std::min(cfg_.ny, j1_ + 1);
  for (int j = lo; j < hi; ++j) {
    const int* lev = &levels_(0, j);
    for (int k = 0; k < row_levels_[j]; ++k) {
      const double* t = &t_(0, j, k);
      const double* s = &s_(0, j, k);
      double* rho = &rho_(0, j, k);
      for (const int i : xext_)
        if (k < lev[i])
          rho[i] = cfg_.rho0 * (1.0 - cfg_.alpha_t * (t[i] - cfg_.t_ref) +
                                cfg_.beta_s * (s[i] - cfg_.s_ref));
    }
  }
}

void OceanModel::baroclinic_pressure() {
  // Hydrostatic integral from the surface down: each level adds the
  // trapezoid between its centre and the one above to that level's
  // pressure, so the running sum is the level above's stored value.
  const int lo = std::max(0, j0_ - 1);
  const int hi = std::min(cfg_.ny, j1_ + 1);
  const double dz0 = vgrid_.dz(0);
  for (int j = lo; j < hi; ++j) {
    const int* lev = &levels_(0, j);
    for (int k = 0; k < row_levels_[j]; ++k) {
      const double* rho = &rho_(0, j, k);
      double* p = &pbc_(0, j, k);
      if (k == 0) {
        for (const int i : xext_)
          if (lev[i] > 0) p[i] = gravity * (rho[i] - cfg_.rho0) * 0.5 * dz0;
        continue;
      }
      const double* rho_above = &rho_(0, j, k - 1);
      const double* p_above = &pbc_(0, j, k - 1);
      const double dz_above = vgrid_.dz(k - 1);
      const double dzk = vgrid_.dz(k);
      for (const int i : xext_)
        if (k < lev[i])
          p[i] = p_above[i] +
                 gravity * 0.5 *
                     ((rho_above[i] - cfg_.rho0) * dz_above +
                      (rho[i] - cfg_.rho0) * dzk);
    }
  }
}

void OceanModel::pressure_forces() {
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  double* sx = acc(0);  // depth integrals of the row's forces
  double* sy = acc(1);
  for (int j = j0_; j < j1_; ++j) {
    const double inv2dx = 1.0 / (2.0 * dx(j));
    const double inv2dy = 1.0 / (2.0 * dy(j));
    const bool has_n = j + 1 < ny;
    const bool has_s = j - 1 >= 0;
    const int* lev = &levels_(0, j);
    const int* lev_n = has_n ? &levels_(0, j + 1) : nullptr;
    const int* lev_s = has_s ? &levels_(0, j - 1) : nullptr;
    std::fill(sx + i0_, sx + i1_, 0.0);
    std::fill(sy + i0_, sy + i1_, 0.0);
    for (int k = 0; k < row_levels_[j]; ++k) {
      const double dzk = vgrid_.dz(k);
      const double* p = &pbc_(0, j, k);
      const double* p_n = has_n ? &pbc_(0, j + 1, k) : nullptr;
      const double* p_s = has_s ? &pbc_(0, j - 1, k) : nullptr;
      double* gx = &gx_(0, j, k);
      double* gy = &gy_(0, j, k);
      for (int i = i0_; i < i1_; ++i) {
        if (k >= lev[i]) continue;
        double fx = 0.0, fy = 0.0;
        if (cfg_.enable_baroclinic_pg) {
          // Ghost-mirror closure at walls (a dry neighbour mirrors the
          // centre pressure): wall columns still feel pressure restoring,
          // at half the centred magnitude.
          const int ie = x_east(i, nx);
          const int iw = x_west(i, nx);
          const double pc = p[i];
          const double pe = k < lev[ie] ? p[ie] : pc;
          const double pw = k < lev[iw] ? p[iw] : pc;
          fx = -(pe - pw) * inv2dx / cfg_.rho0;
          const double pn = (has_n && k < lev_n[i]) ? p_n[i] : pc;
          const double ps = (has_s && k < lev_s[i]) ? p_s[i] : pc;
          fy = -(pn - ps) * inv2dy / cfg_.rho0;
        }
        gx[i] = fx;
        gy[i] = fy;
        sx[i] += fx * dzk;
        sy[i] += fy * dzk;
      }
    }
    // depth_ is the same running sum of wet layer thicknesses.
    for (int i = i0_; i < i1_; ++i) {
      const double h = depth_(i, j);
      fbar_x_(i, j) = h > 0.0 ? sx[i] / h : 0.0;
      fbar_y_(i, j) = h > 0.0 ? sy[i] / h : 0.0;
    }
  }
}

void OceanModel::vertical_diffusion_row(int j, const Field3Dd& coeff,
                                        double dt) {
  // Backward-Euler vertical diffusion of every owned column of row j with
  // at least two wet levels; shallower columns are left alone.
  const int nx = cfg_.nx;
  const int* lev = &levels_(0, j);
  for (int i = i0_; i < i1_; ++i) row_len_[i] = lev[i] >= 2 ? lev[i] : 0;
  double* a = tile(kTileA);
  double* b = tile(kTileB);
  double* c = tile(kTileC);
  for (int k = 0; k < row_levels_[j]; ++k) {
    const double dzk = vgrid_.dz(k);
    const double* kc = &coeff(0, j, k);
    const double* kc_below = k + 1 < cfg_.nz ? &coeff(0, j, k + 1) : nullptr;
    const double dz_up = k > 0 ? dzk * (0.5 * (vgrid_.dz(k - 1) + dzk)) : 0.0;
    const double dz_dn =
        k + 1 < cfg_.nz ? dzk * (0.5 * (dzk + vgrid_.dz(k + 1))) : 0.0;
    const std::size_t o = static_cast<std::size_t>(k) * nx;
    for (int i = i0_; i < i1_; ++i) {
      if (k >= row_len_[i]) continue;
      double ak = 0.0, bk = 1.0, ck = 0.0;
      if (k > 0) {
        const double r = dt * kc[i] / dz_up;
        ak = -r;
        bk += r;
      }
      if (k < row_len_[i] - 1) {
        const double r = dt * kc_below[i] / dz_dn;
        ck = -r;
        bk += r;
      }
      a[o + i] = ak;
      b[o + i] = bk;
      c[o + i] = ck;
    }
  }
}

void OceanModel::solve_vertical_row(double* d) {
  numerics::solve_tridiag(
      std::span<const int>(row_len_.data() + i0_,
                           static_cast<std::size_t>(i1_ - i0_)),
      static_cast<std::size_t>(cfg_.nx), tile(kTileA) + i0_,
      tile(kTileB) + i0_, tile(kTileC) + i0_, d + i0_, tile(kTileCp) + i0_);
}

void OceanModel::internal_momentum_step() {
  const double dt = cfg_.dt_mom;
  const double dt2 = have_mom_prev_ ? 2.0 * dt : dt;  // leapfrog / bootstrap
  const int nx = cfg_.nx;

  density();
  baroclinic_pressure();
  pressure_forces();  // gx_, gy_ at time n

  // Lateral friction (Laplacian, no-slip walls) and del^4 dissipation,
  // evaluated at the previous time level (lagged friction keeps leapfrog
  // stable). Divergence damping likewise.
  Field2Dd lap1(nx, cfg_.ny, 0.0), lap2(nx, cfg_.ny, 0.0),
      divf(nx, cfg_.ny, 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    const Field3Dd& vel_prev = (pass == 0) ? up_prev_ : vp_prev_;
    Field3Dd& tend = (pass == 0) ? gx_ : gy_;
    for (int k = 0; k < cfg_.nz; ++k) {
      const Field2D<int>& kmask = kmask_[static_cast<std::size_t>(k)];
      // No-slip Laplacian: a land neighbour contributes zero velocity so
      // boundary currents feel sidewall friction. Computed on the owned
      // box; the halo ring arrives by exchange below.
      for (int j = j0_; j < j1_; ++j) {
        const double ix2 = 1.0 / (dx(j) * dx(j));
        const double iy2 = 1.0 / (dy(j) * dy(j));
        const int* m = &kmask(0, j);
        const double* vel = &vel_prev(0, j, k);
        for (int i = i0_; i < i1_; ++i) {
          if (m[i] == 0) {
            lap1(i, j) = 0.0;
            continue;
          }
          const int ie = x_east(i, nx);
          const int iw = x_west(i, nx);
          const double c = vel[i];
          const double e = m[ie] ? vel[ie] : 0.0;
          const double w2 = m[iw] ? vel[iw] : 0.0;
          const double n2 =
              (j + 1 < cfg_.ny && kmask(i, j + 1)) ? vel_prev(i, j + 1, k)
                                                   : 0.0;
          const double s2 =
              (j > 0 && kmask(i, j - 1)) ? vel_prev(i, j - 1, k) : 0.0;
          lap1(i, j) =
              (e - 2.0 * c + w2) * ix2 + (n2 - 2.0 * c + s2) * iy2;
        }
      }
      exchange_halo(lap1);
      // lap2 is only read on the owned box, where lap1's halo ring is
      // current.
      numerics::laplacian_masked_box(grid_, lap1, kmask, lap2, j0_, j1_, i0_,
                                     i1_);
      for (int j = j0_; j < j1_; ++j) {
        const double d = dx(j);
        // Caps keep the explicit (lagged, effective step 2dt) updates
        // monotone on the shrinking polar cells.
        const double cap4 = 0.0025 * d * d * d * d / dt;
        const double a4 = std::min(cfg_.visc4, cap4);
        for (int i = i0_; i < i1_; ++i)
          if (wet(i, j, k))
            tend(i, j, k) += cfg_.visc_h * lap1(i, j) - a4 * lap2(i, j);
      }
    }
  }

  // Divergence damping from the previous level.
  if (cfg_.div_damp > 0.0) {
    for (int k = 0; k < cfg_.nz; ++k) {
      // Computed on the owned box; the halo ring arrives by exchange.
      for (int j = j0_; j < j1_; ++j) {
        const double invdx = 1.0 / dx(j);
        const double invdy = 1.0 / dy(j);
        for (int i = i0_; i < i1_; ++i) {
          if (!wet(i, j, k)) {
            divf(i, j) = 0.0;
            continue;
          }
          const int ie = x_east(i, nx);
          const int iw = x_west(i, nx);
          const double ue =
              wet(ie, j, k)
                  ? 0.5 * (up_prev_(i, j, k) + up_prev_(ie, j, k))
                  : 0.0;
          const double uw =
              wet(iw, j, k)
                  ? 0.5 * (up_prev_(iw, j, k) + up_prev_(i, j, k))
                  : 0.0;
          const double vn =
              (j + 1 < cfg_.ny && wet(i, j + 1, k))
                  ? 0.5 * (vp_prev_(i, j, k) + vp_prev_(i, j + 1, k))
                  : 0.0;
          const double vs =
              (j - 1 >= 0 && wet(i, j - 1, k))
                  ? 0.5 * (vp_prev_(i, j - 1, k) + vp_prev_(i, j, k))
                  : 0.0;
          divf(i, j) = (ue - uw) * invdx + (vn - vs) * invdy;
        }
      }
      exchange_halo(divf);
      for (int j = j0_; j < j1_; ++j) {
        const double inv2dx = 1.0 / (2.0 * dx(j));
        const double inv2dy = 1.0 / (2.0 * dy(j));
        const double cap = 0.05 * dx(j) * dx(j) / dt;
        const double cdd = std::min(cfg_.div_damp, cap);
        for (int i = i0_; i < i1_; ++i) {
          if (!wet(i, j, k)) continue;
          const int ie = x_east(i, nx);
          const int iw = x_west(i, nx);
          const double de = wet(ie, j, k) ? divf(ie, j) : divf(i, j);
          const double dw = wet(iw, j, k) ? divf(iw, j) : divf(i, j);
          gx_(i, j, k) += cdd * (de - dw) * inv2dx;
          const double dn =
              (j + 1 < cfg_.ny && wet(i, j + 1, k)) ? divf(i, j + 1)
                                                    : divf(i, j);
          const double ds =
              (j - 1 >= 0 && wet(i, j - 1, k)) ? divf(i, j - 1)
                                               : divf(i, j);
          gy_(i, j, k) += cdd * (dn - ds) * inv2dy;
        }
      }
    }
  }

  // From here on every row is independent: the new level is built, solved,
  // damped and filtered one row at a time in a tile.
  for (int j = j0_; j < j1_; ++j) momentum_row(j, dt2);
  have_mom_prev_ = true;

  // momentum_row modified ub_/vb_ on owned rows only; refresh their halos
  // before the barotropic subcycle's stencils read them.
  exchange_halo(ub_);
  exchange_halo(vb_);
  apply_polar_filter_3d(up_);
  apply_polar_filter_3d(vp_);
  apply_polar_filter_3d(up_prev_);
  apply_polar_filter_3d(vp_prev_);
  exchange_halo(up_);
  exchange_halo(vp_);
  exchange_halo(up_prev_);
  exchange_halo(vp_prev_);

  double wet_cells = 0.0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) wet_cells += levels_(i, j);
  work_points_ += 4.0 * wet_cells;
}

void OceanModel::momentum_row(int j, double dt2) {
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const int* lev = &levels_(0, j);
  const int* lev_n = j + 1 < ny ? &levels_(0, j + 1) : nullptr;
  const int* lev_s = j - 1 >= 0 ? &levels_(0, j - 1) : nullptr;
  double* un = tile(kTileU);
  double* vn = tile(kTileV);

  // Leapfrog update: new = prev + 2dt * (PG deviation + Coriolis(n) +
  // wind deviation + friction(prev)). The wind enters the surface layer
  // and leaves as a depth mean; both terms are per column.
  const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
  const double dz0 = vgrid_.dz(0);
  double* wind_x0 = acc(0);  // surface-layer wind deviation
  double* wind_y0 = acc(1);
  double* wind_xk = acc(2);  // deviation below the surface layer
  double* wind_yk = acc(3);
  for (int i = i0_; i < i1_; ++i) {
    if (lev[i] == 0) continue;
    const double ice_scale =
        1.0 - ice_(i, j) + ice_(i, j) / ice_stress_divisor;
    const double ax = taux_(i, j) * ice_scale / cfg_.rho0;
    const double ay = tauy_(i, j) * ice_scale / cfg_.rho0;
    const double h = depth_(i, j);
    wind_x0[i] = ax / dz0 - ax / h;
    wind_y0[i] = ay / dz0 - ay / h;
    wind_xk[i] = 0.0 - ax / h;  // not -(ax / h): that flips a zero's sign
    wind_yk[i] = 0.0 - ay / h;
  }
  const double* fbx = &fbar_x_(0, j);
  const double* fby = &fbar_y_(0, j);
  for (int k = 0; k < row_levels_[j]; ++k) {
    const double* wind_x = k == 0 ? wind_x0 : wind_xk;
    const double* wind_y = k == 0 ? wind_y0 : wind_yk;
    const double* gx = &gx_(0, j, k);
    const double* gy = &gy_(0, j, k);
    const double* u = &up_(0, j, k);
    const double* v = &vp_(0, j, k);
    const double* u_prev = &up_prev_(0, j, k);
    const double* v_prev = &vp_prev_(0, j, k);
    double* u_new = un + static_cast<std::size_t>(k) * nx;
    double* v_new = vn + static_cast<std::size_t>(k) * nx;
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      const double tx = gx[i] - fbx[i] + wind_x[i] + f * v[i] -
                        cfg_.rayleigh * u_prev[i];
      const double ty = gy[i] - fby[i] + wind_y[i] - f * u[i] -
                        cfg_.rayleigh * v_prev[i];
      u_new[i] = u_prev[i] + dt2 * tx;
      v_new[i] = v_prev[i] + dt2 * ty;
    }
  }

  // Implicit vertical viscosity on the new level.
  if (cfg_.enable_vmix) {
    vertical_diffusion_row(j, nu_, dt2);
    solve_vertical_row(un);
    solve_vertical_row(vn);
  }

  // Wall-normal damping, deep/bottom drag and the hard safety clamp, then
  // the Robert-Asselin filter on the centre level and the rotation of time
  // levels. Frictional abyss: the two deepest layers of the *deviation*
  // flow are strongly damped (bottom boundary layer + unresolved
  // topographic form drag); cliff-trapped bottom modes otherwise survive
  // every interior dissipation mechanism. The barotropic mode has its own
  // bottom drag — coupling the two through this term would let a noisy ub
  // manufacture deviation velocity.
  const double keep = cfg_.wall_normal_retain;
  const double eps = cfg_.asselin;
  for (int k = 0; k < row_levels_[j]; ++k) {
    double* u = &up_(0, j, k);
    double* v = &vp_(0, j, k);
    double* u_prev = &up_prev_(0, j, k);
    double* v_prev = &vp_prev_(0, j, k);
    double* u_new = un + static_cast<std::size_t>(k) * nx;
    double* v_new = vn + static_cast<std::size_t>(k) * nx;
    const double drag_dz = vgrid_.dz(k);
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      double un_i = u_new[i];
      double vn_i = v_new[i];
      if (keep < 1.0) {
        if (k >= lev[x_east(i, nx)] || k >= lev[x_west(i, nx)]) un_i *= keep;
        if (lev_n == nullptr || lev_s == nullptr || k >= lev_n[i] ||
            k >= lev_s[i])
          vn_i *= keep;
      }
      if (k >= lev[i] - 2) {
        const double speed = std::sqrt(un_i * un_i + vn_i * vn_i);
        const double fac =
            1.0 / (1.0 + dt2 * (cfg_.deep_drag + 2.5e-3 * speed / drag_dz));
        un_i *= fac;
        vn_i *= fac;
      }
      un_i = std::clamp(un_i, -cfg_.max_baroclinic, cfg_.max_baroclinic);
      vn_i = std::clamp(vn_i, -cfg_.max_baroclinic, cfg_.max_baroclinic);
      u_prev[i] = u[i] + eps * (un_i - 2.0 * u[i] + u_prev[i]);
      v_prev[i] = v[i] + eps * (vn_i - 2.0 * v[i] + v_prev[i]);
      u[i] = un_i;
      v[i] = vn_i;
    }
  }
  remove_depth_mean_row(j);
}

void OceanModel::remove_depth_mean_row(int j) {
  // Fold the depth-mean of the *current* deviation velocities into the
  // barotropic mode so the split stays exact. The previous time level must
  // be de-meaned as well (without a second transfer): a mean left in
  // up_prev_ would be re-injected by the next leapfrog update and pump ub
  // without bound.
  const int* lev = &levels_(0, j);
  double* mu = acc(0);  // depth integrals, then depth means
  double* mv = acc(1);
  double* mpu = acc(2);
  double* mpv = acc(3);
  std::fill(mu + i0_, mu + i1_, 0.0);
  std::fill(mv + i0_, mv + i1_, 0.0);
  std::fill(mpu + i0_, mpu + i1_, 0.0);
  std::fill(mpv + i0_, mpv + i1_, 0.0);
  for (int k = 0; k < row_levels_[j]; ++k) {
    const double dzk = vgrid_.dz(k);
    const double* u = &up_(0, j, k);
    const double* v = &vp_(0, j, k);
    const double* u_prev = &up_prev_(0, j, k);
    const double* v_prev = &vp_prev_(0, j, k);
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      mu[i] += u[i] * dzk;
      mv[i] += v[i] * dzk;
      mpu[i] += u_prev[i] * dzk;
      mpv[i] += v_prev[i] * dzk;
    }
  }
  for (int i = i0_; i < i1_; ++i) {
    if (lev[i] == 0) continue;
    const double h = depth_(i, j);
    mu[i] = mu[i] / h;
    mv[i] = mv[i] / h;
    mpu[i] = mpu[i] / h;
    mpv[i] = mpv[i] / h;
  }
  for (int k = 0; k < row_levels_[j]; ++k) {
    double* u = &up_(0, j, k);
    double* v = &vp_(0, j, k);
    double* u_prev = &up_prev_(0, j, k);
    double* v_prev = &vp_prev_(0, j, k);
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      u[i] -= mu[i];
      v[i] -= mv[i];
      u_prev[i] -= mpu[i];
      v_prev[i] -= mpv[i];
    }
  }
  for (int i = i0_; i < i1_; ++i) {
    if (lev[i] == 0) continue;
    ub_(i, j) += mu[i];
    vb_(i, j) += mv[i];
  }
}

void OceanModel::index_biharmonic_filter(Field2Dd& f, double eps) {
  const int nx = cfg_.nx;
  auto index_laplacian = [&](const Field2Dd& src, Field2Dd& dst) {
    for (int j = j0_; j < j1_; ++j) {
      for (int i = i0_; i < i1_; ++i) {
        if (mask2d_(i, j) == 0) {
          dst(i, j) = 0.0;
          continue;
        }
        const double c = src(i, j);
        double acc = 0.0;
        if (mask2d_.wrap_x(i + 1, j) != 0) acc += src.wrap_x(i + 1, j) - c;
        if (mask2d_.wrap_x(i - 1, j) != 0) acc += src.wrap_x(i - 1, j) - c;
        if (j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0)
          acc += src(i, j + 1) - c;
        if (j - 1 >= 0 && mask2d_(i, j - 1) != 0) acc += src(i, j - 1) - c;
        dst(i, j) = acc;
      }
    }
  };
  Field2Dd lap(nx, cfg_.ny, 0.0), lap2(nx, cfg_.ny, 0.0);
  index_laplacian(f, lap);
  exchange_halo(lap);
  index_laplacian(lap, lap2);
  const double scale = eps / 64.0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i)
      if (mask2d_(i, j) != 0) f(i, j) -= scale * lap2(i, j);
  exchange_halo(f);
}

void OceanModel::barotropic_subcycle() {
  const int nsub = cfg_.split_barotropic ? cfg_.nsub_baro : 1;
  const double dtb = cfg_.dt_mom / nsub;
  for (int sub = 0; sub < nsub; ++sub) {
    // Momentum: symmetric Coriolis rotation around the forcing update.
    for (int j = j0_; j < j1_; ++j) {
      const double f = 2.0 * earth_omega * std::sin(grid_.lat(j));
      const double cs = std::cos(0.5 * f * dtb);
      const double sn = std::sin(0.5 * f * dtb);
      const double inv2dx = 1.0 / (2.0 * dx(j));
      const double inv2dy = 1.0 / (2.0 * dy(j));
      for (int i = i0_; i < i1_; ++i) {
        if (mask2d_(i, j) == 0) continue;
        // Ghost-mirror closure at walls for the surface PG.
        const bool we = mask2d_.wrap_x(i + 1, j) != 0;
        const bool ww = mask2d_.wrap_x(i - 1, j) != 0;
        const double ee = we ? eta_.wrap_x(i + 1, j) : eta_(i, j);
        const double ew = ww ? eta_.wrap_x(i - 1, j) : eta_(i, j);
        const double detadx = (ee - ew) * inv2dx;
        const bool wn = j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0;
        const bool ws = j - 1 >= 0 && mask2d_(i, j - 1) != 0;
        const double en = wn ? eta_(i, j + 1) : eta_(i, j);
        const double es = ws ? eta_(i, j - 1) : eta_(i, j);
        const double detady = (en - es) * inv2dy;
        const double ice_scale =
            1.0 - ice_(i, j) + ice_(i, j) / ice_stress_divisor;
        const double h = depth_(i, j);
        const double gxb = fbar_x_(i, j) +
                           taux_(i, j) * ice_scale / (cfg_.rho0 * h) -
                           gravity * detadx;
        const double gyb = fbar_y_(i, j) +
                           tauy_(i, j) * ice_scale / (cfg_.rho0 * h) -
                           gravity * detady;
        const double u_old = ub_(i, j);
        const double v_old = vb_(i, j);
        double u1 = cs * u_old + sn * v_old;
        double v1 = -sn * u_old + cs * v_old;
        u1 += dtb * (gxb - cfg_.bottom_drag * u_old);
        v1 += dtb * (gyb - cfg_.bottom_drag * v_old);
        ub_(i, j) =
            std::clamp(cs * u1 + sn * v1, -cfg_.max_barotropic, cfg_.max_barotropic);
        vb_(i, j) =
            std::clamp(-sn * u1 + cs * v1, -cfg_.max_barotropic, cfg_.max_barotropic);
      }
    }
    // Wall-normal damping for the barotropic velocities (their wall flux is
    // already zero; the velocity itself must not ring). It reads only the
    // mask, so the halo refresh waits until after it.
    if (cfg_.wall_normal_retain < 1.0) {
      const double keep = cfg_.wall_normal_retain;
      for (int j = j0_; j < j1_; ++j) {
        for (int i = i0_; i < i1_; ++i) {
          if (mask2d_(i, j) == 0) continue;
          if (mask2d_.wrap_x(i + 1, j) == 0 || mask2d_.wrap_x(i - 1, j) == 0)
            ub_(i, j) *= keep;
          if (j + 1 >= cfg_.ny || j - 1 < 0 || mask2d_(i, j + 1) == 0 ||
              mask2d_(i, j - 1) == 0)
            vb_(i, j) *= keep;
        }
      }
    }
    // The momentum update touched owned cells only; refresh halos before
    // any stencil (the index filter, continuity) reads neighbours.
    exchange_halo(ub_);
    exchange_halo(vb_);
    if (cfg_.baro_filter_eps > 0.0) {
      index_biharmonic_filter(ub_, cfg_.baro_filter_eps);
      index_biharmonic_filter(vb_, cfg_.baro_filter_eps);
    }
    // Continuity, slowed by 1/slow_factor: the external wave speed drops by
    // sqrt(slow_factor) while steady circulation is untouched (the Tobis
    // slowed-barotropic scheme).
    for (int j = j0_; j < j1_; ++j) {
      const double invdx = 1.0 / dx(j);
      const double invdy = 1.0 / dy(j);
      for (int i = i0_; i < i1_; ++i) {
        if (mask2d_(i, j) == 0) continue;
        auto flux_x = [&](int ia, int ib) {
          if (mask2d_.wrap_x(ia, j) == 0 || mask2d_.wrap_x(ib, j) == 0)
            return 0.0;
          const double hf =
              std::min(depth_.wrap_x(ia, j), depth_.wrap_x(ib, j));
          return hf * 0.5 * (ub_.wrap_x(ia, j) + ub_.wrap_x(ib, j));
        };
        const double fe = flux_x(i, i + 1);
        const double fwst = flux_x(i - 1, i);
        double fn = 0.0, fs = 0.0;
        if (j + 1 < cfg_.ny && mask2d_(i, j + 1) != 0) {
          const double hf = std::min(depth_(i, j), depth_(i, j + 1));
          fn = hf * 0.5 * (vb_(i, j) + vb_(i, j + 1));
        }
        if (j - 1 >= 0 && mask2d_(i, j - 1) != 0) {
          const double hf = std::min(depth_(i, j), depth_(i, j - 1));
          fs = hf * 0.5 * (vb_(i, j) + vb_(i, j - 1));
        }
        const double div = (fe - fwst) * invdx + (fn - fs) * invdy;
        eta_(i, j) += dtb * (-div / cfg_.slow_factor + fw_(i, j));
      }
    }
    apply_polar_filter_2d(eta_);
    exchange_halo(eta_);
    if (cfg_.baro_filter_eps > 0.0)
      index_biharmonic_filter(eta_, 0.5 * cfg_.baro_filter_eps);
    double cells = 0.0;
    for (int j = j0_; j < j1_; ++j)
      for (int i = i0_; i < i1_; ++i) cells += mask2d_(i, j);
    work_points_ += 2.0 * cells;
  }
}

void OceanModel::vertical_mixing_coefficients() {
  // Pacanowski-Philander (1981) Richardson-dependent mixing with the
  // steeper exponent of Peters, Gregg & Toole that improved the model's
  // west-equatorial-Pacific cold bias (paper §4.2).
  for (int j = j0_; j < j1_; ++j) {
    const int* lev = &levels_(0, j);
    for (int k = 1; k < row_levels_[j]; ++k) {
      const double dzi = 0.5 * (vgrid_.dz(k - 1) + vgrid_.dz(k));
      const double* u_above = &up_(0, j, k - 1);
      const double* u = &up_(0, j, k);
      const double* v_above = &vp_(0, j, k - 1);
      const double* v = &vp_(0, j, k);
      const double* rho_above = &rho_(0, j, k - 1);
      const double* rho = &rho_(0, j, k);
      double* nu = &nu_(0, j, k);
      double* kappa = &kappa_(0, j, k);
      for (int i = i0_; i < i1_; ++i) {
        if (k >= lev[i]) continue;
        const double du = u_above[i] - u[i];
        const double dv = v_above[i] - v[i];
        const double shear2 = (du * du + dv * dv) / (dzi * dzi) + 1.0e-10;
        const double n2 =
            -gravity * (rho_above[i] - rho[i]) / (cfg_.rho0 * dzi);
        const double ri = std::max(0.0, n2 / shear2);
        const double denom = std::pow(1.0 + 5.0 * ri, cfg_.ri_exponent);
        nu[i] = cfg_.nu0 / denom + cfg_.nu_b;
        kappa[i] = (cfg_.nu0 / denom) / (1.0 + 5.0 * ri) + cfg_.kappa_b;
      }
    }
  }
}

void OceanModel::convective_adjustment(double* t, double* s, int i,
                                       int lev) const {
  // Full-column pairwise mixing sweep: statically unstable neighbours are
  // homogenized (volume-weighted), repeated until stable. t and s are a
  // row tile's column i (level k at k * nx + i).
  const std::size_t nx = static_cast<std::size_t>(cfg_.nx);
  for (int pass = 0; pass < lev; ++pass) {
    bool mixed = false;
    for (int k = 0; k < lev - 1; ++k) {
      double& t_up = t[k * nx + i];
      double& t_dn = t[(k + 1) * nx + i];
      double& s_up = s[k * nx + i];
      double& s_dn = s[(k + 1) * nx + i];
      const double r_up = -cfg_.alpha_t * t_up + cfg_.beta_s * s_up;
      const double r_dn = -cfg_.alpha_t * t_dn + cfg_.beta_s * s_dn;
      if (r_up > r_dn + 1e-12) {  // denser above lighter: mix
        const double w1 = vgrid_.dz(k);
        const double w2 = vgrid_.dz(k + 1);
        const double tm = (t_up * w1 + t_dn * w2) / (w1 + w2);
        const double sm = (s_up * w1 + s_dn * w2) / (w1 + w2);
        t_up = tm;
        t_dn = tm;
        s_up = sm;
        s_dn = sm;
        mixed = true;
      }
    }
    if (!mixed) break;
  }
}

void OceanModel::diagnose_w_row(int j) {
  // Integrated from the bottom up, so the level loop runs downward and a
  // column joins the sum at its deepest wet level.
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const double invdx = 1.0 / dx(j);
  const double invdy = 1.0 / dy(j);
  const bool has_n = j + 1 < ny;
  const bool has_s = j - 1 >= 0;
  const int* lev = &levels_(0, j);
  const int* lev_n = has_n ? &levels_(0, j + 1) : nullptr;
  const int* lev_s = has_s ? &levels_(0, j - 1) : nullptr;
  double* w = acc(0);
  double* wtop = tile(kTileW);
  std::fill(w + i0_, w + i1_, 0.0);
  for (int k = row_levels_[j] - 1; k >= 0; --k) {
    const double dzk = vgrid_.dz(k);
    const double* u = &up_(0, j, k);
    const double* v = &vp_(0, j, k);
    const double* v_n = has_n ? &vp_(0, j + 1, k) : nullptr;
    const double* v_s = has_s ? &vp_(0, j - 1, k) : nullptr;
    double* wk = wtop + static_cast<std::size_t>(k) * nx;
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      // From the baroclinic deviation velocities: their depth integral
      // vanishes, so w closes at the surface; the barotropic divergence
      // belongs to the (slowed) free surface, not interior upwelling.
      const int ie = x_east(i, nx);
      const int iw = x_west(i, nx);
      const double ue = k < lev[ie] ? 0.5 * (u[i] + u[ie]) : 0.0;
      const double uw = k < lev[iw] ? 0.5 * (u[iw] + u[i]) : 0.0;
      const double vn = (has_n && k < lev_n[i]) ? 0.5 * (v[i] + v_n[i]) : 0.0;
      const double vs = (has_s && k < lev_s[i]) ? 0.5 * (v_s[i] + v[i]) : 0.0;
      const double div = (ue - uw) * invdx + (vn - vs) * invdy;
      w[i] += div * dzk;
      wk[i] = std::clamp(w[i], -cfg_.w_clamp, cfg_.w_clamp);
    }
  }
}

void OceanModel::advect_tracer_row(int j, double dtt, double* t_new,
                                   double* s_new) {
  // Forward-in-time, upwind-in-space transport: monotone, so tracer values
  // stay within physical bounds even where the masked/clamped velocity
  // field is discretely divergent (cliff columns). Diffusion is explicit
  // forward Laplacian. T and S share every face velocity; each keeps its
  // own tendency, accumulated in the same order.
  diagnose_w_row(j);
  const int nx = cfg_.nx;
  const int ny = cfg_.ny;
  const double invdx = 1.0 / dx(j);
  const double invdy = 1.0 / dy(j);
  const bool has_n = j + 1 < ny;
  const bool has_s = j - 1 >= 0;
  const int* lev = &levels_(0, j);
  const int* lev_n = has_n ? &levels_(0, j + 1) : nullptr;
  const int* lev_s = has_s ? &levels_(0, j - 1) : nullptr;
  const double* ub = &ub_(0, j);
  const double* vb = &vb_(0, j);
  const double* vb_n = has_n ? &vb_(0, j + 1) : nullptr;
  const double* vb_s = has_s ? &vb_(0, j - 1) : nullptr;
  const double heat_capacity = cfg_.rho0 * cp_sea_water * vgrid_.dz(0);
  const double dz0 = vgrid_.dz(0);
  const double* wtop = tile(kTileW);
  for (int k = 0; k < row_levels_[j]; ++k) {
    const double dzk = vgrid_.dz(k);
    const std::size_t o = static_cast<std::size_t>(k) * nx;
    const double* u = &up_(0, j, k);
    const double* v = &vp_(0, j, k);
    const double* v_n = has_n ? &vp_(0, j + 1, k) : nullptr;
    const double* v_s = has_s ? &vp_(0, j - 1, k) : nullptr;
    const double* t = &t_(0, j, k);
    const double* s = &s_(0, j, k);
    const double* t_n = has_n ? &t_(0, j + 1, k) : nullptr;
    const double* s_n = has_n ? &s_(0, j + 1, k) : nullptr;
    const double* t_s = has_s ? &t_(0, j - 1, k) : nullptr;
    const double* s_s = has_s ? &s_(0, j - 1, k) : nullptr;
    const double* t_up = k > 0 ? &t_(0, j, k - 1) : nullptr;
    const double* s_up = k > 0 ? &s_(0, j, k - 1) : nullptr;
    const double* t_dn = k + 1 < cfg_.nz ? &t_(0, j, k + 1) : nullptr;
    const double* s_dn = k + 1 < cfg_.nz ? &s_(0, j, k + 1) : nullptr;
    const double* w_top = wtop + o;
    const double* w_bot = wtop + o + nx;  // read only above the bottom
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      const int ie = x_east(i, nx);
      const int iw = x_west(i, nx);
      const bool wet_e = k < lev[ie];
      const bool wet_w = k < lev[iw];
      const bool wet_n = has_n && k < lev_n[i];
      const bool wet_s = has_s && k < lev_s[i];
      // Face velocities (used only where the face is wet).
      const double ue = 0.5 * ((u[i] + ub[i]) + (u[ie] + ub[ie]));
      const double uw = 0.5 * ((u[iw] + ub[iw]) + (u[i] + ub[i]));
      const double vn = wet_n ? 0.5 * ((v[i] + vb[i]) + (v_n[i] + vb_n[i]))
                              : 0.0;
      const double vs = wet_s ? 0.5 * ((v_s[i] + vb_s[i]) + (v[i] + vb[i]))
                              : 0.0;
      // The new value of tracer q (rows q_n/q_s north/south, q_up/q_dn the
      // levels above/below) given its surface-layer forcing tendency.
      auto step = [&](const double* q, const double* q_n, const double* q_s,
                      const double* q_up, const double* q_dn,
                      double surface) {
        double tend = 0.0;
        if (cfg_.enable_horiz_adv) {
          if (wet_e) tend -= ue * (ue > 0.0 ? q[i] : q[ie]) * invdx;
          if (wet_w) tend += uw * (uw > 0.0 ? q[iw] : q[i]) * invdx;
          if (wet_n) tend -= vn * (vn > 0.0 ? q[i] : q_n[i]) * invdy;
          if (wet_s) tend += vs * (vs > 0.0 ? q_s[i] : q[i]) * invdy;
        }
        if (cfg_.enable_vert_adv) {
          if (k > 0) {
            const double w = w_top[i];
            tend -= w * (w > 0.0 ? q[i] : q_up[i]) / dzk;
          }
          if (k + 1 < lev[i]) {
            const double w = w_bot[i];
            tend += w * (w > 0.0 ? q_dn[i] : q[i]) / dzk;
          }
        }
        if (k == 0) tend += surface;
        // Laplacian diffusion (no-flux at land).
        const double qc = q[i];
        const double qe = wet_e ? q[ie] : qc;
        const double qw = wet_w ? q[iw] : qc;
        const double qn = wet_n ? q_n[i] : qc;
        const double qs = wet_s ? q_s[i] : qc;
        tend += cfg_.kappa_h * ((qe - 2.0 * qc + qw) * invdx * invdx +
                                (qn - 2.0 * qc + qs) * invdy * invdy);
        return qc + dtt * tend;
      };
      // Surface forcing: heat flux warms, freshwater dilutes (x - y and
      // x + -y round identically).
      const double heat = k == 0 ? qnet_(i, j) / heat_capacity : 0.0;
      const double fresh = k == 0 ? -(fw_(i, j) * cfg_.s_ref / dz0) : 0.0;
      t_new[o + i] = step(t, t_n, t_s, t_up, t_dn, heat);
      s_new[o + i] = step(s, s_n, s_s, s_up, s_dn, fresh);
    }
  }
}

void OceanModel::finish_tracer_row(int j, double dtt, double* t_new,
                                   double* s_new) {
  const int nx = cfg_.nx;
  const int* lev = &levels_(0, j);
  // Implicit vertical diffusion of the new level.
  if (cfg_.enable_vmix) {
    vertical_diffusion_row(j, kappa_, dtt);
    solve_vertical_row(t_new);
    solve_vertical_row(s_new);
  }
  // Sea-ice freeze clamp (paper: clamp at -1.92 C); the deficit becomes
  // frazil-ice heat the coupler turns into ice growth.
  const double dz0 = vgrid_.dz(0);
  for (int i = i0_; i < i1_; ++i) {
    if (lev[i] == 0) continue;
    if (t_new[i] < sea_ice_freeze_c) {
      const double deficit =
          (sea_ice_freeze_c - t_new[i]) * cfg_.rho0 * cp_sea_water * dz0;
      frazil_heat_ += deficit;
      frazil_cell_(i, j) += deficit;
      t_new[i] = sea_ice_freeze_c;
    }
  }
  if (cfg_.enable_convect)
    for (int i = i0_; i < i1_; ++i)
      if (lev[i] >= 2) convective_adjustment(t_new, s_new, i, lev[i]);
  for (int k = 0; k < row_levels_[j]; ++k) {
    const std::size_t o = static_cast<std::size_t>(k) * nx;
    double* t = &t_(0, j, k);
    double* s = &s_(0, j, k);
    for (int i = i0_; i < i1_; ++i) {
      if (k >= lev[i]) continue;
      t[i] = t_new[o + i];
      s[i] = s_new[o + i];
    }
  }
}

void OceanModel::tracer_step() {
  const double dtt = cfg_.dt_mom * cfg_.tracer_every;

  vertical_mixing_coefficients();

  // Row j's advection still reads the old row j - 1, so each new row waits
  // in its tile and is finished (vertical solve, freeze clamp, convection)
  // and written back one row late.
  double* t_new[2] = {tile(kTileT0), tile(kTileT1)};
  double* s_new[2] = {tile(kTileS0), tile(kTileS1)};
  for (int j = j0_; j < j1_; ++j) {
    const int cur = (j - j0_) & 1;
    advect_tracer_row(j, dtt, t_new[cur], s_new[cur]);
    if (j > j0_) finish_tracer_row(j - 1, dtt, t_new[cur ^ 1], s_new[cur ^ 1]);
  }
  if (j1_ > j0_) {
    const int last = (j1_ - 1 - j0_) & 1;
    finish_tracer_row(j1_ - 1, dtt, t_new[last], s_new[last]);
  }

  if (cfg_.enable_ts_filter) {
    apply_polar_filter_3d(t_);
    apply_polar_filter_3d(s_);
  }
  exchange_halo(t_);
  exchange_halo(s_);

  double wet_cells = 0.0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) wet_cells += levels_(i, j);
  work_points_ += 6.0 * wet_cells;
}

void OceanModel::filter_polar_slots() {
  if (row_comm_ == nullptr) {  // whole rows are local (serial or px == 1)
    for (const PolarSlot& s : polar_slots_)
      filter_.filter_row(s.row, s.mask, s.j, filter_ws_);
    return;
  }
  filter_rows_distributed();
}

void OceanModel::filter_rows_distributed() {
  // Round-robin slot ownership balances the filter work across the
  // process row — this is the whole point of decomposing in x: the polar
  // ranks' filter load, which caps the row decomposition's scaling,
  // divides by px instead of being repeated on every rank.
  const int P = row_comm_->size();
  const int rr = row_comm_->rank();  // row-comm rank == pi
  const int nx = cfg_.nx;
  const int nslots = static_cast<int>(polar_slots_.size());
  const int per_rank = (nslots + P - 1) / P;  // most slots any rank filters
  int width = 0;
  for (int r = 0; r < P; ++r)
    width = std::max(width, decomp_.x_range(r).count());
  // Block for one peer: per_rank segments, each padded to width.
  const std::size_t block = static_cast<std::size_t>(per_rank) * width;
  auto seg = [&](int r, int t) {
    return static_cast<std::size_t>(r) * block +
           static_cast<std::size_t>(t) * width;
  };
  transpose_send_.resize(block * P);
  transpose_recv_.resize(block * P);
  transpose_rows_.resize(static_cast<std::size_t>(per_rank) * nx);

  // Round 1: my segment of slot s goes to rank s % P as its (s / P)-th.
  for (int s = 0; s < nslots; ++s) {
    const double* row = polar_slots_[static_cast<std::size_t>(s)].row;
    std::copy(row + i0_, row + i1_,
              transpose_send_.begin() +
                  static_cast<std::ptrdiff_t>(seg(s % P, s / P)));
  }
  row_comm_->alltoall(transpose_send_.data(), transpose_recv_.data(), block);
  // Assemble, filter and split each of my slots rr, rr + P, ...
  for (int t = 0, s = rr; s < nslots; ++t, s += P) {
    double* full = transpose_rows_.data() + static_cast<std::size_t>(t) * nx;
    for (int r = 0; r < P; ++r) {
      const par::Range xr = decomp_.x_range(r);
      std::copy_n(transpose_recv_.begin() +
                      static_cast<std::ptrdiff_t>(seg(r, t)),
                  xr.count(), full + xr.lo);
    }
    const PolarSlot& slot = polar_slots_[static_cast<std::size_t>(s)];
    filter_.filter_row(full, slot.mask, slot.j, filter_ws_);
    for (int r = 0; r < P; ++r) {
      const par::Range xr = decomp_.x_range(r);
      std::copy_n(full + xr.lo, xr.count(),
                  transpose_send_.begin() +
                      static_cast<std::ptrdiff_t>(seg(r, t)));
    }
  }
  // Round 2: the filtered segments come home.
  row_comm_->alltoall(transpose_send_.data(), transpose_recv_.data(), block);
  for (int s = 0; s < nslots; ++s) {
    const PolarSlot& slot = polar_slots_[static_cast<std::size_t>(s)];
    const double* back = transpose_recv_.data() + seg(s % P, s / P);
    for (int i = i0_; i < i1_; ++i)
      if (slot.mask[i] != 0) slot.row[i] = back[i - i0_];
  }
}

void OceanModel::apply_polar_filter_2d(Field2Dd& f) {
  // Ranks sharing a process row share the j-range, so an empty slot list
  // (and the collective transpose) stays aligned across the row comm.
  if (polar_rows_.empty()) return;
  polar_slots_.clear();
  for (const PolarRow& p : polar_rows_)
    polar_slots_.push_back({&f(0, p.j), &mask2d_(0, p.j), p.j});
  filter_polar_slots();
}

void OceanModel::apply_polar_filter_3d(Field3Dd& f) {
  if (polar_rows_.empty()) return;  // no wet polar rows in this process row
  // Per-level wet masks: columns dry at a depth are treated as land so
  // their placeholder values never contaminate wet cells.
  polar_slots_.clear();
  for (int k = 0; k < cfg_.nz; ++k)
    for (const PolarRow& p : polar_rows_)
      if (k < p.wet_levels)
        polar_slots_.push_back({&f(0, p.j, k),
                                &kmask_[static_cast<std::size_t>(k)](0, p.j),
                                p.j});
  filter_polar_slots();
}

void OceanModel::step() {
  {
    FOAM_TRACE_SCOPE("ocean.baroclinic");
    internal_momentum_step();
  }
  {
    FOAM_TRACE_SCOPE("ocean.barotropic");
    barotropic_subcycle();
  }
  ++steps_;
  if (steps_ % cfg_.tracer_every == 0) {
    FOAM_TRACE_SCOPE("ocean.tracer");
    tracer_step();
  }
}

void OceanModel::run_days(double days) {
  const std::int64_t n = static_cast<std::int64_t>(
      std::llround(days * constants::seconds_per_day / cfg_.dt_mom));
  for (std::int64_t i = 0; i < n; ++i) step();
}

Field2Dd OceanModel::drain_frazil() {
  Field2Dd out = frazil_cell_;
  frazil_cell_.fill(0.0);
  return out;
}

Field2Dd OceanModel::sst() const {
  Field2Dd out(cfg_.nx, cfg_.ny, 0.0);
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i)
      out(i, j) = mask2d_(i, j) != 0 ? t_(i, j, 0) : 0.0;
  return out;
}

Field2Dd OceanModel::gather(const Field2Dd& f) const {
  FOAM_TRACE_SCOPE("ocean.gather");
  Field2Dd out(f);
  if (comm_ == nullptr || comm_->size() == 1) return out;
  // Every rank contributes its owned box, packed row-major; blocks are
  // concatenated in rank order, so reassembly walks each rank's box.
  std::vector<int> counts(comm_->size());
  for (int r = 0; r < comm_->size(); ++r)
    counts[r] =
        decomp_.x_range_of_rank(r).count() * decomp_.y_range_of_rank(r).count();
  std::vector<double> mine(
      static_cast<std::size_t>(j1_ - j0_) * (i1_ - i0_));
  std::size_t off = 0;
  for (int j = j0_; j < j1_; ++j)
    for (int i = i0_; i < i1_; ++i) mine[off++] = f(i, j);
  std::vector<double> all;
  comm_->gatherv(mine, all, counts, 0);
  comm_->bcast_vec(all, 0);
  off = 0;
  for (int r = 0; r < comm_->size(); ++r) {
    const par::Range xr = decomp_.x_range_of_rank(r);
    const par::Range yr = decomp_.y_range_of_rank(r);
    for (int j = yr.lo; j < yr.hi; ++j)
      for (int i = xr.lo; i < xr.hi; ++i) out(i, j) = all[off++];
  }
  return out;
}

OceanDiagnostics OceanModel::diagnostics() const {
  double sum_sst_a = 0.0, sum_a = 0.0, sum_ke = 0.0, sum_vol = 0.0;
  double max_speed = 0.0, max_eta = 0.0, sum_t_vol = 0.0;
  for (int j = j0_; j < j1_; ++j) {
    const double area = grid_.cell_area(j);
    for (int i = i0_; i < i1_; ++i) {
      const int lev = levels_(i, j);
      if (lev == 0) continue;
      sum_sst_a += t_(i, j, 0) * area;
      sum_a += area;
      max_eta = std::max(max_eta, std::abs(eta_(i, j)));
      for (int k = 0; k < lev; ++k) {
        const double u = u_total(i, j, k);
        const double v = v_total(i, j, k);
        const double vol = area * vgrid_.dz(k);
        sum_ke += 0.5 * (u * u + v * v) * vol;
        sum_t_vol += t_(i, j, k) * vol;
        sum_vol += vol;
        max_speed = std::max(max_speed, std::sqrt(u * u + v * v));
      }
    }
  }
  OceanDiagnostics d;
  if (comm_ != nullptr && comm_->size() > 1) {
    sum_sst_a = comm_->allreduce_scalar(sum_sst_a, par::ReduceOp::kSum);
    sum_a = comm_->allreduce_scalar(sum_a, par::ReduceOp::kSum);
    sum_ke = comm_->allreduce_scalar(sum_ke, par::ReduceOp::kSum);
    sum_vol = comm_->allreduce_scalar(sum_vol, par::ReduceOp::kSum);
    sum_t_vol = comm_->allreduce_scalar(sum_t_vol, par::ReduceOp::kSum);
    max_speed = comm_->allreduce_scalar(max_speed, par::ReduceOp::kMax);
    max_eta = comm_->allreduce_scalar(max_eta, par::ReduceOp::kMax);
  }
  d.mean_sst = sum_a > 0.0 ? sum_sst_a / sum_a : 0.0;
  d.mean_kinetic = sum_vol > 0.0 ? sum_ke / sum_vol : 0.0;
  d.max_speed = max_speed;
  d.max_eta = max_eta;
  d.mean_temp_3d = sum_vol > 0.0 ? sum_t_vol / sum_vol : 0.0;
  d.frazil_heat = frazil_heat_;
  return d;
}

namespace {

void copy_into(const HistoryRecord& rec, Field3Dd& f) {
  FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint record size");
  std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
}

void copy_into(const HistoryRecord& rec, Field2Dd& f) {
  FOAM_REQUIRE(rec.data.size() == f.size(), "checkpoint record size");
  std::copy(rec.data.begin(), rec.data.end(), f.vec().begin());
}

}  // namespace

void OceanModel::save_state(HistoryWriter& out,
                            const std::string& prefix) const {
  out.write(prefix + ".t", t_);
  out.write(prefix + ".s", s_);
  out.write(prefix + ".up", up_);
  out.write(prefix + ".vp", vp_);
  out.write(prefix + ".up_prev", up_prev_);
  out.write(prefix + ".vp_prev", vp_prev_);
  out.write(prefix + ".eta", eta_);
  out.write(prefix + ".ub", ub_);
  out.write(prefix + ".vb", vb_);
  out.write(prefix + ".frazil", frazil_cell_);
  // The Pacanowski-Philander coefficients persist between tracer steps and
  // feed the momentum solve, so they are prognostic for restart purposes.
  out.write(prefix + ".nu", nu_);
  out.write(prefix + ".kappa", kappa_);
  out.write_scalar(prefix + ".steps", static_cast<double>(steps_));
  out.write_scalar(prefix + ".have_mom_prev", have_mom_prev_ ? 1.0 : 0.0);
  out.write_scalar(prefix + ".frazil_heat", frazil_heat_);
}

void OceanModel::load_state(const HistoryReader& in,
                            const std::string& prefix) {
  copy_into(in.find(prefix + ".t"), t_);
  copy_into(in.find(prefix + ".s"), s_);
  copy_into(in.find(prefix + ".up"), up_);
  copy_into(in.find(prefix + ".vp"), vp_);
  copy_into(in.find(prefix + ".up_prev"), up_prev_);
  copy_into(in.find(prefix + ".vp_prev"), vp_prev_);
  copy_into(in.find(prefix + ".eta"), eta_);
  copy_into(in.find(prefix + ".ub"), ub_);
  copy_into(in.find(prefix + ".vb"), vb_);
  copy_into(in.find(prefix + ".frazil"), frazil_cell_);
  copy_into(in.find(prefix + ".nu"), nu_);
  copy_into(in.find(prefix + ".kappa"), kappa_);
  steps_ =
      static_cast<std::int64_t>(in.find(prefix + ".steps").data[0]);
  have_mom_prev_ = in.find(prefix + ".have_mom_prev").data[0] != 0.0;
  frazil_heat_ = in.find(prefix + ".frazil_heat").data[0];
}

double analytic_zonal_stress(double lat_rad) {
  const double lat_deg = lat_rad / deg2rad;
  const double envelope = std::exp(-std::pow(lat_deg / 70.0, 8.0));
  return -0.08 * std::cos(3.0 * lat_rad) * envelope;
}

Field2Dd restoring_heat_flux(const numerics::MercatorGrid& grid,
                             const Field2Dd& sst, int month,
                             double lambda_w_m2_k) {
  Field2Dd q(grid.nlon(), grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) {
    const double lat = grid.lat(j) / deg2rad;
    for (int i = 0; i < grid.nlon(); ++i) {
      const double t_star =
          data::sst_climatology(lat, grid.lon(i) / deg2rad, month);
      q(i, j) = lambda_w_m2_k * (t_star - sst(i, j));
    }
  }
  return q;
}

}  // namespace foam::ocean
