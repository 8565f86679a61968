#include "ocean/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "data/earth.hpp"
#include "base/constants.hpp"
#include "base/history.hpp"
#include "ocean/vgrid.hpp"

namespace foam::ocean {
namespace {

/// Shared small-world fixture: 48x48 conformal-clipped grid, 8 levels.
struct SmallOcean {
  SmallOcean()
      : grid(48, 48, 60.0),
        bathy(data::bathymetry(grid)),
        cfg(OceanConfig::testing(48, 48, 8)) {}
  numerics::MercatorGrid grid;
  Field2Dd bathy;
  OceanConfig cfg;
};

TEST(VerticalGrid, StretchedLevelsSumToDepth) {
  VerticalGrid v(16, 25.0, 4800.0);
  EXPECT_EQ(v.nz(), 16);
  EXPECT_NEAR(v.z_bottom(15), 4800.0, 1e-6);
  EXPECT_NEAR(v.dz(0), 25.0, 1e-9);
  // Monotonically thickening with depth.
  for (int k = 1; k < 16; ++k) EXPECT_GT(v.dz(k), v.dz(k - 1));
  // Centers inside their layers.
  for (int k = 0; k < 16; ++k) {
    EXPECT_LT(v.z_center(k), v.z_bottom(k));
    if (k > 0) {
      EXPECT_GT(v.z_center(k), v.z_bottom(k - 1));
    }
  }
}

TEST(VerticalGrid, WetLayers) {
  VerticalGrid v(16, 25.0, 4800.0);
  EXPECT_EQ(v.wet_layers(0.0), 0);
  EXPECT_EQ(v.wet_layers(10.0), 1);  // any water gets a surface layer
  EXPECT_EQ(v.wet_layers(4800.0), 16);
  EXPECT_EQ(v.wet_layers(1.0e9), 16);
  // Monotone in depth.
  int prev = 0;
  for (double d = 0.0; d < 6000.0; d += 50.0) {
    const int n = v.wet_layers(d);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

TEST(OceanModel, ConstructAndInit) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  EXPECT_FALSE(has_non_finite(m.temperature()));
  EXPECT_FALSE(has_non_finite(m.salinity()));
  const auto d = m.diagnostics();
  // Initial SST follows the analytic climatology: warm global mean.
  EXPECT_GT(d.mean_sst, 5.0);
  EXPECT_LT(d.mean_sst, 25.0);
  // Thermal-wind init gives gentle currents, not a shock.
  EXPECT_LT(d.max_speed, 1.0);
}

TEST(OceanModel, CflGuardRejectsBadConfigs) {
  SmallOcean w;
  OceanConfig bad = w.cfg;
  bad.split_barotropic = false;
  bad.slow_factor = 1.0;  // full-speed waves with a 1-hour step
  EXPECT_THROW(OceanModel(bad, w.grid, w.bathy), Error);
}

TEST(OceanModel, TenDaysStableUnforced) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  m.run_days(10.0);
  EXPECT_FALSE(has_non_finite(m.temperature()));
  EXPECT_FALSE(has_non_finite(m.eta()));
  const auto d = m.diagnostics();
  EXPECT_LT(d.max_speed, 3.0);
  EXPECT_LT(d.max_eta, 20.0);
  // Volume-mean temperature moves little without surface forcing.
  EXPECT_NEAR(d.mean_temp_3d, 4.0, 3.0);
}

TEST(OceanModel, WindDrivesCirculation) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd taux(48, 48, 0.3), tauy(48, 48, 0.0);  // strong westerly
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  m.set_forcing(wind);
  m.run_days(5.0);
  // Twin run without wind: the westerly must push the mean surface flow
  // eastward relative to the calm twin.
  OceanModel calm(w.cfg, w.grid, w.bathy);
  calm.init_climatology();
  calm.run_days(5.0);
  double du = 0.0;
  int n = 0;
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      if (m.levels()(i, j) > 0) {
        du += m.u_total(i, j, 0) - calm.u_total(i, j, 0);
        ++n;
      }
  EXPECT_GT(du / n, 0.005);
  EXPECT_FALSE(has_non_finite(m.temperature()));
}

TEST(OceanModel, HeatFluxWarmsSurface) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd q(48, 48, 100.0);  // uniform 100 W/m^2 in
  OceanForcing heating;
  heating.heat = &q;
  m.set_forcing(heating);
  m.run_days(5.0);
  // Twin run without heating isolates the flux response from the model's
  // internal adjustment drift: 100 W/m^2 into a 25 m layer over 5 days is
  // ~0.42 K.
  OceanModel twin(w.cfg, w.grid, w.bathy);
  twin.init_climatology();
  twin.run_days(5.0);
  const double dt_flux =
      m.diagnostics().mean_sst - twin.diagnostics().mean_sst;
  EXPECT_GT(dt_flux, 0.2);
  EXPECT_LT(dt_flux, 0.8);
}

TEST(OceanModel, FreezeClampProducesFrazil) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd q(48, 48, -600.0);  // strong cooling everywhere
  OceanForcing cooling;
  cooling.heat = &q;
  m.set_forcing(cooling);
  m.run_days(5.0);
  const auto d = m.diagnostics();
  EXPECT_GT(d.frazil_heat, 0.0);
  // SST never falls below the clamp.
  const Field2Dd sst = m.sst();
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      if (m.levels()(i, j) > 0) {
        EXPECT_GE(sst(i, j), foam::constants::sea_ice_freeze_c - 1e-9);
      }
  Field2Dd frazil = m.drain_frazil();
  EXPECT_GT(frazil.max(), 0.0);
  // Draining resets the accumulator.
  frazil = m.drain_frazil();
  EXPECT_DOUBLE_EQ(frazil.max_abs(), 0.0);
}

TEST(OceanModel, FreshwaterRaisesEtaAndFreshens) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  const double s0 = m.salinity()(24, 24, 0);
  Field2Dd fw(48, 48, 1.0e-7);  // ~8.6 mm/day everywhere
  OceanForcing rain;
  rain.freshwater = &fw;
  m.set_forcing(rain);
  m.run_days(5.0);
  EXPECT_LT(m.salinity()(24, 24, 0), s0);
  EXPECT_GT(m.eta().mean(), 0.0);
}

TEST(OceanModel, WorkCounterTracksConfiguration) {
  SmallOcean w;
  OceanModel full(w.cfg, w.grid, w.bathy);
  full.init_climatology();
  full.run_days(1.0);

  OceanConfig cheap = w.cfg;
  cheap.tracer_every = 4;  // fewer tracer steps -> less work
  OceanModel lazy(cheap, w.grid, w.bathy);
  lazy.init_climatology();
  lazy.run_days(1.0);
  EXPECT_GT(full.work_points(), lazy.work_points());
}

TEST(OceanModel, SplitFoamOceanCheaperThanConventional) {
  // The ~10x formulation claim, in miniature: per simulated day the FOAM
  // configuration performs far fewer grid-point updates than the
  // conventional explicit free-surface configuration.
  SmallOcean w;
  OceanModel foam_ocean(w.cfg, w.grid, w.bathy);
  foam_ocean.init_climatology();
  foam_ocean.run_days(0.5);
  const double foam_work = foam_ocean.work_points();

  OceanConfig conv = OceanConfig::testing(48, 48, 8);
  conv.split_barotropic = false;
  conv.slow_factor = 1.0;
  conv.tracer_every = 1;
  conv.dt_mom = 60.0;
  OceanModel baseline(conv, w.grid, w.bathy);
  baseline.init_climatology();
  baseline.run_days(0.5);
  const double conv_work = baseline.work_points();
  EXPECT_GT(conv_work / foam_work, 5.0)
      << "conventional formulation should cost several times more";
}

TEST(OceanModel, ParallelMatchesSerialClosely) {
  SmallOcean w;
  OceanModel serial(w.cfg, w.grid, w.bathy);
  serial.init_climatology();
  for (int s = 0; s < 12; ++s) serial.step();
  const auto ds = serial.diagnostics();

  par::run(3, [&](par::Comm& comm) {
    OceanModel m(w.cfg, w.grid, w.bathy, &comm);
    m.init_climatology();
    for (int s = 0; s < 12; ++s) m.step();
    const auto dp = m.diagnostics();
    // State evolution is halo-exchange only: decomposition must not change
    // the answer beyond reduction rounding in the diagnostics.
    EXPECT_NEAR(dp.mean_sst, ds.mean_sst, 1e-9);
    EXPECT_NEAR(dp.mean_temp_3d, ds.mean_temp_3d, 1e-9);
    EXPECT_NEAR(dp.mean_kinetic, ds.mean_kinetic,
                1e-9 * std::max(1e-12, ds.mean_kinetic));
    // Gathered SST matches the serial field.
    const Field2Dd sst = m.gather(m.sst());
    const Field2Dd ref = serial.sst();
    double max_diff = 0.0;
    for (int j = 0; j < 48; ++j)
      for (int i = 0; i < 48; ++i)
        max_diff = std::max(max_diff, std::abs(sst(i, j) - ref(i, j)));
    EXPECT_LT(max_diff, 1e-12);
  });
}

TEST(OceanModel, IceFractionScalesStress) {
  SmallOcean w;
  OceanModel no_ice(w.cfg, w.grid, w.bathy);
  no_ice.init_climatology();
  OceanModel iced(w.cfg, w.grid, w.bathy);
  iced.init_climatology();
  Field2Dd taux(48, 48, 0.1), tauy(48, 48, 0.0);
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  no_ice.set_forcing(wind);
  Field2Dd ice(48, 48, 1.0);
  OceanForcing windy_ice = wind;
  windy_ice.ice = &ice;
  iced.set_forcing(windy_ice);
  no_ice.run_days(2.0);
  iced.run_days(2.0);
  // Full ice cover divides the stress by 15: less wind-driven energy.
  EXPECT_LT(iced.diagnostics().mean_kinetic,
            no_ice.diagnostics().mean_kinetic);
}

TEST(OceanModel, SetForcingIsAtomic) {
  SmallOcean w;
  OceanModel m(w.cfg, w.grid, w.bathy);
  m.init_climatology();
  Field2Dd good(48, 48, 0.1), bad(24, 24, 1.0);
  // A bundle with one malformed field must be rejected whole: the valid
  // wind components must not have been applied.
  OceanForcing f;
  f.wind_x = &good;
  f.wind_y = &good;
  f.heat = &bad;
  EXPECT_THROW(m.set_forcing(f), Error);
  OceanModel calm(w.cfg, w.grid, w.bathy);
  calm.init_climatology();
  m.run_days(2.0);
  calm.run_days(2.0);
  // Same evolution as the never-forced twin: the wind was not applied.
  EXPECT_DOUBLE_EQ(m.diagnostics().mean_kinetic,
                   calm.diagnostics().mean_kinetic);
  // Wind components must come as a pair.
  OceanForcing lonely;
  lonely.wind_x = &good;
  EXPECT_THROW(m.set_forcing(lonely), Error);
}

TEST(OceanModel, PartialForcingBundleLeavesOtherFieldsUntouched) {
  // What the retired per-field shims used to exercise: a bundle carrying
  // only some fields must update exactly those, so successive partial
  // set_forcing calls compose the same state as one full bundle.
  SmallOcean w;
  OceanModel via_steps(w.cfg, w.grid, w.bathy);
  via_steps.init_climatology();
  OceanModel via_bundle(w.cfg, w.grid, w.bathy);
  via_bundle.init_climatology();
  Field2Dd taux(48, 48, 0.2), tauy(48, 48, 0.05), q(48, 48, 50.0);
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;
  via_steps.set_forcing(wind);
  OceanForcing heat;
  heat.heat = &q;
  via_steps.set_forcing(heat);
  OceanForcing f;
  f.wind_x = &taux;
  f.wind_y = &tauy;
  f.heat = &q;
  via_bundle.set_forcing(f);
  via_steps.run_days(2.0);
  via_bundle.run_days(2.0);
  EXPECT_DOUBLE_EQ(via_steps.diagnostics().mean_kinetic,
                   via_bundle.diagnostics().mean_kinetic);
  EXPECT_DOUBLE_EQ(via_steps.diagnostics().mean_sst,
                   via_bundle.diagnostics().mean_sst);
}

/// Run `steps` forced steps serially and under the given rank grid, then
/// require the state to match the serial run bitwise: the gathered SST and
/// free surface, and T, S and the full velocities at every wet level of
/// each rank's owned box. Decomposition must not change a single bit. The
/// filter latitude is lowered so the polar filter acts on this 60-degree
/// grid (12 polar rows) and its px > 1 row transpose is exercised.
void expect_layout_bitwise(int nranks, int px, int steps) {
  SmallOcean w;
  w.cfg.filter_lat = 50.0;
  Field2Dd taux(48, 48, 0.0), tauy(48, 48, 0.02);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      taux(i, j) = analytic_zonal_stress(w.grid.lat(j));
  OceanForcing wind;
  wind.wind_x = &taux;
  wind.wind_y = &tauy;

  OceanModel serial(w.cfg, w.grid, w.bathy);
  serial.init_climatology();
  serial.set_forcing(wind);
  for (int s = 0; s < steps; ++s) serial.step();
  const Field2Dd ref_sst = serial.sst();
  const Field2Dd& ref_eta = serial.eta();

  par::run(nranks, [&](par::Comm& comm) {
    OceanModel m(w.cfg, w.grid, w.bathy, &comm, px);
    m.init_climatology();
    m.set_forcing(wind);
    for (int s = 0; s < steps; ++s) m.step();
    const Field2Dd sst = m.gather(m.sst());
    const Field2Dd eta = m.gather(m.eta());
    for (int j = 0; j < 48; ++j) {
      for (int i = 0; i < 48; ++i) {
        ASSERT_EQ(sst(i, j), ref_sst(i, j))
            << "sst differs at (" << i << "," << j << ") px=" << px;
        ASSERT_EQ(eta(i, j), ref_eta(i, j))
            << "eta differs at (" << i << "," << j << ") px=" << px;
      }
    }
    for (int j = m.row_lo(); j < m.row_hi(); ++j) {
      for (int i = m.col_lo(); i < m.col_hi(); ++i) {
        for (int k = 0; k < m.levels()(i, j); ++k) {
          ASSERT_EQ(m.temperature()(i, j, k), serial.temperature()(i, j, k))
              << "T differs at (" << i << "," << j << "," << k
              << ") px=" << px;
          ASSERT_EQ(m.salinity()(i, j, k), serial.salinity()(i, j, k))
              << "S differs at (" << i << "," << j << "," << k
              << ") px=" << px;
          ASSERT_EQ(m.u_total(i, j, k), serial.u_total(i, j, k))
              << "u differs at (" << i << "," << j << "," << k
              << ") px=" << px;
          ASSERT_EQ(m.v_total(i, j, k), serial.v_total(i, j, k))
              << "v differs at (" << i << "," << j << "," << k
              << ") px=" << px;
        }
      }
    }
  });
}

TEST(OceanModel, TwoByTwoMatchesSerialBitwise) {
  expect_layout_bitwise(4, 2, 12);
}

TEST(OceanModel, FourByOneMatchesSerialBitwise) {
  expect_layout_bitwise(4, 4, 12);
}

TEST(OceanModel, TwoByThreeMatchesSerialBitwise) {
  expect_layout_bitwise(6, 2, 8);
}

TEST(OceanModel, FiveByOneMatchesSerialBitwise) {
  // Ragged segments: 48 columns split 10/10/10/9/9, so the transpose pads
  // the narrower ranks' blocks; 12 polar rows (96 level slots) are not a
  // multiple of 5, so the ranks filter unequal slot counts.
  expect_layout_bitwise(5, 5, 8);
}

TEST(OceanModel, LoadsShardWithRetiredTracerLevel) {
  // Checkpoints written before the previous tracer level was retired carry
  // .t_prev, .s_prev and .have_tracer_prev records. They must still resume,
  // bitwise as a shard without them: nothing in the model reads that level.
  SmallOcean w;
  Field2Dd taux(48, 48, 0.0), tauy(48, 48, 0.02), q(48, 48, 30.0);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      taux(i, j) = analytic_zonal_stress(w.grid.lat(j));
  OceanForcing f;
  f.wind_x = &taux;
  f.wind_y = &tauy;
  f.heat = &q;

  OceanModel src(w.cfg, w.grid, w.bathy);
  src.init_climatology();
  src.set_forcing(f);
  for (int s = 0; s < 6; ++s) src.step();  // past several tracer steps
  const std::string p_new = testing::TempDir() + "/ocean_shard_new";
  const std::string p_old = testing::TempDir() + "/ocean_shard_retired";
  {
    HistoryWriter out(p_new);
    src.save_state(out, "ocean");
    out.close();
  }
  {
    HistoryWriter out(p_old);
    src.save_state(out, "ocean");
    // Values no model state holds, so reading them anywhere would show.
    out.write("ocean.t_prev", Field3Dd(48, 48, 8, 99.0));
    out.write("ocean.s_prev", Field3Dd(48, 48, 8, -1.0));
    out.write_scalar("ocean.have_tracer_prev", 1.0);
    out.close();
  }
  {
    const HistoryReader in(p_old);
    ASSERT_NO_THROW(in.find("ocean.t_prev"));
  }

  auto resume = [&](const std::string& path) {
    auto m = std::make_unique<OceanModel>(w.cfg, w.grid, w.bathy);
    m->init_climatology();
    m->load_state(HistoryReader(path), "ocean");
    m->set_forcing(f);
    for (int s = 0; s < 6; ++s) m->step();
    return m;
  };
  const auto a = resume(p_new);
  const auto b = resume(p_old);
  std::remove(p_new.c_str());
  std::remove(p_old.c_str());
  EXPECT_EQ(a->step_count(), 12);
  EXPECT_EQ(b->step_count(), 12);
  for (int j = 0; j < 48; ++j) {
    for (int i = 0; i < 48; ++i) {
      ASSERT_EQ(a->eta()(i, j), b->eta()(i, j)) << "(" << i << "," << j << ")";
      for (int k = 0; k < a->levels()(i, j); ++k) {
        ASSERT_EQ(a->temperature()(i, j, k), b->temperature()(i, j, k))
            << "T at (" << i << "," << j << "," << k << ")";
        ASSERT_EQ(a->salinity()(i, j, k), b->salinity()(i, j, k))
            << "S at (" << i << "," << j << "," << k << ")";
        ASSERT_EQ(a->u_total(i, j, k), b->u_total(i, j, k))
            << "u at (" << i << "," << j << "," << k << ")";
        ASSERT_EQ(a->v_total(i, j, k), b->v_total(i, j, k))
            << "v at (" << i << "," << j << "," << k << ")";
      }
    }
  }
  // The resumed run is the uninterrupted one, too.
  for (int s = 0; s < 6; ++s) src.step();
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i)
      for (int k = 0; k < src.levels()(i, j); ++k)
        ASSERT_EQ(src.temperature()(i, j, k), b->temperature()(i, j, k))
            << "T at (" << i << "," << j << "," << k << ")";
}

TEST(OceanModel, RejectsIndivisibleRankGrid) {
  SmallOcean w;
  par::run(3, [&](par::Comm& comm) {
    EXPECT_THROW(OceanModel(w.cfg, w.grid, w.bathy, &comm, 2), Error);
  });
}

TEST(OceanModel, AblationSwitchesRun) {
  SmallOcean w;
  for (auto mod : {0, 1, 2, 3}) {
    OceanConfig c = w.cfg;
    if (mod == 1) c.enable_horiz_adv = false;
    if (mod == 2) c.enable_vert_adv = false;
    if (mod == 3) c.enable_baroclinic_pg = false;
    OceanModel m(c, w.grid, w.bathy);
    m.init_climatology();
    m.run_days(1.0);
    EXPECT_FALSE(has_non_finite(m.temperature())) << "mod " << mod;
  }
}

}  // namespace
}  // namespace foam::ocean
