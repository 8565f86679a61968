#include "numerics/filters.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <random>

#include "base/constants.hpp"
#include "numerics/fft.hpp"

namespace foam::numerics {
namespace {

using constants::pi;

Field2D<int> all_ocean(int nx, int ny) { return Field2D<int>(nx, ny, 1); }

TEST(PolarFilter, IdentityEquatorwardOfCriticalLatitude) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = std::sin(0.7 * i) + 0.1 * j;
  Field2Dd orig(f);
  filter.apply(f);
  for (int j = 0; j < 64; ++j) {
    if (std::abs(grid.lat(j)) * 180.0 / pi < 59.0) {
      for (int i = 0; i < 64; ++i)
        EXPECT_NEAR(f(i, j), orig(i, j), 1e-12) << "j=" << j;
    }
  }
}

TEST(PolarFilter, PreservesZonalMean) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = 3.0 + std::cos(2.0 * pi * 13.0 * i / 64.0);
  std::vector<double> mean_before(64, 0.0);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) mean_before[j] += f(i, j) / 64.0;
  filter.apply(f);
  for (int j = 0; j < 64; ++j) {
    double mean = 0.0;
    for (int i = 0; i < 64; ++i) mean += f(i, j) / 64.0;
    EXPECT_NEAR(mean, mean_before[j], 1e-12) << "j=" << j;
  }
}

TEST(PolarFilter, DampsHighWavenumbersNearPole) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  const int j_polar = 63;  // northernmost row
  ASSERT_GT(std::abs(grid.lat(j_polar)) * 180.0 / pi, 70.0);
  Field2Dd f(64, 64, 0.0);
  const int m = 30;  // near-Nyquist zonal wave
  for (int i = 0; i < 64; ++i)
    f(i, j_polar) = std::cos(2.0 * pi * m * i / 64.0);
  filter.apply(f);
  double amp = 0.0;
  for (int i = 0; i < 64; ++i) amp = std::max(amp, std::abs(f(i, j_polar)));
  EXPECT_LT(amp, 0.5);  // strongly attenuated
  EXPECT_GT(amp, 0.0);
}

TEST(PolarFilter, FactorProperties) {
  MercatorGrid grid(128, 128, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  for (int j = 0; j < 128; ++j) {
    EXPECT_DOUBLE_EQ(filter.factor(0, j), 1.0);
    double prev = 2.0;
    for (int m = 1; m <= 64; ++m) {
      const double fac = filter.factor(m, j);
      EXPECT_LE(fac, 1.0);
      EXPECT_GE(fac, 0.0);
      EXPECT_LE(fac, prev + 1e-15);  // monotone non-increasing in m
      prev = fac;
    }
  }
}

TEST(PolarFilter, NeverAmplifies) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 55.0);
  Field2Dd f(64, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i)
      f(i, j) = std::sin(1.3 * i + 0.2 * j) + std::cos(2.9 * i);
  const double max_before = f.max_abs();
  filter.apply(f);
  EXPECT_LE(f.max_abs(), max_before * (1.0 + 1e-12));
}

TEST(PolarFilter, MaskedApplyLeavesLandUntouched) {
  MercatorGrid grid(64, 64, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  Field2Dd f(64, 64);
  Field2D<int> mask = all_ocean(64, 64);
  for (int i = 20; i < 40; ++i) mask(i, 62) = 0;  // land strip near pole
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 64; ++i) f(i, j) = std::sin(2.1 * i) + j;
  Field2Dd orig(f);
  filter.apply(f, mask);
  for (int i = 20; i < 40; ++i)
    EXPECT_DOUBLE_EQ(f(i, 62), orig(i, 62)) << "land i=" << i;
}

// The masked row filter as it ran on the reference Fft before FftPlan:
// fill dry cells with the wet mean, real forward, scale, real inverse,
// restore the dry cells. The oracle for the plan-based filter_row.
void reference_filter_row(const Fft& fft, const PolarFourierFilter& filter,
                          std::vector<double>& row, const int* mask, int j) {
  const int n = fft.size();
  std::vector<double> vals(row);
  if (mask != nullptr) {
    double mean = 0.0;
    int wet = 0;
    for (int i = 0; i < n; ++i)
      if (mask[i] != 0) {
        mean += row[i];
        ++wet;
      }
    if (wet == 0) return;
    mean /= wet;
    for (int i = 0; i < n; ++i)
      if (mask[i] == 0) vals[i] = mean;
  }
  auto spec = fft.forward_real(vals);
  for (int m = 1; m <= n / 2; ++m) spec[m] *= filter.factor(m, j);
  vals = fft.inverse_real(spec);
  for (int i = 0; i < n; ++i)
    if (mask == nullptr || mask[i] != 0) row[i] = vals[i];
}

TEST(PolarFilter, PlanRowFilterMatchesReferenceFftBitwise) {
  // Ocean row lengths: 48 (tests), 96, 128 (paper). Random values and
  // random masks of every wet fraction, plus all-dry, all-wet and unmasked
  // rows: every cell must come out bitwise equal to the reference path.
  for (const int n : {48, 96, 128}) {
    MercatorGrid grid(n, n, 78.0);
    PolarFourierFilter filter(grid, 60.0);
    const Fft fft(n);
    auto ws = filter.make_workspace();
    std::mt19937 rng(17u + static_cast<unsigned>(n));
    std::uniform_real_distribution<double> val(-3.0, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int filtered = 0;
    for (int j = 0; j < n; ++j) {
      if (!filter.filters_row(j)) continue;
      ++filtered;
      for (int variant = 0; variant < 4; ++variant) {
        std::vector<int> mask(n, 1);
        const double p_wet = unit(rng);
        for (int i = 0; i < n; ++i) {
          if (variant == 0) mask[i] = 0;  // all dry
          if (variant == 2) mask[i] = unit(rng) < p_wet ? 1 : 0;
        }
        const int* m = variant == 3 ? nullptr : mask.data();  // 1: all wet
        std::vector<double> ref(n);
        for (double& v : ref) v = val(rng);
        std::vector<double> got(ref);
        reference_filter_row(fft, filter, ref, m, j);
        filter.filter_row(got.data(), m, j, ws);
        for (int i = 0; i < n; ++i)
          ASSERT_EQ(got[i], ref[i]) << "n=" << n << " j=" << j
                                    << " variant=" << variant << " i=" << i;
      }
    }
    EXPECT_GT(filtered, 0) << "n=" << n;
  }
}

TEST(PolarFilter, NanInAWetCellReachesEveryWetCell) {
  // A NaN in one wet cell of a filtered row must not be filtered away:
  // finite-state checks rely on it reaching every wet cell. Dry cells are
  // never written, so they keep their finite values.
  const int n = 128;  // the paper's ocean row length
  MercatorGrid grid(n, n, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  auto ws = filter.make_workspace();
  const int j = n - 1;
  ASSERT_TRUE(filter.filters_row(j));
  std::vector<int> mask(n, 1);
  for (int i = 40; i < 70; ++i) mask[i] = 0;
  for (const bool masked : {true, false}) {
    for (int pos = 0; pos < n; ++pos) {
      if (masked && mask[pos] == 0) continue;
      std::vector<double> row(n);
      for (int i = 0; i < n; ++i) row[i] = std::sin(0.37 * i) + 0.01 * pos;
      row[pos] = std::numeric_limits<double>::quiet_NaN();
      filter.filter_row(row.data(), masked ? mask.data() : nullptr, j, ws);
      for (int i = 0; i < n; ++i) {
        const bool wet = !masked || mask[i] != 0;
        EXPECT_EQ(std::isfinite(row[i]), !wet)
            << "masked=" << masked << " pos=" << pos << " i=" << i;
      }
    }
  }
}

TEST(PolarFilter, ApplyFiltersExactlyThePolarRows) {
  // Both apply overloads are filter_row over the rows poleward of the
  // critical latitude; every other row is left bitwise untouched.
  MercatorGrid grid(48, 48, 78.0);
  PolarFourierFilter filter(grid, 60.0);
  auto ws = filter.make_workspace();
  Field2D<int> mask = all_ocean(48, 48);
  Field2Dd f(48, 48);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i) {
      f(i, j) = std::sin(1.7 * i + 0.3 * j) + std::cos(5.1 * i);
      if ((i * 7 + j * 3) % 5 == 0) mask(i, j) = 0;
    }
  Field2Dd masked(f), unmasked(f);
  filter.apply(masked, mask);
  filter.apply(unmasked);
  for (int j = 0; j < 48; ++j) {
    std::vector<double> rm(&f(0, j), &f(0, j) + 48), ru(rm);
    if (filter.filters_row(j)) {
      filter.filter_row(rm.data(), &mask(0, j), j, ws);
      filter.filter_row(ru.data(), nullptr, j, ws);
    }
    for (int i = 0; i < 48; ++i) {
      ASSERT_EQ(masked(i, j), rm[i]) << i << "," << j;
      ASSERT_EQ(unmasked(i, j), ru[i]) << i << "," << j;
    }
  }
}

TEST(LaplacianMasked, BoxMatchesFullGridInsideAndSkipsOutside) {
  MercatorGrid grid(24, 20, 70.0);
  Field2D<int> mask = all_ocean(24, 20);
  Field2Dd f(24, 20);
  for (int j = 0; j < 20; ++j)
    for (int i = 0; i < 24; ++i) {
      f(i, j) = std::sin(0.9 * i) * std::cos(0.4 * j) + 0.01 * i * j;
      if ((i + 2 * j) % 7 == 0) mask(i, j) = 0;
    }
  Field2Dd full;
  laplacian_masked(grid, f, mask, full);
  // A box touching the periodic seam (i0 = 0) and an interior one.
  for (const auto& [j0, j1, i0, i1] :
       {std::array<int, 4>{3, 11, 0, 7}, std::array<int, 4>{5, 20, 9, 24}}) {
    Field2Dd box(24, 20, -99.0);
    laplacian_masked_box(grid, f, mask, box, j0, j1, i0, i1);
    for (int j = 0; j < 20; ++j)
      for (int i = 0; i < 24; ++i) {
        const bool inside = j >= j0 && j < j1 && i >= i0 && i < i1;
        ASSERT_EQ(box(i, j), inside ? full(i, j) : -99.0) << i << "," << j;
      }
  }
}

TEST(LaplacianMasked, ZeroForConstantField) {
  MercatorGrid grid(32, 32, 70.0);
  Field2Dd f(32, 32, 5.0);
  Field2D<int> mask = all_ocean(32, 32);
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_NEAR(lap.max_abs(), 0.0, 1e-18);
}

TEST(LaplacianMasked, SignOfCurvature) {
  MercatorGrid grid(32, 32, 70.0);
  Field2Dd f(32, 32, 0.0);
  Field2D<int> mask = all_ocean(32, 32);
  f(16, 16) = 1.0;  // local maximum
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_LT(lap(16, 16), 0.0);
  EXPECT_GT(lap(15, 16), 0.0);
  EXPECT_GT(lap(16, 15), 0.0);
}

TEST(LaplacianMasked, NoFluxThroughLand) {
  // Two meridional land walls split the periodic domain into two basins,
  // each holding a different constant: with the no-flux closure the
  // Laplacian must vanish everywhere — no diffusion through land.
  MercatorGrid grid(16, 16, 70.0);
  Field2D<int> mask = all_ocean(16, 16);
  for (int j = 0; j < 16; ++j) {
    mask(0, j) = 0;
    mask(8, j) = 0;
  }
  Field2Dd f(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = (i < 8) ? 1.0 : 2.0;
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  EXPECT_NEAR(lap.max_abs(), 0.0, 1e-18);
  for (int j = 0; j < 16; ++j) EXPECT_DOUBLE_EQ(lap(8, j), 0.0);
}

TEST(LaplacianMasked, PeriodicInLongitude) {
  MercatorGrid grid(16, 8, 70.0);
  Field2D<int> mask = all_ocean(16, 8);
  Field2Dd f(16, 8, 0.0);
  f(0, 4) = 1.0;
  Field2Dd lap;
  laplacian_masked(grid, f, mask, lap);
  // The cell west of i=0 wraps to i=15: it must feel the bump.
  EXPECT_GT(lap(15, 4), 0.0);
  EXPECT_GT(lap(1, 4), 0.0);
}

TEST(Biharmonic, DampsExtremaOfNoise) {
  MercatorGrid grid(32, 32, 70.0);
  Field2D<int> mask = all_ocean(32, 32);
  Field2Dd f(32, 32, 0.0);
  // Checkerboard — the grid-scale mode del^4 dissipation exists to kill.
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) f(i, j) = ((i + j) % 2 == 0) ? 1.0 : -1.0;
  Field2Dd tend;
  biharmonic_tendency(grid, f, mask, 1.0e15, tend);
  // Tendency must oppose the checkerboard everywhere.
  for (int j = 2; j < 30; ++j)
    for (int i = 0; i < 32; ++i)
      EXPECT_LT(tend(i, j) * f(i, j), 0.0) << i << "," << j;
}

TEST(Biharmonic, ZeroCoefficientGivesZeroTendency) {
  MercatorGrid grid(16, 16, 70.0);
  Field2D<int> mask = all_ocean(16, 16);
  Field2Dd f(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = std::sin(0.5 * i * j);
  Field2Dd tend;
  biharmonic_tendency(grid, f, mask, 0.0, tend);
  EXPECT_DOUBLE_EQ(tend.max_abs(), 0.0);
}

}  // namespace
}  // namespace foam::numerics
