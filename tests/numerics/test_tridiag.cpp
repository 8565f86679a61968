#include "numerics/tridiag.hpp"

#include <gtest/gtest.h>

#include <random>

#include "base/error.hpp"

namespace foam::numerics {
namespace {

TEST(Tridiag, SolvesIdentity) {
  std::vector<double> a = {0, 0, 0};
  std::vector<double> b = {1, 1, 1};
  std::vector<double> c = {0, 0, 0};
  std::vector<double> d = {4, 5, 6};
  solve_tridiag(a, b, c, d);
  EXPECT_DOUBLE_EQ(d[0], 4);
  EXPECT_DOUBLE_EQ(d[1], 5);
  EXPECT_DOUBLE_EQ(d[2], 6);
}

TEST(Tridiag, SolvesKnownSystem) {
  // [2 1 0][x0]   [4]
  // [1 2 1][x1] = [8]   -> x = (1, 2, 3)
  // [0 1 2][x2]   [8]
  std::vector<double> a = {0, 1, 1};
  std::vector<double> b = {2, 2, 2};
  std::vector<double> c = {1, 1, 0};
  std::vector<double> d = {4, 8, 8};
  solve_tridiag(a, b, c, d);
  EXPECT_NEAR(d[0], 1.0, 1e-14);
  EXPECT_NEAR(d[1], 2.0, 1e-14);
  EXPECT_NEAR(d[2], 3.0, 1e-14);
}

TEST(Tridiag, RandomDiagonallyDominantResidual) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 30);
    std::vector<double> a(n), b(n), c(n), d(n), x;
    for (int i = 0; i < n; ++i) {
      a[i] = (i > 0) ? dist(rng) : 0.0;
      c[i] = (i < n - 1) ? dist(rng) : 0.0;
      b[i] = 3.0 + std::abs(dist(rng));  // dominant
      d[i] = dist(rng);
    }
    x = d;
    solve_tridiag(a, b, c, x);
    for (int i = 0; i < n; ++i) {
      double r = b[i] * x[i] - d[i];
      if (i > 0) r += a[i] * x[i - 1];
      if (i < n - 1) r += c[i] * x[i + 1];
      EXPECT_NEAR(r, 0.0, 1e-12) << "trial " << trial << " row " << i;
    }
  }
}

TEST(Tridiag, ImplicitDiffusionIsConservativeAndStable) {
  // Backward-Euler diffusion matrix: (I - r*L) x_new = x_old with L the
  // 1-D no-flux Laplacian. The solve must conserve the sum and contract
  // the max — the property the ocean/atm vertical mixing relies on.
  const int n = 16;
  const double r = 5.0;  // strongly implicit
  std::vector<double> a(n), b(n), c(n), d(n);
  for (int i = 0; i < n; ++i) {
    const double up = (i > 0) ? r : 0.0;
    const double dn = (i < n - 1) ? r : 0.0;
    a[i] = -up;
    c[i] = -dn;
    b[i] = 1.0 + up + dn;
    d[i] = (i == 7) ? 10.0 : 0.0;
  }
  double sum_before = 0.0;
  for (const double v : d) sum_before += v;
  solve_tridiag(a, b, c, d);
  double sum_after = 0.0, maxv = 0.0;
  for (const double v : d) {
    sum_after += v;
    maxv = std::max(maxv, std::abs(v));
    EXPECT_GE(v, -1e-12);  // no undershoot
  }
  EXPECT_NEAR(sum_after, sum_before, 1e-10);
  EXPECT_LT(maxv, 10.0);
}

TEST(Tridiag, RowSolveMatchesColumnSolvesBitwise) {
  // A row of columns interleaved along i, with ragged lengths (0 skips a
  // column), must give every column exactly the lone Thomas solve's bits.
  // Every element starts as a diagonally dominant random value, so a solver
  // that read or wrote past a column's length (or across columns) would
  // change the answer, not just recompute an identity row.
  const int nz = 16;
  const std::vector<int> len = {0, 1, 2, 7, nz, 7, 2, nz, 1, 0};
  const int ncol = static_cast<int>(len.size());
  const std::size_t stride = static_cast<std::size_t>(ncol) + 3;  // padded
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t tile = static_cast<std::size_t>(nz) * stride;
    std::vector<double> a(tile), b(tile), c(tile), d(tile), cp(tile, 0.0);
    for (std::size_t o = 0; o < tile; ++o) {
      a[o] = dist(rng);
      b[o] = 3.0 + std::abs(dist(rng));
      c[o] = dist(rng);
      d[o] = dist(rng);
    }
    std::vector<std::vector<double>> want(ncol);
    for (int i = 0; i < ncol; ++i) {
      const int n = len[static_cast<std::size_t>(i)];
      std::vector<double> ca(n), cb(n), cc(n), cd(n);
      for (int k = 0; k < n; ++k) {
        const std::size_t o = static_cast<std::size_t>(k) * stride + i;
        ca[k] = a[o];
        cb[k] = b[o];
        cc[k] = c[o];
        cd[k] = d[o];
      }
      if (n > 0) solve_tridiag(ca, cb, cc, cd);
      want[static_cast<std::size_t>(i)] = cd;
    }
    const std::vector<double> d_in = d;
    solve_tridiag(len, stride, a.data(), b.data(), c.data(), d.data(),
                  cp.data());
    for (int i = 0; i < ncol; ++i) {
      const int n = len[static_cast<std::size_t>(i)];
      for (int k = 0; k < nz; ++k) {
        const std::size_t o = static_cast<std::size_t>(k) * stride + i;
        // Rows past a column's length are left untouched.
        const double expect =
            k < n ? want[static_cast<std::size_t>(i)][k] : d_in[o];
        EXPECT_EQ(d[o], expect)
            << "trial " << trial << " column " << i << " row " << k;
      }
    }
    for (std::size_t o = 0; o < tile; ++o) {
      if (o % stride >= static_cast<std::size_t>(ncol)) {
        EXPECT_EQ(d[o], d_in[o]) << "padding element " << o << " written";
      }
    }
  }
}

TEST(Tridiag, SizeMismatchThrows) {
  std::vector<double> a = {0, 1};
  std::vector<double> b = {1, 1, 1};
  std::vector<double> c = {0, 0, 0};
  std::vector<double> d = {1, 1, 1};
  EXPECT_THROW(solve_tridiag(a, b, c, d), Error);
}

}  // namespace
}  // namespace foam::numerics
