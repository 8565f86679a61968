#pragma once

/// \file tridiag.hpp
/// Thomas algorithm for tridiagonal systems.
///
/// Used by the implicit vertical diffusion solves in both the atmosphere
/// (PBL, vertical mixing) and ocean (Pacanowski-Philander mixing): columns
/// are independent, so each is a small tridiagonal solve. The row form
/// solves a whole row of columns at once, level by level, so every sweep
/// runs over contiguous memory; the single-column form is that kernel with
/// one column.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "base/error.hpp"

namespace foam::numerics {

/// Row form: solve len.size() independent systems whose columns are
/// interleaved along i — row k of column i is element k * stride + i of
/// a, b, c, d and cp — with len[i] rows in column i (0 skips the column).
/// Per column, a is the sub-diagonal (row 0 unused), b the diagonal, c the
/// super-diagonal (last row unused) and d the right-hand side, overwritten
/// by the solution; cp is caller-owned scratch laid out like d. Every
/// column runs exactly the operations of a lone Thomas solve, so the result
/// is bitwise independent of which columns share the row. The systems must
/// be diagonally dominant (as all implicit-diffusion matrices are); this is
/// asserted in debug builds.
inline void solve_tridiag(std::span<const int> len, std::size_t stride,
                          const double* a, const double* b, const double* c,
                          double* d, double* cp) {
  const std::size_t ncol = len.size();
  FOAM_REQUIRE(ncol <= stride, "tridiag row of " << ncol
                                                 << " columns, stride "
                                                 << stride);
  int nmax = 0;
  for (const int n : len) nmax = std::max(nmax, n);
  // Forward sweep, one level at a time.
  for (std::size_t i = 0; i < ncol; ++i) {
    if (len[i] <= 0) continue;
    FOAM_ASSERT(b[i] != 0.0, "singular tridiagonal system");
    cp[i] = c[i] / b[i];
    d[i] = d[i] / b[i];
  }
  for (int k = 1; k < nmax; ++k) {
    const std::size_t o = static_cast<std::size_t>(k) * stride;
    for (std::size_t i = 0; i < ncol; ++i) {
      if (k >= len[i]) continue;
      const double denom = b[o + i] - a[o + i] * cp[o - stride + i];
      FOAM_ASSERT(denom != 0.0, "singular tridiagonal system at row " << k);
      cp[o + i] = c[o + i] / denom;
      d[o + i] = (d[o + i] - a[o + i] * d[o - stride + i]) / denom;
    }
  }
  // Back substitution.
  for (int k = nmax - 2; k >= 0; --k) {
    const std::size_t o = static_cast<std::size_t>(k) * stride;
    for (std::size_t i = 0; i < ncol; ++i)
      if (k < len[i] - 1) d[o + i] -= cp[o + i] * d[o + stride + i];
  }
}

/// Solve the n x n system with sub-diagonal a (a[0] unused), diagonal b,
/// super-diagonal c (c[n-1] unused) and right-hand side d; the solution is
/// written back into d. The row form with a single column.
inline void solve_tridiag(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& c,
                          std::vector<double>& d) {
  const std::size_t n = b.size();
  FOAM_REQUIRE(n > 0 && a.size() == n && c.size() == n && d.size() == n,
               "tridiag sizes");
  std::vector<double> cp(n);
  const int len = static_cast<int>(n);
  solve_tridiag(std::span<const int>(&len, 1), 1, a.data(), b.data(),
                c.data(), d.data(), cp.data());
}

}  // namespace foam::numerics
