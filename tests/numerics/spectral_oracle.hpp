#pragma once

/// \file spectral_oracle.hpp
/// Test-only oracle for the spectral transform: the straight-line scalar
/// algorithm (one recursive Fft per latitude row, full (m, k, j) Legendre
/// sums over every latitude), written against the public APIs of
/// GaussianGrid, LegendreTable and Fft. The engine in numerics/spectral.*
/// folds mirror latitudes and batches fields; this oracle does neither, so
/// agreement between the two is an independent check of both.

#include "base/field.hpp"
#include "numerics/fft.hpp"
#include "numerics/grid.hpp"
#include "numerics/legendre.hpp"
#include "numerics/spectral.hpp"

namespace foam::numerics::oracle {

/// Grid -> spectral, f_n^m = (1/2) sum_j w_j f_m(mu_j) Pbar_n^m(mu_j).
SpectralField analyze(const GaussianGrid& grid, const LegendreTable& table,
                      const Fft& fft, const Field2Dd& f);

/// Spectral -> grid.
Field2Dd synthesize(const GaussianGrid& grid, const LegendreTable& table,
                    const Fft& fft, const SpectralField& s);

/// Divergence / curl of the flux pair (A, B), by integration by parts.
SpectralField analyze_div(const GaussianGrid& grid, const LegendreTable& table,
                          const Fft& fft, const Field2Dd& A,
                          const Field2Dd& B);
SpectralField analyze_curl(const GaussianGrid& grid,
                           const LegendreTable& table, const Fft& fft,
                           const Field2Dd& A, const Field2Dd& B);

/// Winds (U, V) = (u, v) cos(lat) from streamfunction and velocity
/// potential; U and V are returned on the full grid.
void uv_from_psi_chi(const GaussianGrid& grid, const LegendreTable& table,
                     const Fft& fft, const SpectralField& psi,
                     const SpectralField& chi, Field2Dd& U, Field2Dd& V);

}  // namespace foam::numerics::oracle
