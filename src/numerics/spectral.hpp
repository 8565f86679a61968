#pragma once

/// \file spectral.hpp
/// Spherical-harmonic spectral transform with rhomboidal truncation.
///
/// The FOAM atmosphere is a spectral-transform model derived from CCM2 at
/// R15: zonal wavenumbers m = 0..15 each carry 16 total wavenumbers
/// n = m..m+15 (the rhomboidal set). A scalar grid field on the Gaussian
/// grid maps to coefficients
///   f_n^m = (1/2) sum_j w_j f_m(mu_j) Pbar_n^m(mu_j),
/// where f_m(mu_j) are the Fourier coefficients of latitude row j and w_j
/// the Gaussian weights; synthesis is the adjoint sum. Vector analysis
/// (divergence / curl of flux pairs) uses integration by parts so no grid
/// derivative is ever taken (the standard transform-method trick that also
/// shapes the parallel data flow).
///
/// One implementation serves every entry point: the plan-based engine —
/// allocation-free iterative real FFT (FftPlan), equatorial-symmetry
/// folding of the Legendre sums (Pbar_n^m(-mu) = (-1)^{n+m} Pbar_n^m(mu), so
/// north/south latitude pairs fold into even/odd-parity contributions and
/// the Legendre flops halve), and contiguous panel kernels over the
/// LegendreTable rows. The *_batch entry points transform many fields per
/// pass, amortizing FFT plans and Legendre panel loads (and, in
/// ParSpectralTransform, fusing the per-field allreduces into one
/// collective); a single-field call is a batch of one through the same
/// kernel. Every entry point rejects a field whose shape does not match the
/// grid or the truncation with foam::Error before touching it.
///
/// The straight-line scalar transform (per-row recursive Fft, full
/// (m, k, j) Legendre sums) is a test-side oracle
/// (tests/numerics/spectral_oracle.*); the engine agrees with it to
/// <= 1e-12 relative (the folding reassociates the latitude sum).
///
/// Engine entry points are const and thread-safe as long as each thread
/// uses its own SpectralWorkspace (the overloads without a workspace
/// allocate a fresh one per call).
///
/// ParSpectralTransform layers the same operations over a latitude-band
/// decomposition on foam::par — FFTs are local to a rank's latitudes and the
/// Legendre stage completes partial sums with an allreduce, the
/// "distributed Legendre transform" variant studied for PCCM2.

#include <array>
#include <complex>
#include <span>
#include <vector>

#include "base/field.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"
#include "numerics/legendre.hpp"
#include "par/comm.hpp"

namespace foam::numerics {

/// Coefficients of a rhomboidally truncated field: index (m, k) with
/// n = m + k, m in [0, mmax], k in [0, kmax).
class SpectralField {
 public:
  SpectralField() = default;
  SpectralField(int mmax, int kmax)
      : mmax_(mmax), kmax_(kmax),
        c_(static_cast<std::size_t>(mmax + 1) * kmax) {}

  int mmax() const { return mmax_; }
  int kmax() const { return kmax_; }
  std::size_t size() const { return c_.size(); }

  std::complex<double>& at(int m, int k) { return c_[index(m, k)]; }
  const std::complex<double>& at(int m, int k) const {
    return c_[index(m, k)];
  }

  std::complex<double>* data() { return c_.data(); }
  const std::complex<double>* data() const { return c_.data(); }

  void fill(std::complex<double> v) { std::fill(c_.begin(), c_.end(), v); }

  SpectralField& operator+=(const SpectralField& o);
  SpectralField& operator-=(const SpectralField& o);
  SpectralField& operator*=(double s);
  /// this += a * o
  void axpy(double a, const SpectralField& o);

  /// Power in the field: sum over coefficients of (2 - delta_m0)|c|^2,
  /// equal to the area-weighted mean square of the grid field.
  double power() const;

  bool same_shape(const SpectralField& o) const {
    return mmax_ == o.mmax_ && kmax_ == o.kmax_;
  }

 private:
  std::size_t index(int m, int k) const {
    FOAM_ASSERT(m >= 0 && m <= mmax_ && k >= 0 && k < kmax_,
                "(" << m << "," << k << ")");
    return static_cast<std::size_t>(m) * kmax_ + k;
  }
  int mmax_ = 0;
  int kmax_ = 0;
  std::vector<std::complex<double>> c_;
};

/// Reusable scratch for the plan-based engine: FFT workspace, Fourier-row
/// and parity-fold buffers. All storage grows on first use and is reused
/// afterwards, making repeated engine transforms allocation-free. One
/// workspace per thread — workspaces must not be shared concurrently.
class SpectralWorkspace {
 public:
  SpectralWorkspace() = default;

 private:
  friend class SpectralTransform;
  friend class ParSpectralTransform;
  std::vector<std::complex<double>> fft;    // FftPlan ping-pong workspace
  std::vector<double> row;                  // one real latitude row
  std::vector<std::complex<double>> spec;   // n/2+1 rFFT coefficients
  std::vector<std::complex<double>> fm_a, fm_b, fm_c, fm_d;  // Fourier modes
  std::vector<std::complex<double>> fold_pe, fold_po;  // P-term folds [f][m]
  std::vector<std::complex<double>> fold_he, fold_ho;  // H-term folds [f][m]
  std::vector<double> reduce;               // fused-allreduce packing
};

/// Serial spectral transform bound to one Gaussian grid and truncation.
class SpectralTransform {
 public:
  /// Rhomboidal truncation R(mmax): kmax = mmax + 1 degrees per m.
  SpectralTransform(const GaussianGrid& grid, int mmax);

  int mmax() const { return mmax_; }
  int kmax() const { return kmax_; }
  const GaussianGrid& grid() const { return grid_; }

  /// Scalar analysis: grid -> spectral.
  SpectralField analyze(const Field2Dd& f) const;
  SpectralField analyze(const Field2Dd& f, SpectralWorkspace& ws) const;

  /// Scalar synthesis: spectral -> grid.
  Field2Dd synthesize(const SpectralField& s) const;
  Field2Dd synthesize(const SpectralField& s, SpectralWorkspace& ws) const;

  /// Vector analysis of the flux pair (A, B) = (U q, V q) with U = u cos(lat):
  ///   analyze_div  -> spectral of  (1/(a(1-mu^2))) dA/dlon + (1/a) dB/dmu
  ///   analyze_curl -> spectral of  (1/(a(1-mu^2))) dB/dlon - (1/a) dA/dmu
  /// computed by integration by parts (exact under Gaussian quadrature).
  SpectralField analyze_div(const Field2Dd& A, const Field2Dd& B) const;
  SpectralField analyze_curl(const Field2Dd& A, const Field2Dd& B) const;

  /// Winds from streamfunction and velocity potential:
  ///   U = (1/a)(dchi/dlon - (1-mu^2) dpsi/dmu)
  ///   V = (1/a)(dpsi/dlon + (1-mu^2) dchi/dmu)
  /// where (U, V) = (u, v) cos(lat).
  void uv_from_psi_chi(const SpectralField& psi, const SpectralField& chi,
                       Field2Dd& U, Field2Dd& V) const;

  /// --- Batched multi-field entry points -------------------------------
  /// Transform every field of a step in one pass: the Legendre panels are
  /// loaded once per latitude pair and reused across the batch.

  std::vector<SpectralField> analyze_batch(
      const std::vector<const Field2Dd*>& fs, SpectralWorkspace& ws) const;

  void synthesize_batch(const std::vector<const SpectralField*>& ss,
                        const std::vector<Field2Dd*>& outs,
                        SpectralWorkspace& ws) const;

  std::vector<SpectralField> analyze_div_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const;

  std::vector<SpectralField> analyze_curl_batch(
      const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const;

  /// Batched winds; U/V outputs are resized to the grid shape if needed.
  void uv_from_psi_chi_batch(const std::vector<const SpectralField*>& psis,
                             const std::vector<const SpectralField*>& chis,
                             const std::vector<Field2Dd*>& Us,
                             const std::vector<Field2Dd*>& Vs,
                             SpectralWorkspace& ws) const;

  /// Spectral Laplacian: c_n^m *= -n(n+1)/a^2.
  void laplacian(SpectralField& s) const;
  /// Inverse Laplacian; the n = 0 coefficient (undetermined) is zeroed.
  void inverse_laplacian(SpectralField& s) const;
  /// d/dlon: c_n^m *= i m.
  SpectralField d_dlon(const SpectralField& s) const;

  /// Eigenvalue of the Laplacian for total wavenumber n: -n(n+1)/a^2.
  double laplacian_eigenvalue(int n) const;

 private:
  friend class ParSpectralTransform;

  /// Latitude rows grouped for equatorial-symmetry folding: mirror pairs
  /// (js, jn) with mu[jn] == -mu[js], plus unpaired rows (the equator row
  /// of an odd-nlat grid, or rows whose mirror another rank owns).
  struct LatPairing {
    std::vector<std::array<int, 2>> pairs;
    std::vector<int> singles;
  };
  static LatPairing make_pairing(const GaussianGrid& grid,
                                 std::span<const int> lats);

  /// Fourier analysis of one latitude row (truncated to mmax+1 modes, with
  /// the 1/nlon normalization folded in) and its inverse, which places
  /// mmax+1 modes into grid row j. Allocation-free given a warm workspace.
  void fourier_row_plan(const Field2Dd& f, int j, std::complex<double>* fm,
                        SpectralWorkspace& ws) const;
  void inv_fourier_row_plan(const std::complex<double>* fm, Field2Dd& f,
                            int j, SpectralWorkspace& ws) const;

  /// Engine kernels over an arbitrary row grouping (serial uses the full
  /// grid's pairing; the parallel variants pass their owned rows). Each
  /// first checks every field's shape and the batch sizes, once per call.
  /// Analysis kernels return zero-initialized coefficients accumulated
  /// over the pairing's rows; synthesis kernels write only those rows.
  std::vector<SpectralField> engine_analyze(
      const LatPairing& lp, const std::vector<const Field2Dd*>& fs,
      SpectralWorkspace& ws) const;
  void engine_synthesize(const LatPairing& lp,
                         const std::vector<const SpectralField*>& ss,
                         const std::vector<Field2Dd*>& outs,
                         SpectralWorkspace& ws) const;
  std::vector<SpectralField> engine_analyze_vec(
      const LatPairing& lp, bool curl, const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const;
  void engine_uv(const LatPairing& lp,
                 const std::vector<const SpectralField*>& psis,
                 const std::vector<const SpectralField*>& chis,
                 const std::vector<Field2Dd*>& Us,
                 const std::vector<Field2Dd*>& Vs,
                 SpectralWorkspace& ws) const;

  const GaussianGrid& grid_;
  int mmax_;
  int kmax_;
  FftPlan plan_;
  LegendreTable table_;
  LatPairing pairing_;  // full-grid mirror pairs
};

/// Latitude-distributed spectral transform. Each rank owns a set of latitude
/// rows (as produced by par::paired_latitudes or any partition); analysis
/// ends with an allreduce so every rank holds the full spectral state, and
/// synthesis fills only the rank's own rows of the output field (other rows
/// are left untouched). Every grid field, input or output, is full-grid
/// (nlon x nlat) shaped.
///
/// The instance carries its own SpectralWorkspace, so it is cheap to call
/// repeatedly but must not be shared across ranks/threads (each rank
/// constructs its own, which is the existing usage pattern). The underlying
/// serial transform may be shared freely.
class ParSpectralTransform {
 public:
  ParSpectralTransform(const SpectralTransform& serial,
                       std::vector<int> my_lats);

  const std::vector<int>& my_lats() const { return my_lats_; }

  SpectralField analyze(par::Comm& comm, const Field2Dd& f) const;
  void synthesize(const SpectralField& s, Field2Dd& f) const;
  SpectralField analyze_div(par::Comm& comm, const Field2Dd& A,
                            const Field2Dd& B) const;
  SpectralField analyze_curl(par::Comm& comm, const Field2Dd& A,
                             const Field2Dd& B) const;
  void uv_from_psi_chi(const SpectralField& psi, const SpectralField& chi,
                       Field2Dd& U, Field2Dd& V) const;

  /// Batched variants: one pass over the rank's latitudes for the whole
  /// batch, and — for the analysis entry points — the per-field spectral
  /// allreduces fused into a single collective over one packed buffer.
  std::vector<SpectralField> analyze_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& fs) const;
  void synthesize_batch(const std::vector<const SpectralField*>& ss,
                        const std::vector<Field2Dd*>& outs) const;
  std::vector<SpectralField> analyze_div_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const;
  std::vector<SpectralField> analyze_curl_batch(
      par::Comm& comm, const std::vector<const Field2Dd*>& As,
      const std::vector<const Field2Dd*>& Bs) const;
  void uv_from_psi_chi_batch(const std::vector<const SpectralField*>& psis,
                             const std::vector<const SpectralField*>& chis,
                             const std::vector<Field2Dd*>& Us,
                             const std::vector<Field2Dd*>& Vs) const;

 private:
  /// One collective for the whole batch: a single field reduces in place
  /// over its coefficient storage; several are packed into the workspace
  /// buffer, allreduced in place and unpacked.
  void allreduce_fused(par::Comm& comm,
                       std::vector<SpectralField>& fields) const;
  const SpectralTransform& serial_;
  std::vector<int> my_lats_;
  SpectralTransform::LatPairing pairing_;  // folding groups within my_lats
  mutable SpectralWorkspace ws_;
};

}  // namespace foam::numerics
