#pragma once

/// \file fft_plan.hpp
/// Plan-based iterative mixed-radix FFT — the transform engine's kernel.
///
/// The reference Fft (fft.hpp) recurses with a fresh std::vector at every
/// level and runs real transforms through the full n-point complex path.
/// FftPlan is the production replacement: the constructor factorizes N,
/// builds the digit-reversal permutation and per-stage twiddle tables once,
/// and every transform afterwards runs iteratively (bottom-up over the
/// factor stages, ping-ponging between the data array and a caller-provided
/// workspace) with **no allocation**. Real-to-complex / complex-to-real
/// transforms of even N run an N/2-point complex transform plus an O(N)
/// split post-pass — half the butterflies of the reference path.
///
/// The complex transform performs the same butterfly sums in the same
/// order as the reference recursion, so forward()/inverse() agree with
/// Fft::forward()/inverse() bitwise. The real path is pinned bitwise as
/// well: forward_real()/inverse_real() equal the reference Fft at N/2 plus
/// the split/un-split passes written in std::complex arithmetic (the
/// oracle in tests/numerics/test_fft_plan.cpp). Against the reference's
/// full-length real path they agree to rounding (~1e-15 relative).
///
/// Every complex product is written out in real arithmetic,
/// (ar*br - ai*bi, ar*bi + ai*br) — the operations std::complex performs
/// on finite values, so finite results are unchanged. Only non-finite
/// values differ: std::complex (C99 Annex G) recovers an infinite product
/// whose parts came out NaN, this kernel does not. A NaN anywhere in the
/// input still reaches every output.
///
/// Thread safety: a plan is immutable after construction and may be shared
/// freely; the workspace belongs to the caller (one per thread).
///
/// Conventions match Fft: forward is the unnormalized DFT
/// X_k = sum_j x_j exp(-2 pi i j k / N); inverse includes the 1/N factor.

#include <complex>
#include <memory>
#include <vector>

namespace foam::numerics {

class FftPlan {
 public:
  explicit FftPlan(int n);

  int size() const { return n_; }

  /// Complex workspace elements any transform of this plan may need.
  /// (2n covers the odd-length real fallback; the hot paths use <= n.)
  std::size_t workspace_size() const { return 2 * static_cast<std::size_t>(n_); }

  /// Unnormalized in-place forward DFT. \p work: >= workspace_size() elems.
  void forward(std::complex<double>* data, std::complex<double>* work) const;
  /// Normalized (1/N) in-place inverse DFT.
  void inverse(std::complex<double>* data, std::complex<double>* work) const;

  /// Real-to-complex forward: writes the n/2+1 non-redundant coefficients
  /// of the forward DFT of x[0..n) into spec.
  void forward_real(const double* x, std::complex<double>* spec,
                    std::complex<double>* work) const;

  /// Complex-to-real inverse of forward_real: reads n/2+1 coefficients
  /// (conjugate symmetry implied), reconstructs x[0..n). Includes the 1/N
  /// normalization so inverse_real(forward_real(x)) == x.
  void inverse_real(const std::complex<double>* spec, double* x,
                    std::complex<double>* work) const;

 private:
  FftPlan(int n, bool build_real_path);
  void build();
  void run(std::complex<double>* data, std::complex<double>* work,
           int sign) const;

  /// One bottom-up combine stage: radix \p p merging sub-blocks of size
  /// \p m into blocks of size \p count = p*m; twiddles at \p tw_offset
  /// (p*count forward values, layout tw[r*count + k]).
  struct Stage {
    int p;
    int m;
    int count;
    std::size_t tw_offset;
  };

  int n_;
  std::vector<int> factors_;
  std::vector<int> perm_;  // digit-reversal gather: leaf i reads perm_[i]
  std::vector<Stage> stages_;
  std::vector<std::complex<double>> stage_tw_;       // forward-sign twiddles
  std::vector<std::complex<double>> stage_tw_conj_;  // their conjugates
  // Split-pass twiddles exp(-2 pi i k / n), k = 0..n/2 (even n only).
  std::vector<std::complex<double>> real_tw_;
  std::unique_ptr<FftPlan> half_;  // n/2 complex plan for the real path
};

}  // namespace foam::numerics
