#include "numerics/fft_plan.hpp"

#include <cmath>
#include <cstring>

#include "base/constants.hpp"
#include "base/error.hpp"

namespace foam::numerics {

using cplx = std::complex<double>;

namespace {

/// a * b spelled out in real arithmetic. On finite values these are exactly
/// the operations `std::complex` multiplication performs, so results are
/// bitwise the same; what goes is the C99 Annex G NaN-recovery check and
/// its out-of-line __muldc3 call, which only ever changes a result whose
/// parts are both NaN.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

FftPlan::FftPlan(int n) : FftPlan(n, /*build_real_path=*/true) {}

FftPlan::FftPlan(int n, bool build_real_path) : n_(n) {
  FOAM_REQUIRE(n > 0, "FFT length " << n);
  build();
  if (build_real_path && n_ % 2 == 0 && n_ >= 2) {
    half_ = std::unique_ptr<FftPlan>(new FftPlan(n_ / 2, false));
    const int n2 = n_ / 2;
    real_tw_.resize(n2 + 1);
    for (int k = 0; k <= n2; ++k) {
      const double ang = -constants::two_pi * k / n_;
      real_tw_[k] = cplx(std::cos(ang), std::sin(ang));
    }
  }
}

void FftPlan::build() {
  int rem = n_;
  for (int p : {2, 3, 5, 7}) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }
  // Remaining primes take the O(p^2) direct combine, same as the reference.
  for (int p = 11; rem > 1; p += 2) {
    while (rem % p == 0) {
      factors_.push_back(p);
      rem /= p;
    }
  }

  // Digit-reversal permutation: replicate the reference recursion's leaf
  // order (factor fidx splits into p subsequences of stride*p, child r's
  // output occupying the r-th chunk).
  perm_.resize(n_);
  struct Frame {
    int src_off, stride, count, out_off;
    std::size_t fidx;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 1, n_, 0, 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.count == 1) {
      perm_[f.out_off] = f.src_off;
      continue;
    }
    const int p = factors_[f.fidx];
    const int m = f.count / p;
    for (int r = 0; r < p; ++r)
      stack.push_back({f.src_off + r * f.stride, f.stride * p, m,
                       f.out_off + r * m, f.fidx + 1});
  }

  // Bottom-up combine stages (deepest factor first) with per-stage twiddle
  // tables: tw[r*count + k] = exp(-2 pi i r k (n/count) / n).
  int m = 1;
  for (std::size_t i = factors_.size(); i-- > 0;) {
    const int p = factors_[i];
    const int count = p * m;
    Stage st{p, m, count, stage_tw_.size()};
    const int big_stride = n_ / count;
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < count; ++k) {
        const long long tidx =
            (static_cast<long long>(r) * k * big_stride) % n_;
        const double ang = -constants::two_pi * static_cast<double>(tidx) / n_;
        stage_tw_.push_back(cplx(std::cos(ang), std::sin(ang)));
      }
    }
    stages_.push_back(st);
    m = count;
  }
  // Inverse-direction copy, so run() picks a table instead of conjugating
  // in every butterfly.
  stage_tw_conj_.reserve(stage_tw_.size());
  for (const cplx& w : stage_tw_) stage_tw_conj_.push_back(std::conj(w));
}

void FftPlan::run(cplx* data, cplx* work, int sign) const {
  if (n_ == 1) return;
  // Gather into the workspace in leaf order, then combine stage by stage,
  // ping-ponging between work and data. Stage count == factor count, so the
  // result lands in data when the factor count is odd; one memcpy otherwise.
  for (int i = 0; i < n_; ++i) work[i] = data[perm_[i]];
  const cplx* table = sign > 0 ? stage_tw_conj_.data() : stage_tw_.data();
  cplx* src = work;
  cplx* dst = data;
  for (const Stage& st : stages_) {
    const cplx* tw = table + st.tw_offset;
    const int p = st.p, m = st.m, count = st.count;
    if (p == 2) {
      // Radix-2 butterfly. Both outputs use their own tabulated twiddle
      // (tw(1, q+m) == -tw(1, q) only mathematically: the tables hold
      // cos/sin evaluated at each index, and bitwise identity with the
      // reference recursion requires multiplying by the same values).
      const cplx* tw1 = tw + count;
      for (int base = 0; base < n_; base += count) {
        const cplx* s0 = src + base;
        cplx* d0 = dst + base;
        for (int q = 0; q < m; ++q) {
          const cplx a = s0[q];
          const cplx b = s0[m + q];
          d0[q] = a + mul(tw1[q], b);
          d0[m + q] = a + mul(tw1[m + q], b);
        }
      }
    } else {
      for (int base = 0; base < n_; base += count) {
        const cplx* s0 = src + base;
        cplx* d0 = dst + base;
        for (int q = 0; q < m; ++q) {
          for (int s = 0; s < p; ++s) {
            const int k = q + s * m;
            // Accumulate from +0 as the reference does (seeding with the
            // first product would keep a -0 that 0.0 + -0.0 turns into +0).
            cplx acc(0.0, 0.0);
            for (int r = 0; r < p; ++r)
              acc += mul(tw[r * count + k], s0[r * m + q]);
            d0[k] = acc;
          }
        }
      }
    }
    std::swap(src, dst);
  }
  // Result is in src after the final swap.
  if (src != data) std::memcpy(data, src, sizeof(cplx) * n_);
}

void FftPlan::forward(cplx* data, cplx* work) const { run(data, work, -1); }

void FftPlan::inverse(cplx* data, cplx* work) const {
  run(data, work, +1);
  const double inv = 1.0 / n_;
  for (int i = 0; i < n_; ++i) data[i] *= inv;
}

void FftPlan::forward_real(const double* x, cplx* spec, cplx* work) const {
  if (!half_) {
    // Odd (or length-1) fallback: full complex transform in the workspace.
    cplx* data = work;
    cplx* scratch = work + n_;
    for (int j = 0; j < n_; ++j) data[j] = cplx(x[j], 0.0);
    run(data, scratch, -1);
    for (int k = 0; k <= n_ / 2; ++k) spec[k] = data[k];
    return;
  }
  const int n2 = n_ / 2;
  // Pack pairs into a half-length complex sequence and transform.
  cplx* z = work;
  cplx* scratch = work + n2;
  for (int j = 0; j < n2; ++j) z[j] = cplx(x[2 * j], x[2 * j + 1]);
  half_->run(z, scratch, -1);
  // Split: X_k = (Z_k + conj(Z_{n2-k}))/2 - (i/2) w_k (Z_k - conj(Z_{n2-k}))
  // with w_k = exp(-2 pi i k / n) and Z_{n2} == Z_0.
  for (int k = 0; k <= n2; ++k) {
    const cplx zk = (k == n2) ? z[0] : z[k];
    const cplx zc = std::conj(k == 0 ? z[0] : z[n2 - k]);
    const cplx even = 0.5 * (zk + zc);
    const cplx odd = mul(cplx(0.0, -0.5), zk - zc);
    spec[k] = even + mul(real_tw_[k], odd);
  }
}

void FftPlan::inverse_real(const cplx* spec, double* x, cplx* work) const {
  if (!half_) {
    cplx* data = work;
    cplx* scratch = work + n_;
    for (int k = 0; k <= n_ / 2; ++k) data[k] = spec[k];
    for (int k = n_ / 2 + 1; k < n_; ++k) data[k] = std::conj(spec[n_ - k]);
    run(data, scratch, +1);
    const double inv = 1.0 / n_;
    for (int j = 0; j < n_; ++j) x[j] = data[j].real() * inv;
    return;
  }
  const int n2 = n_ / 2;
  cplx* z = work;
  cplx* scratch = work + n2;
  // Un-split: Fe_k = (X_k + conj(X_{n2-k}))/2,
  //           Fo_k = conj(w_k) (X_k - conj(X_{n2-k}))/2,
  //           Z_k  = Fe_k + i Fo_k.
  for (int k = 0; k < n2; ++k) {
    const cplx xk = spec[k];
    const cplx xc = std::conj(spec[n2 - k]);
    const cplx fe = 0.5 * (xk + xc);
    const cplx fo = mul(std::conj(real_tw_[k]), 0.5 * (xk - xc));
    z[k] = fe + mul(cplx(0.0, 1.0), fo);
  }
  half_->run(z, scratch, +1);
  const double inv = 1.0 / n2;
  for (int j = 0; j < n2; ++j) {
    x[2 * j] = z[j].real() * inv;
    x[2 * j + 1] = z[j].imag() * inv;
  }
}

}  // namespace foam::numerics
