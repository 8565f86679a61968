#include "numerics/spectral.hpp"

#include <cmath>

#include "base/constants.hpp"
#include "telemetry/telemetry.hpp"

namespace foam::numerics {

using cplx = std::complex<double>;
using constants::earth_radius;

namespace {

/// Batch-level telemetry: per-row counters at ~1.3M row transforms per
/// simulated day would cost a few percent, so sizes are accounted here,
/// once per batch call. plan_rows counts latitude rows pushed through the
/// cached FFT plan — the plan-reuse analogue of a cache-hit counter.
void note_batch(std::size_t fields, std::size_t rows) {
  if (telemetry::current() == nullptr) return;
  telemetry::count("spectral.engine_batches");
  telemetry::observe("spectral.batch_fields", static_cast<double>(fields));
  telemetry::count("spectral.plan_rows",
                   static_cast<std::uint64_t>(rows) * fields);
}

/// Every grid field of a call, input or output, must be nlon x nlat: the
/// kernels index rows by global latitude.
template <class F>
void require_grid_shape(const GaussianGrid& grid, const std::vector<F*>& fs) {
  for (const Field2Dd* f : fs)
    FOAM_REQUIRE(f->nx() == grid.nlon() && f->ny() == grid.nlat(),
                 "field shape " << f->nx() << "x" << f->ny() << ", grid "
                                << grid.nlon() << "x" << grid.nlat());
}

void require_truncation(int mmax, int kmax,
                        const std::vector<const SpectralField*>& ss) {
  for (const SpectralField* s : ss)
    FOAM_REQUIRE(s->mmax() == mmax && s->kmax() == kmax,
                 "truncation (" << s->mmax() << "," << s->kmax()
                                << "), transform (" << mmax << "," << kmax
                                << ")");
}

/// Serial synthesis resizes its outputs to the grid.
void fit_to_grid(const GaussianGrid& grid, const std::vector<Field2Dd*>& fs) {
  for (Field2Dd* f : fs)
    if (f->nx() != grid.nlon() || f->ny() != grid.nlat())
      *f = Field2Dd(grid.nlon(), grid.nlat());
}

}  // namespace

SpectralField& SpectralField::operator+=(const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += o.c_[i];
  return *this;
}

SpectralField& SpectralField::operator-=(const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] -= o.c_[i];
  return *this;
}

SpectralField& SpectralField::operator*=(double s) {
  for (auto& v : c_) v *= s;
  return *this;
}

void SpectralField::axpy(double a, const SpectralField& o) {
  FOAM_REQUIRE(same_shape(o), "spectral shape mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += a * o.c_[i];
}

double SpectralField::power() const {
  double sum = 0.0;
  for (int m = 0; m <= mmax_; ++m) {
    const double fac = (m == 0) ? 1.0 : 2.0;
    for (int k = 0; k < kmax_; ++k) sum += fac * std::norm(at(m, k));
  }
  return sum;
}

SpectralTransform::SpectralTransform(const GaussianGrid& grid, int mmax)
    : grid_(grid),
      mmax_(mmax),
      kmax_(mmax + 1),
      plan_(grid.nlon()),
      table_(mmax, /*kmax=*/mmax + 1, grid.mus()) {
  FOAM_REQUIRE(mmax >= 1, "mmax=" << mmax);
  // Alias-free quadratic products need nlon >= 3*mmax + 1 and
  // nlat >= (3*mmax + 1)/2 for rhomboidal truncation.
  FOAM_REQUIRE(grid.nlon() >= 3 * mmax + 1,
               "nlon=" << grid.nlon() << " too small for R" << mmax);
  FOAM_REQUIRE(grid.nlat() >= (3 * mmax + 1) / 2,
               "nlat=" << grid.nlat() << " too small for R" << mmax);
  std::vector<int> all(grid.nlat());
  for (int j = 0; j < grid.nlat(); ++j) all[j] = j;
  pairing_ = make_pairing(grid, all);
}

SpectralTransform::LatPairing SpectralTransform::make_pairing(
    const GaussianGrid& grid, std::span<const int> lats) {
  LatPairing lp;
  const int nlat = grid.nlat();
  std::vector<char> in_set(nlat, 0), used(nlat, 0);
  for (const int j : lats) {
    FOAM_REQUIRE(j >= 0 && j < nlat, "latitude " << j);
    in_set[j] = 1;
  }
  for (const int j : lats) {
    if (used[j]) continue;
    const int jm = nlat - 1 - j;
    // Gaussian nodes are stored exactly mirror-symmetric (gauss.cpp writes
    // mu[i] = -x, mu[n-1-i] = x), so the parity fold is exact; guard it
    // anyway in case a non-Gaussian latitude set ever reaches here.
    const bool mirrored =
        jm != j && in_set[jm] &&
        std::abs(grid.mu(j) + grid.mu(jm)) <=
            1e-14 * (1.0 + std::abs(grid.mu(j))) &&
        std::abs(grid.gauss_weight(j) - grid.gauss_weight(jm)) <=
            1e-14 * grid.gauss_weight(j);
    if (mirrored) {
      used[j] = used[jm] = 1;
      lp.pairs.push_back({std::min(j, jm), std::max(j, jm)});
    } else {
      used[j] = 1;
      lp.singles.push_back(j);
    }
  }
  return lp;
}

// ---------------------------------------------------------------------------
// Plan-based row transforms

void SpectralTransform::fourier_row_plan(const Field2Dd& f, int j, cplx* fm,
                                         SpectralWorkspace& ws) const {
  const int nlon = grid_.nlon();
  ws.fft.resize(plan_.workspace_size());
  ws.row.resize(nlon);
  ws.spec.resize(nlon / 2 + 1);
  for (int i = 0; i < nlon; ++i) ws.row[i] = f(i, j);
  plan_.forward_real(ws.row.data(), ws.spec.data(), ws.fft.data());
  const double inv_n = 1.0 / nlon;
  for (int m = 0; m <= mmax_; ++m) fm[m] = ws.spec[m] * inv_n;
}

void SpectralTransform::inv_fourier_row_plan(const cplx* fm, Field2Dd& f,
                                             int j,
                                             SpectralWorkspace& ws) const {
  const int nlon = grid_.nlon();
  ws.fft.resize(plan_.workspace_size());
  ws.row.resize(nlon);
  ws.spec.assign(nlon / 2 + 1, cplx(0.0, 0.0));
  for (int m = 0; m <= mmax_; ++m)
    ws.spec[m] = fm[m] * static_cast<double>(nlon);
  plan_.inverse_real(ws.spec.data(), ws.row.data(), ws.fft.data());
  for (int i = 0; i < nlon; ++i) f(i, j) = ws.row[i];
}

// ---------------------------------------------------------------------------
// Engine kernels: parity-folded, panel-blocked Legendre sums.
//
// Pbar parity about the equator: P(m, k, jn) = (-1)^k P(m, k, js) and
// H(m, k, jn) = (-1)^{k+1} H(m, k, js) for a mirror pair (js, jn). Folding
// the pair's Fourier rows into even/odd combinations therefore halves the
// Legendre work: even-k coefficients see only the even fold, odd-k only the
// odd fold. The inner loops stream the LegendreTable's contiguous (m, k)
// panels for the southern row of each pair.

std::vector<SpectralField> SpectralTransform::engine_analyze(
    const LatPairing& lp, const std::vector<const Field2Dd*>& fs,
    SpectralWorkspace& ws) const {
  require_grid_shape(grid_, fs);
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(fs.size());
  std::vector<SpectralField> out(fs.size(), SpectralField(mmax_, kmax_));
  ws.fm_a.resize(nm);
  ws.fm_b.resize(nm);
  ws.fold_pe.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_po.resize(static_cast<std::size_t>(nf) * nm);
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double w = 0.5 * grid_.gauss_weight(js);
    for (int f = 0; f < nf; ++f) {
      fourier_row_plan(*fs[f], js, ws.fm_a.data(), ws);
      fourier_row_plan(*fs[f], jn, ws.fm_b.data(), ws);
      cplx* fe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      cplx* fo = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        fe[m] = w * (ws.fm_a[m] + ws.fm_b[m]);
        fo[m] = w * (ws.fm_a[m] - ws.fm_b[m]);
      }
    }
    const double* P = table_.p_row(js);
    for (int f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* fe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      const cplx* fo = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx Fe = fe[m], Fo = fo[m];
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          sm[k] += Fe * pm[k];
          sm[k + 1] += Fo * pm[k + 1];
        }
        if (k < kmax_) sm[k] += Fe * pm[k];
      }
    }
  }
  for (const int j : lp.singles) {
    const double w = 0.5 * grid_.gauss_weight(j);
    const double* P = table_.p_row(j);
    for (int f = 0; f < nf; ++f) {
      fourier_row_plan(*fs[f], j, ws.fm_a.data(), ws);
      cplx* s = out[f].data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx wf = w * ws.fm_a[m];
        for (int k = 0; k < kmax_; ++k) sm[k] += wf * pm[k];
      }
    }
  }
  return out;
}

void SpectralTransform::engine_synthesize(
    const LatPairing& lp, const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs, SpectralWorkspace& ws) const {
  FOAM_REQUIRE(ss.size() == outs.size(), "batch size mismatch");
  require_truncation(mmax_, kmax_, ss);
  require_grid_shape(grid_, outs);
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(ss.size());
  ws.fm_a.resize(nm);
  ws.fm_b.resize(nm);
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double* P = table_.p_row(js);
    for (int f = 0; f < nf; ++f) {
      const cplx* s = ss[f]->data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        cplx acc_e(0.0, 0.0), acc_o(0.0, 0.0);
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          acc_e += sm[k] * pm[k];
          acc_o += sm[k + 1] * pm[k + 1];
        }
        if (k < kmax_) acc_e += sm[k] * pm[k];
        ws.fm_a[m] = acc_e + acc_o;  // southern row: P as tabulated
        ws.fm_b[m] = acc_e - acc_o;  // northern mirror: (-1)^k parity
      }
      inv_fourier_row_plan(ws.fm_a.data(), *outs[f], js, ws);
      inv_fourier_row_plan(ws.fm_b.data(), *outs[f], jn, ws);
    }
  }
  for (const int j : lp.singles) {
    const double* P = table_.p_row(j);
    for (int f = 0; f < nf; ++f) {
      const cplx* s = ss[f]->data();
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        cplx acc(0.0, 0.0);
        for (int k = 0; k < kmax_; ++k) acc += sm[k] * pm[k];
        ws.fm_a[m] = acc;
      }
      inv_fourier_row_plan(ws.fm_a.data(), *outs[f], j, ws);
    }
  }
}

std::vector<SpectralField> SpectralTransform::engine_analyze_vec(
    const LatPairing& lp, bool curl, const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const {
  FOAM_REQUIRE(As.size() == Bs.size(), "batch size mismatch");
  require_grid_shape(grid_, As);
  require_grid_shape(grid_, Bs);
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(As.size());
  std::vector<SpectralField> out(As.size(), SpectralField(mmax_, kmax_));
  ws.fm_a.resize(nm);
  ws.fm_b.resize(nm);
  ws.fm_c.resize(nm);
  ws.fm_d.resize(nm);
  ws.fold_pe.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_po.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_he.resize(static_cast<std::size_t>(nf) * nm);
  ws.fold_ho.resize(static_cast<std::size_t>(nf) * nm);
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double mu = grid_.mu(js);
    const double wj = 0.5 * grid_.gauss_weight(js) /
                      (earth_radius * (1.0 - mu * mu));
    for (int f = 0; f < nf; ++f) {
      fourier_row_plan(*As[f], js, ws.fm_a.data(), ws);
      fourier_row_plan(*As[f], jn, ws.fm_b.data(), ws);
      fourier_row_plan(*Bs[f], js, ws.fm_c.data(), ws);
      fourier_row_plan(*Bs[f], jn, ws.fm_d.data(), ws);
      cplx* pe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      cplx* po = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      cplx* he = ws.fold_he.data() + static_cast<std::size_t>(f) * nm;
      cplx* ho = ws.fold_ho.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        const cplx im(0.0, static_cast<double>(m));
        if (!curl) {
          // div: s += (i m A_m) wj P - (B_m wj) H. With H's (-1)^{k+1}
          // parity the even-k H term sees the *odd* fold and vice versa.
          const cplx iaS = im * ws.fm_a[m] * wj, iaN = im * ws.fm_b[m] * wj;
          const cplx bS = ws.fm_c[m] * wj, bN = ws.fm_d[m] * wj;
          pe[m] = iaS + iaN;
          po[m] = iaS - iaN;
          he[m] = -(bS - bN);
          ho[m] = -(bS + bN);
        } else {
          // curl: s += (i m B_m) wj P + (A_m wj) H.
          const cplx ibS = im * ws.fm_c[m] * wj, ibN = im * ws.fm_d[m] * wj;
          const cplx aS = ws.fm_a[m] * wj, aN = ws.fm_b[m] * wj;
          pe[m] = ibS + ibN;
          po[m] = ibS - ibN;
          he[m] = aS - aN;
          ho[m] = aS + aN;
        }
      }
    }
    const double* P = table_.p_row(js);
    const double* H = table_.h_row(js);
    for (int f = 0; f < nf; ++f) {
      cplx* s = out[f].data();
      const cplx* pe = ws.fold_pe.data() + static_cast<std::size_t>(f) * nm;
      const cplx* po = ws.fold_po.data() + static_cast<std::size_t>(f) * nm;
      const cplx* he = ws.fold_he.data() + static_cast<std::size_t>(f) * nm;
      const cplx* ho = ws.fold_ho.data() + static_cast<std::size_t>(f) * nm;
      for (int m = 0; m < nm; ++m) {
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        const cplx Pe = pe[m], Po = po[m], He = he[m], Ho = ho[m];
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          sm[k] += Pe * pm[k] + He * hm[k];
          sm[k + 1] += Po * pm[k + 1] + Ho * hm[k + 1];
        }
        if (k < kmax_) sm[k] += Pe * pm[k] + He * hm[k];
      }
    }
  }
  for (const int j : lp.singles) {
    const double mu = grid_.mu(j);
    const double wj =
        0.5 * grid_.gauss_weight(j) / (earth_radius * (1.0 - mu * mu));
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (int f = 0; f < nf; ++f) {
      fourier_row_plan(*As[f], j, ws.fm_a.data(), ws);
      fourier_row_plan(*Bs[f], j, ws.fm_c.data(), ws);
      cplx* s = out[f].data();
      for (int m = 0; m < nm; ++m) {
        const cplx im(0.0, static_cast<double>(m));
        cplx cp, ch;
        if (!curl) {
          cp = im * ws.fm_a[m] * wj;
          ch = -ws.fm_c[m] * wj;
        } else {
          cp = im * ws.fm_c[m] * wj;
          ch = ws.fm_a[m] * wj;
        }
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        cplx* sm = s + static_cast<std::size_t>(m) * kmax_;
        for (int k = 0; k < kmax_; ++k) sm[k] += cp * pm[k] + ch * hm[k];
      }
    }
  }
  return out;
}

void SpectralTransform::engine_uv(const LatPairing& lp,
                                  const std::vector<const SpectralField*>& psis,
                                  const std::vector<const SpectralField*>& chis,
                                  const std::vector<Field2Dd*>& Us,
                                  const std::vector<Field2Dd*>& Vs,
                                  SpectralWorkspace& ws) const {
  FOAM_REQUIRE(psis.size() == chis.size() && psis.size() == Us.size() &&
                   psis.size() == Vs.size(),
               "batch size mismatch");
  require_truncation(mmax_, kmax_, psis);
  require_truncation(mmax_, kmax_, chis);
  require_grid_shape(grid_, Us);
  require_grid_shape(grid_, Vs);
  const int nm = mmax_ + 1;
  const int nf = static_cast<int>(psis.size());
  const double inv_a = 1.0 / earth_radius;
  ws.fm_a.resize(nm);  // u southern
  ws.fm_b.resize(nm);  // u northern
  ws.fm_c.resize(nm);  // v southern
  ws.fm_d.resize(nm);  // v northern
  for (const auto& pr : lp.pairs) {
    const int js = pr[0], jn = pr[1];
    const double* P = table_.p_row(js);
    const double* H = table_.h_row(js);
    for (int f = 0; f < nf; ++f) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      for (int m = 0; m < nm; ++m) {
        const cplx im(0.0, static_cast<double>(m));
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        const cplx* psm = psi + static_cast<std::size_t>(m) * kmax_;
        const cplx* csm = chi + static_cast<std::size_t>(m) * kmax_;
        // u = sum_k (i m chi_k) P_k - psi_k H_k;
        // v = sum_k (i m psi_k) P_k + chi_k H_k.
        // Split each of the four products by k parity; the northern row
        // flips the odd-parity P sums and the even-parity H sums.
        cplx Ae(0.0, 0.0), Ao(0.0, 0.0);  // (i m chi) P
        cplx Be(0.0, 0.0), Bo(0.0, 0.0);  // psi H
        cplx Ce(0.0, 0.0), Co(0.0, 0.0);  // (i m psi) P
        cplx De(0.0, 0.0), Do(0.0, 0.0);  // chi H
        int k = 0;
        for (; k + 1 < kmax_; k += 2) {
          Ae += csm[k] * pm[k];
          Be += psm[k] * hm[k];
          Ce += psm[k] * pm[k];
          De += csm[k] * hm[k];
          Ao += csm[k + 1] * pm[k + 1];
          Bo += psm[k + 1] * hm[k + 1];
          Co += psm[k + 1] * pm[k + 1];
          Do += csm[k + 1] * hm[k + 1];
        }
        if (k < kmax_) {
          Ae += csm[k] * pm[k];
          Be += psm[k] * hm[k];
          Ce += psm[k] * pm[k];
          De += csm[k] * hm[k];
        }
        Ae *= im;
        Ao *= im;
        Ce *= im;
        Co *= im;
        ws.fm_a[m] = inv_a * (Ae + Ao - Be - Bo);
        ws.fm_b[m] = inv_a * (Ae - Ao + Be - Bo);
        ws.fm_c[m] = inv_a * (Ce + Co + De + Do);
        ws.fm_d[m] = inv_a * (Ce - Co - De + Do);
      }
      inv_fourier_row_plan(ws.fm_a.data(), *Us[f], js, ws);
      inv_fourier_row_plan(ws.fm_b.data(), *Us[f], jn, ws);
      inv_fourier_row_plan(ws.fm_c.data(), *Vs[f], js, ws);
      inv_fourier_row_plan(ws.fm_d.data(), *Vs[f], jn, ws);
    }
  }
  for (const int j : lp.singles) {
    const double* P = table_.p_row(j);
    const double* H = table_.h_row(j);
    for (int f = 0; f < nf; ++f) {
      const cplx* psi = psis[f]->data();
      const cplx* chi = chis[f]->data();
      for (int m = 0; m < nm; ++m) {
        const cplx im(0.0, static_cast<double>(m));
        const double* pm = P + static_cast<std::size_t>(m) * kmax_;
        const double* hm = H + static_cast<std::size_t>(m) * kmax_;
        const cplx* psm = psi + static_cast<std::size_t>(m) * kmax_;
        const cplx* csm = chi + static_cast<std::size_t>(m) * kmax_;
        cplx u(0.0, 0.0), v(0.0, 0.0);
        for (int k = 0; k < kmax_; ++k) {
          u += im * csm[k] * pm[k] - psm[k] * hm[k];
          v += im * psm[k] * pm[k] + csm[k] * hm[k];
        }
        ws.fm_a[m] = u * inv_a;
        ws.fm_c[m] = v * inv_a;
      }
      inv_fourier_row_plan(ws.fm_a.data(), *Us[f], j, ws);
      inv_fourier_row_plan(ws.fm_c.data(), *Vs[f], j, ws);
    }
  }
}

// ---------------------------------------------------------------------------
// Serial entry points: a single field is a batch of one through the same
// kernel, without the per-batch telemetry.

SpectralField SpectralTransform::analyze(const Field2Dd& f) const {
  SpectralWorkspace ws;
  return analyze(f, ws);
}

SpectralField SpectralTransform::analyze(const Field2Dd& f,
                                         SpectralWorkspace& ws) const {
  return std::move(engine_analyze(pairing_, {&f}, ws)[0]);
}

Field2Dd SpectralTransform::synthesize(const SpectralField& s) const {
  SpectralWorkspace ws;
  return synthesize(s, ws);
}

Field2Dd SpectralTransform::synthesize(const SpectralField& s,
                                       SpectralWorkspace& ws) const {
  Field2Dd f(grid_.nlon(), grid_.nlat());
  engine_synthesize(pairing_, {&s}, {&f}, ws);
  return f;
}

SpectralField SpectralTransform::analyze_div(const Field2Dd& A,
                                             const Field2Dd& B) const {
  SpectralWorkspace ws;
  return std::move(
      engine_analyze_vec(pairing_, /*curl=*/false, {&A}, {&B}, ws)[0]);
}

SpectralField SpectralTransform::analyze_curl(const Field2Dd& A,
                                              const Field2Dd& B) const {
  SpectralWorkspace ws;
  return std::move(
      engine_analyze_vec(pairing_, /*curl=*/true, {&A}, {&B}, ws)[0]);
}

void SpectralTransform::uv_from_psi_chi(const SpectralField& psi,
                                        const SpectralField& chi,
                                        Field2Dd& U, Field2Dd& V) const {
  SpectralWorkspace ws;
  fit_to_grid(grid_, {&U, &V});
  engine_uv(pairing_, {&psi}, {&chi}, {&U}, {&V}, ws);
}

std::vector<SpectralField> SpectralTransform::analyze_batch(
    const std::vector<const Field2Dd*>& fs, SpectralWorkspace& ws) const {
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  note_batch(fs.size(), static_cast<std::size_t>(grid_.nlat()));
  return engine_analyze(pairing_, fs, ws);
}

void SpectralTransform::synthesize_batch(
    const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs, SpectralWorkspace& ws) const {
  FOAM_TRACE_SCOPE("spectral.synthesize_batch");
  note_batch(ss.size(), static_cast<std::size_t>(grid_.nlat()));
  fit_to_grid(grid_, outs);
  engine_synthesize(pairing_, ss, outs, ws);
}

std::vector<SpectralField> SpectralTransform::analyze_div_batch(
    const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const {
  FOAM_TRACE_SCOPE("spectral.analyze_div_batch");
  note_batch(As.size(), static_cast<std::size_t>(grid_.nlat()));
  return engine_analyze_vec(pairing_, /*curl=*/false, As, Bs, ws);
}

std::vector<SpectralField> SpectralTransform::analyze_curl_batch(
    const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs, SpectralWorkspace& ws) const {
  FOAM_TRACE_SCOPE("spectral.analyze_curl_batch");
  note_batch(As.size(), static_cast<std::size_t>(grid_.nlat()));
  return engine_analyze_vec(pairing_, /*curl=*/true, As, Bs, ws);
}

void SpectralTransform::uv_from_psi_chi_batch(
    const std::vector<const SpectralField*>& psis,
    const std::vector<const SpectralField*>& chis,
    const std::vector<Field2Dd*>& Us, const std::vector<Field2Dd*>& Vs,
    SpectralWorkspace& ws) const {
  FOAM_TRACE_SCOPE("spectral.uv_batch");
  note_batch(psis.size(), static_cast<std::size_t>(grid_.nlat()));
  fit_to_grid(grid_, Us);
  fit_to_grid(grid_, Vs);
  engine_uv(pairing_, psis, chis, Us, Vs, ws);
}

double SpectralTransform::laplacian_eigenvalue(int n) const {
  return -static_cast<double>(n) * (n + 1) / (earth_radius * earth_radius);
}

void SpectralTransform::laplacian(SpectralField& s) const {
  for (int m = 0; m <= mmax_; ++m)
    for (int k = 0; k < kmax_; ++k) s.at(m, k) *= laplacian_eigenvalue(m + k);
}

void SpectralTransform::inverse_laplacian(SpectralField& s) const {
  for (int m = 0; m <= mmax_; ++m) {
    for (int k = 0; k < kmax_; ++k) {
      const int n = m + k;
      if (n == 0) {
        s.at(m, k) = cplx(0.0, 0.0);
      } else {
        s.at(m, k) /= laplacian_eigenvalue(n);
      }
    }
  }
}

SpectralField SpectralTransform::d_dlon(const SpectralField& s) const {
  SpectralField out(s);
  for (int m = 0; m <= mmax_; ++m) {
    const cplx im(0.0, static_cast<double>(m));
    for (int k = 0; k < kmax_; ++k) out.at(m, k) = im * s.at(m, k);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Distributed (latitude-band) transform

ParSpectralTransform::ParSpectralTransform(const SpectralTransform& serial,
                                           std::vector<int> my_lats)
    : serial_(serial), my_lats_(std::move(my_lats)) {
  for (const int j : my_lats_)
    FOAM_REQUIRE(j >= 0 && j < serial_.grid().nlat(), "latitude " << j);
  pairing_ = SpectralTransform::make_pairing(serial_.grid(), my_lats_);
}

void ParSpectralTransform::allreduce_fused(
    par::Comm& comm, std::vector<SpectralField>& fields) const {
  if (fields.empty()) return;
  FOAM_TRACE_SCOPE("spectral.allreduce");
  const std::size_t per = fields[0].size() * 2;  // complex -> 2 doubles
  if (fields.size() == 1) {
    // Reduce directly over the coefficient storage viewed as doubles — the
    // rank-ordered reduction writes into the same span, no staging copies.
    double* raw = reinterpret_cast<double*>(fields[0].data());
    comm.allreduce(std::span<const double>(raw, per),
                   std::span<double>(raw, per), par::ReduceOp::kSum);
    return;
  }
  ws_.reduce.resize(per * fields.size());
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const double* raw = reinterpret_cast<const double*>(fields[f].data());
    std::copy(raw, raw + per, ws_.reduce.begin() + f * per);
  }
  comm.allreduce(
      std::span<const double>(ws_.reduce.data(), ws_.reduce.size()),
      std::span<double>(ws_.reduce.data(), ws_.reduce.size()),
      par::ReduceOp::kSum);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    double* raw = reinterpret_cast<double*>(fields[f].data());
    std::copy(ws_.reduce.begin() + f * per,
              ws_.reduce.begin() + (f + 1) * per, raw);
  }
}

// Single-field entry points are batches of one without the per-batch
// telemetry; a batch of one reduces in place.

SpectralField ParSpectralTransform::analyze(par::Comm& comm,
                                            const Field2Dd& f) const {
  auto out = serial_.engine_analyze(pairing_, {&f}, ws_);
  allreduce_fused(comm, out);
  return std::move(out[0]);
}

void ParSpectralTransform::synthesize(const SpectralField& s,
                                      Field2Dd& f) const {
  serial_.engine_synthesize(pairing_, {&s}, {&f}, ws_);
}

SpectralField ParSpectralTransform::analyze_div(par::Comm& comm,
                                                const Field2Dd& A,
                                                const Field2Dd& B) const {
  auto out =
      serial_.engine_analyze_vec(pairing_, /*curl=*/false, {&A}, {&B}, ws_);
  allreduce_fused(comm, out);
  return std::move(out[0]);
}

SpectralField ParSpectralTransform::analyze_curl(par::Comm& comm,
                                                 const Field2Dd& A,
                                                 const Field2Dd& B) const {
  auto out =
      serial_.engine_analyze_vec(pairing_, /*curl=*/true, {&A}, {&B}, ws_);
  allreduce_fused(comm, out);
  return std::move(out[0]);
}

void ParSpectralTransform::uv_from_psi_chi(const SpectralField& psi,
                                           const SpectralField& chi,
                                           Field2Dd& U, Field2Dd& V) const {
  serial_.engine_uv(pairing_, {&psi}, {&chi}, {&U}, {&V}, ws_);
}

std::vector<SpectralField> ParSpectralTransform::analyze_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& fs) const {
  FOAM_TRACE_SCOPE("spectral.analyze_batch");
  note_batch(fs.size(), my_lats_.size());
  auto out = serial_.engine_analyze(pairing_, fs, ws_);
  allreduce_fused(comm, out);
  return out;
}

void ParSpectralTransform::synthesize_batch(
    const std::vector<const SpectralField*>& ss,
    const std::vector<Field2Dd*>& outs) const {
  FOAM_TRACE_SCOPE("spectral.synthesize_batch");
  note_batch(ss.size(), my_lats_.size());
  serial_.engine_synthesize(pairing_, ss, outs, ws_);
}

std::vector<SpectralField> ParSpectralTransform::analyze_div_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs) const {
  FOAM_TRACE_SCOPE("spectral.analyze_div_batch");
  note_batch(As.size(), my_lats_.size());
  auto out = serial_.engine_analyze_vec(pairing_, /*curl=*/false, As, Bs, ws_);
  allreduce_fused(comm, out);
  return out;
}

std::vector<SpectralField> ParSpectralTransform::analyze_curl_batch(
    par::Comm& comm, const std::vector<const Field2Dd*>& As,
    const std::vector<const Field2Dd*>& Bs) const {
  FOAM_TRACE_SCOPE("spectral.analyze_curl_batch");
  note_batch(As.size(), my_lats_.size());
  auto out = serial_.engine_analyze_vec(pairing_, /*curl=*/true, As, Bs, ws_);
  allreduce_fused(comm, out);
  return out;
}

void ParSpectralTransform::uv_from_psi_chi_batch(
    const std::vector<const SpectralField*>& psis,
    const std::vector<const SpectralField*>& chis,
    const std::vector<Field2Dd*>& Us, const std::vector<Field2Dd*>& Vs) const {
  FOAM_TRACE_SCOPE("spectral.uv_batch");
  note_batch(psis.size(), my_lats_.size());
  serial_.engine_uv(pairing_, psis, chis, Us, Vs, ws_);
}

}  // namespace foam::numerics
