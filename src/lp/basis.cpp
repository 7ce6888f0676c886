#include "lp/basis.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/obs.h"

namespace metaopt::lp {

namespace {

const obs::Counter c_eta_count = obs::counter("simplex.eta_count");
const obs::Counter c_fillin_triggers =
    obs::counter("simplex.refactor_fillin_triggers");
// Fill-in per factorization, recorded in percent of the basis-matrix
// nonzeros (100 == no fill at all).
const obs::Histogram h_fillin_ratio = obs::histogram("simplex.fillin_ratio");
// Earlier elimination steps visited by the sparse LU, summed over
// factorizations: the deterministic work of the kernel (a scan of every
// earlier step would visit m(m-1)/2 per factorization).
const obs::Counter c_lu_reach = obs::counter("simplex.lu_reach");

}  // namespace

bool BasisFactor::factorize(const BoundedForm& form,
                            const std::vector<int>& basic, double pivot_tol) {
  // A refactorization demanded by the eta-file fill-in monitor is the
  // event the counter tracks; interval and cold refactorizations are
  // counted separately by the engine.
  if (fillin_triggered()) c_fillin_triggers.inc();

  const int m = form.num_rows;
  m_ = 0;
  pivots_ = 0;
  etas_.clear();
  eta_nnz_ = 0;
  lu_nnz_ = 0;
  basis_nnz_ = 0;
  factorized_empty_ = m == 0;
  if (m == 0) return true;
  if (static_cast<int>(basic.size()) != m) return false;

  for (int k = 0; k < m; ++k) {
    const int j = basic[k];
    if (j < 0 || j >= form.num_cols()) return false;
    basis_nnz_ += j < form.num_structs
                      ? form.col_start[j + 1] - form.col_start[j]
                      : 1;
  }

  const bool ok = kind_ == FactorKind::DenseInverse
                      ? factorize_dense(form, basic, pivot_tol)
                      : factorize_sparse(form, basic, pivot_tol);
  if (!ok) return false;
  m_ = m;
  h_fillin_ratio.observe(
      static_cast<std::uint64_t>(std::llround(fillin_ratio() * 100.0)));
  return true;
}

double BasisFactor::fillin_ratio() const {
  if (m_ == 0) return 1.0;
  const double stored = kind_ == FactorKind::DenseInverse
                            ? static_cast<double>(m_) * m_
                            : static_cast<double>(lu_nnz_ + eta_nnz_);
  return stored / std::max(1, basis_nnz_);
}

bool BasisFactor::fillin_triggered() const {
  if (kind_ != FactorKind::SparseLU || m_ == 0) return false;
  return static_cast<double>(eta_nnz_) > kEtaFillFactor * (lu_nnz_ + m_);
}

// ---------------------------------------------------------------------------
// Dense kind: explicit inverse via Gauss-Jordan, product-form updates.
// ---------------------------------------------------------------------------

bool BasisFactor::factorize_dense(const BoundedForm& form,
                                  const std::vector<int>& basic,
                                  double pivot_tol) {
  const int m = form.num_rows;

  // Assemble B column-by-column into `scratch_` (row-major m x m) and
  // reduce [B | I] by Gauss-Jordan with partial pivoting, leaving the
  // inverse in inv_.
  scratch_.assign(static_cast<std::size_t>(m) * m, 0.0);
  inv_.assign(static_cast<std::size_t>(m) * m, 0.0);
  for (int k = 0; k < m; ++k) {
    const int j = basic[k];
    if (j < form.num_structs) {
      for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
        scratch_[static_cast<std::size_t>(form.col_row[t]) * m + k] =
            form.col_val[t];
      }
    } else {
      // Logical and artificial columns are both +e_row.
      const int row = j < form.num_structs + form.num_rows
                          ? j - form.num_structs
                          : j - form.num_structs - form.num_rows;
      scratch_[static_cast<std::size_t>(row) * m + k] = 1.0;
    }
    inv_[static_cast<std::size_t>(k) * m + k] = 1.0;
  }

  double* b = scratch_.data();
  double* inv = inv_.data();
  for (int col = 0; col < m; ++col) {
    int pivot_row = -1;
    double best = pivot_tol;
    for (int i = col; i < m; ++i) {
      const double a = std::abs(b[static_cast<std::size_t>(i) * m + col]);
      if (a > best) {
        best = a;
        pivot_row = i;
      }
    }
    if (pivot_row < 0) return false;
    if (pivot_row != col) {
      for (int k = 0; k < m; ++k) {
        std::swap(b[static_cast<std::size_t>(pivot_row) * m + k],
                  b[static_cast<std::size_t>(col) * m + k]);
        std::swap(inv[static_cast<std::size_t>(pivot_row) * m + k],
                  inv[static_cast<std::size_t>(col) * m + k]);
      }
    }
    const double piv = b[static_cast<std::size_t>(col) * m + col];
    const double scale = 1.0 / piv;
    for (int k = 0; k < m; ++k) {
      b[static_cast<std::size_t>(col) * m + k] *= scale;
      inv[static_cast<std::size_t>(col) * m + k] *= scale;
    }
    for (int i = 0; i < m; ++i) {
      if (i == col) continue;
      const double factor = b[static_cast<std::size_t>(i) * m + col];
      if (factor == 0.0) continue;
      for (int k = 0; k < m; ++k) {
        b[static_cast<std::size_t>(i) * m + k] -=
            factor * b[static_cast<std::size_t>(col) * m + k];
        inv[static_cast<std::size_t>(i) * m + k] -=
            factor * inv[static_cast<std::size_t>(col) * m + k];
      }
    }
  }
  return true;
}

void BasisFactor::ftran_dense(std::vector<double>& x) const {
  work_.assign(m_, 0.0);
  const double* inv = inv_.data();
  for (int i = 0; i < m_; ++i) {
    const double* row = inv + static_cast<std::size_t>(i) * m_;
    double acc = 0.0;
    for (int k = 0; k < m_; ++k) acc += row[k] * x[k];
    work_[i] = acc;
  }
  for (int i = 0; i < m_; ++i) x[i] = work_[i];
}

void BasisFactor::btran_dense(std::vector<double>& x) const {
  work_.assign(m_, 0.0);
  const double* inv = inv_.data();
  // y = inv' x: accumulate each row of inv scaled by x[i].
  for (int i = 0; i < m_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* row = inv + static_cast<std::size_t>(i) * m_;
    for (int k = 0; k < m_; ++k) work_[k] += xi * row[k];
  }
  for (int i = 0; i < m_; ++i) x[i] = work_[i];
}

// ---------------------------------------------------------------------------
// Sparse kind: left-looking LU with Markowitz-threshold pivoting.
// ---------------------------------------------------------------------------

bool BasisFactor::factorize_sparse(const BoundedForm& form,
                                   const std::vector<int>& basic,
                                   double pivot_tol) {
  const int m = form.num_rows;

  // Static row counts of the basis matrix (Markowitz tie-break) and
  // per-position column counts (elimination order: cheapest first).
  row_count_.assign(m, 0);
  col_nnz_.assign(m, 0);
  for (int p = 0; p < m; ++p) {
    const int j = basic[p];
    if (j < form.num_structs) {
      col_nnz_[p] = form.col_start[j + 1] - form.col_start[j];
      for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
        ++row_count_[form.col_row[t]];
      }
    } else {
      col_nnz_[p] = 1;
      const int row = j < form.num_structs + m ? j - form.num_structs
                                               : j - form.num_structs - m;
      ++row_count_[row];
    }
  }
  col_order_.resize(m);
  for (int p = 0; p < m; ++p) col_order_[p] = p;
  std::stable_sort(col_order_.begin(), col_order_.end(),
                   [&](int a, int b) { return col_nnz_[a] < col_nnz_[b]; });

  pivrow_.assign(m, -1);
  col_of_step_.assign(m, -1);
  diag_.assign(m, 0.0);
  rowpos_.assign(m, -1);
  lstart_.assign(1, 0);
  ustart_.assign(1, 0);
  lcol_.clear();
  ucol_.clear();
  fwork_.assign(m, 0.0);
  fmark_.assign(m, 0);
  ftouched_.clear();
  freach_.clear();
  std::uint64_t reach = 0;

  // A row touched for the first time that is already pivoted puts its
  // elimination step on the reach heap (a min-heap on the step index).
  const auto touch = [&](int row) {
    if (fmark_[row] == 0) {
      fmark_[row] = 1;
      ftouched_.push_back(row);
      if (rowpos_[row] >= 0) {
        freach_.push_back(rowpos_[row]);
        std::push_heap(freach_.begin(), freach_.end(), std::greater<>());
      }
    }
  };
  const auto clear_touched = [&] {
    for (const int row : ftouched_) {
      fwork_[row] = 0.0;
      fmark_[row] = 0;
    }
    ftouched_.clear();
  };
  const auto fail = [&] {
    clear_touched();
    c_lu_reach.add(reach);
    return false;
  };

  for (int k = 0; k < m; ++k) {
    const int p = col_order_[k];
    const int j = basic[p];

    // Scatter column p of B into the dense work vector; this seeds the
    // reach heap with the already-pivoted rows the column touches.
    if (j < form.num_structs) {
      for (int t = form.col_start[j]; t < form.col_start[j + 1]; ++t) {
        const int row = form.col_row[t];
        touch(row);
        fwork_[row] += form.col_val[t];
      }
    } else {
      const int row = j < form.num_structs + m ? j - form.num_structs
                                               : j - form.num_structs - m;
      touch(row);
      fwork_[row] += 1.0;
    }

    // Left-looking elimination over the sparse reach: apply the L
    // columns of the earlier steps whose pivot row carries a nonzero,
    // in ascending step order (bit-identical to scanning t = 0..k-1; see
    // basis.h). L column t only holds rows pivoted after t, so its fill
    // pushes only steps still to come. A pivot row, once read here, is
    // never modified by later steps, so fwork_[pivrow_[t]] IS u_{t,k}.
    while (!freach_.empty()) {
      std::pop_heap(freach_.begin(), freach_.end(), std::greater<>());
      const int t = freach_.back();
      freach_.pop_back();
      ++reach;
      const double u = fwork_[pivrow_[t]];
      if (u == 0.0) continue;
      ucol_.push_back({t, u});
      for (int e = lstart_[t]; e < lstart_[t + 1]; ++e) {
        const int row = lcol_[e].idx;
        touch(row);
        fwork_[row] -= lcol_[e].val * u;
      }
    }
    ustart_.push_back(static_cast<int>(ucol_.size()));

    // Markowitz-threshold pivot: among still-unpivoted rows within
    // kMarkowitzThreshold of the largest magnitude, take the one with
    // the fewest basis-matrix nonzeros (lowest row index on ties, so
    // the choice never depends on scatter order).
    double wmax = 0.0;
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      wmax = std::max(wmax, std::abs(fwork_[row]));
    }
    if (wmax <= pivot_tol) return fail();  // numerically singular
    const double accept = std::max(pivot_tol, kMarkowitzThreshold * wmax);
    int best_row = -1;
    int best_cnt = std::numeric_limits<int>::max();
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      if (std::abs(fwork_[row]) < accept) continue;
      const int cnt = row_count_[row];
      if (cnt < best_cnt || (cnt == best_cnt && row < best_row)) {
        best_cnt = cnt;
        best_row = row;
      }
    }
    if (best_row < 0) {
      // Threshold floor sits above pivot_tol only when wmax does; the
      // max() above guarantees at least the wmax row qualifies.
      return fail();
    }
    pivrow_[k] = best_row;
    rowpos_[best_row] = k;
    col_of_step_[k] = p;
    diag_[k] = fwork_[best_row];

    // L multipliers for the remaining unpivoted rows.
    const double inv_piv = 1.0 / diag_[k];
    for (const int row : ftouched_) {
      if (rowpos_[row] >= 0) continue;
      const double v = fwork_[row];
      if (v != 0.0) lcol_.push_back({row, v * inv_piv});
    }
    lstart_.push_back(static_cast<int>(lcol_.size()));
    clear_touched();
  }

  lu_nnz_ = static_cast<int>(lcol_.size() + ucol_.size()) + m;
  c_lu_reach.add(reach);
  return true;
}

void BasisFactor::ftran_sparse(std::vector<double>& x) const {
  // Forward: L y = P x, in original row space.
  for (int k = 0; k < m_; ++k) {
    const double xk = x[pivrow_[k]];
    if (xk == 0.0) continue;
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      x[lcol_[e].idx] -= lcol_[e].val * xk;
    }
  }
  // Backward: U z = y, step space; y_t lives at x[pivrow_[t]].
  zwork_.assign(m_, 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const double zk = x[pivrow_[k]] / diag_[k];
    zwork_[k] = zk;
    if (zk == 0.0) continue;
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      x[pivrow_[ucol_[e].idx]] -= ucol_[e].val * zk;
    }
  }
  // Permute steps back to basis positions.
  for (int k = 0; k < m_; ++k) x[col_of_step_[k]] = zwork_[k];

  // Eta file, oldest first (B = B0 E1 ... Ek, so B^-1 applies Ek^-1 last).
  for (const Eta& eta : etas_) {
    const double xr = x[eta.r] / eta.pivot;
    x[eta.r] = xr;
    if (xr == 0.0) continue;
    for (const SparseEntry& e : eta.terms) x[e.idx] -= e.val * xr;
  }
}

void BasisFactor::btran_sparse(std::vector<double>& x) const {
  // Eta transposes, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = x[it->r];
    for (const SparseEntry& e : it->terms) acc -= e.val * x[e.idx];
    x[it->r] = acc / it->pivot;
  }
  // Position space -> step space.
  zwork_.resize(m_);
  for (int k = 0; k < m_; ++k) zwork_[k] = x[col_of_step_[k]];
  // U' w = c': forward, U' is lower triangular in step order.
  for (int k = 0; k < m_; ++k) {
    double acc = zwork_[k];
    for (int e = ustart_[k]; e < ustart_[k + 1]; ++e) {
      acc -= ucol_[e].val * zwork_[ucol_[e].idx];
    }
    zwork_[k] = acc / diag_[k];
  }
  // L' v = w: backward; the result lands row-indexed through pivrow_.
  // L columns only reference rows pivoted at later steps, which this
  // descending sweep has already written.
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = zwork_[k];
    for (int e = lstart_[k]; e < lstart_[k + 1]; ++e) {
      acc -= lcol_[e].val * x[lcol_[e].idx];
    }
    x[pivrow_[k]] = acc;
  }
}

// ---------------------------------------------------------------------------
// Shared interface.
// ---------------------------------------------------------------------------

void BasisFactor::ftran(std::vector<double>& x) const {
  if (m_ == 0) return;
  if (kind_ == FactorKind::DenseInverse) {
    ftran_dense(x);
  } else {
    ftran_sparse(x);
  }
}

void BasisFactor::btran(std::vector<double>& x) const {
  if (m_ == 0) return;
  if (kind_ == FactorKind::DenseInverse) {
    btran_dense(x);
  } else {
    btran_sparse(x);
  }
}

bool BasisFactor::update(int r, const std::vector<double>& w,
                         double pivot_tol) {
  if (m_ == 0) return false;
  const double piv = w[r];
  if (std::abs(piv) <= pivot_tol) return false;

  if (kind_ == FactorKind::DenseInverse) {
    double* inv = inv_.data();
    const double scale = 1.0 / piv;
    double* row_r = inv + static_cast<std::size_t>(r) * m_;
    for (int k = 0; k < m_; ++k) row_r[k] *= scale;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double factor = w[i];
      if (factor == 0.0) continue;
      double* row_i = inv + static_cast<std::size_t>(i) * m_;
      for (int k = 0; k < m_; ++k) row_i[k] -= factor * row_r[k];
    }
    ++pivots_;
    return true;
  }

  Eta eta;
  eta.r = r;
  eta.pivot = piv;
  for (int i = 0; i < m_; ++i) {
    if (i != r && w[i] != 0.0) eta.terms.push_back({i, w[i]});
  }
  eta_nnz_ += static_cast<int>(eta.terms.size()) + 1;
  etas_.push_back(std::move(eta));
  ++pivots_;
  c_eta_count.inc();
  return true;
}

}  // namespace metaopt::lp
