// Explicit simplex basis: per-column status plus a factorization of the
// basis matrix with eta-file updates.
//
// The status vector is the whole warm-start contract: it is tiny (one
// byte per column), independent of any factorization, and a
// parent-optimal status vector stays dual-feasible for every child node
// of a branch-and-bound tree (bounds only tighten, costs and matrix
// never change). Branch-and-bound therefore shares `Basis` objects down
// the tree and the solver refactorizes on demand.
//
// Sharing contract: a `Basis` is immutable once published — it travels
// as shared_ptr<const Basis> and nothing writes through it. That makes
// it safe to hand the same parent basis to sibling nodes processed on
// different threads; each worker's own engine copies the statuses into
// private scratch before pivoting.
//
// `BasisFactor` comes in two kinds behind one interface:
//
//  * FactorKind::SparseLU (default) — a sparse LU factorization built
//    column-by-column (left-looking) with Markowitz-threshold pivoting:
//    columns are eliminated cheapest-first (ascending nonzero count)
//    and the pivot row is the fewest-nonzeros row among those within a
//    threshold factor of the largest candidate magnitude, so fill-in
//    stays near the network-flow sparsity of the KKT-rewritten models.
//    Basis exchanges append sparse eta vectors (the product-form /
//    Forrest–Tomlin eta representation: one elementary transform per
//    pivot, applied after the LU solve in ftran and before it in
//    btran). The eta file is monitored for fill-in: when its nonzeros
//    outgrow the LU factors, needs_refactor() fires and the solver
//    rebuilds from scratch — the fill-in-triggered refactorize that
//    keeps updates from degenerating into a dense product form.
//
//  * FactorKind::DenseInverse — the original explicit dense inverse
//    (Gauss-Jordan O(m^3) refactorize, O(m^2) product-form updates).
//    Kept verbatim as the differential-testing and benchmarking
//    baseline; the fuzz harness solves every instance both ways.
//
// Either kind drifts with updates, so the solver refactorizes every
// kRefactorInterval pivots (or at the fill-in trigger) and runs a
// residual accuracy check before trusting a terminal point (see
// revised_simplex.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/standard_form.h"

namespace metaopt::lp {

/// Simplex status of one column.
enum class VarStatus : std::uint8_t {
  AtLower,  ///< nonbasic at its (finite) lower bound
  AtUpper,  ///< nonbasic at its (finite) upper bound
  Basic,    ///< in the basis; value solved from the basis system
  Free,     ///< nonbasic with no finite bound; rests at zero
};

/// Basic/nonbasic status per BoundedForm column. This is all a warm
/// start needs: the factorization and the primal point are recomputed
/// from it on demand.
struct Basis {
  std::vector<VarStatus> status;
};

/// Which factorization backs a BasisFactor.
enum class FactorKind : std::uint8_t {
  SparseLU,      ///< sparse LU + eta file (default)
  DenseInverse,  ///< explicit dense inverse (differential baseline)
};

/// Pivots between full refactorizations. Eta/product-form updates cost
/// little but accumulate roundoff; a periodic rebuild keeps the factor
/// honest (and the accuracy check catches the rare escape).
inline constexpr int kRefactorInterval = 64;

/// Eta-file fill-in trigger: refactorize once the eta nonzeros exceed
/// this multiple of (LU nonzeros + m). Each refactorization is cheap for
/// the sparse kind, so the trigger is tight — past this point applying
/// the eta file costs more than a fresh factorization would.
inline constexpr double kEtaFillFactor = 1.0;

/// Markowitz threshold: a pivot candidate must be at least this fraction
/// of the largest available magnitude in its column; among candidates
/// the sparsest row wins. Classic stability/sparsity trade-off (0.1 is
/// the textbook and HiGHS/SuiteSparse default neighborhood).
inline constexpr double kMarkowitzThreshold = 0.1;

/// Factorization of the basis matrix of a BoundedForm (see file header
/// for the two kinds).
class BasisFactor {
 public:
  explicit BasisFactor(FactorKind kind = FactorKind::SparseLU)
      : kind_(kind) {}

  /// Factorizes the basis given by `basic` (column ids, one per row;
  /// order defines the position <-> row mapping). Returns false when the
  /// matrix is numerically singular — the caller must repair or fall
  /// back, the factor is unusable.
  bool factorize(const BoundedForm& form, const std::vector<int>& basic,
                 double pivot_tol);

  /// x := B^{-1} x (forward transform: solve B y = x). Input is indexed
  /// by row, output by basis position.
  void ftran(std::vector<double>& x) const;

  /// x := B^{-T} x (backward transform: solve B' y = x). Input is
  /// indexed by basis position, output by row.
  void btran(std::vector<double>& x) const;

  /// Replaces basis position `r` by a column whose ftran image is `w`
  /// (w = B^{-1} a_q). Returns false when |w[r]| <= pivot_tol (the
  /// update would divide by numerical dust).
  bool update(int r, const std::vector<double>& w, double pivot_tol);

  [[nodiscard]] FactorKind kind() const { return kind_; }
  [[nodiscard]] bool valid() const { return m_ > 0 || factorized_empty_; }
  [[nodiscard]] int pivots_since_factor() const { return pivots_; }

  /// Eta vectors appended since the last factorize (sparse kind only).
  [[nodiscard]] int eta_count() const { return static_cast<int>(etas_.size()); }

  /// (LU + eta nonzeros) / basis-matrix nonzeros — 1.0 means "no fill at
  /// all"; the dense kind reports m^2 / basis nonzeros.
  [[nodiscard]] double fillin_ratio() const;

  /// True once the eta file outgrew the LU factors (sparse kind only);
  /// cleared by the next factorize().
  [[nodiscard]] bool fillin_triggered() const;

  [[nodiscard]] bool needs_refactor() const {
    return pivots_ >= kRefactorInterval || fillin_triggered();
  }

 private:
  bool factorize_dense(const BoundedForm& form, const std::vector<int>& basic,
                       double pivot_tol);
  bool factorize_sparse(const BoundedForm& form, const std::vector<int>& basic,
                        double pivot_tol);
  void ftran_dense(std::vector<double>& x) const;
  void btran_dense(std::vector<double>& x) const;
  void ftran_sparse(std::vector<double>& x) const;
  void btran_sparse(std::vector<double>& x) const;

  FactorKind kind_;
  int m_ = 0;
  int pivots_ = 0;
  bool factorized_empty_ = false;
  int basis_nnz_ = 0;  ///< nonzeros of the factorized basis matrix

  // ---- dense kind ----
  std::vector<double> inv_;  // row-major m x m
  std::vector<double> scratch_;
  mutable std::vector<double> work_;

  // ---- sparse kind: PBQ = LU in elimination-step order ----
  // Step k eliminates basis position col_of_step_[k] with pivot row
  // pivrow_[k]. L is unit lower triangular: lcol_[lstart_[k]..) holds
  // (original row, multiplier) strictly below the diagonal. U is upper
  // triangular: ucol_[ustart_[k]..) holds (earlier step t, value) for
  // the entries above the diagonal of column k; diag_[k] is the pivot.
  struct SparseEntry {
    int idx;
    double val;
  };
  std::vector<int> pivrow_, col_of_step_;
  std::vector<int> lstart_, ustart_;
  std::vector<SparseEntry> lcol_, ucol_;
  std::vector<double> diag_;

  // Eta file: one elementary transform per basis exchange, in position
  // space. ftran applies them oldest-first after the LU solve; btran
  // newest-first before it.
  struct Eta {
    int r;                            ///< replaced basis position
    double pivot;                     ///< w[r]
    std::vector<SparseEntry> terms;   ///< (position != r, w value)
  };
  std::vector<Eta> etas_;
  int eta_nnz_ = 0;
  int lu_nnz_ = 0;

  // factorization scratch (sparse kind)
  std::vector<double> fwork_;
  std::vector<int> ftouched_;
  std::vector<signed char> fmark_;
  std::vector<int> row_count_, col_order_, rowpos_;
  mutable std::vector<double> zwork_;
};

}  // namespace metaopt::lp
