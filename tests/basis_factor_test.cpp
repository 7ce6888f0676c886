// Unit tests for BasisFactor: the sparse LU backend against the dense
// explicit inverse on the same bases, the product-form eta update, the
// fill-in-triggered refactorize, and the factored-set cache key staying
// in sync across warm solves (regression for the PR 4 stale-key class).
//
// The differential corpus (SparseReachMatchesDenseInverse) draws its
// bases from METAOPT_FUZZ_SEED when set, so CI can rotate it; reproduce
// a red run with METAOPT_FUZZ_SEED=<seed> ./basis_factor_test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/basis.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "lp/standard_form.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace metaopt {
namespace {

using lp::BasisFactor;
using lp::BoundedForm;
using lp::FactorKind;
using lp::Model;
using lp::ObjSense;

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// A well-conditioned random LP whose BoundedForm has enough structural
/// columns to assemble interesting bases.
Model make_model(util::Rng& rng, int n, int m) {
  Model model;
  std::vector<lp::Var> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(model.add_var("x" + std::to_string(j), 0.0, 10.0));
  }
  for (int r = 0; r < m; ++r) {
    lp::LinExpr expr;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) expr.add_term(vars[j], rng.uniform(-4.0, 4.0));
    }
    expr.add_term(vars[r % n], 1.0);  // guarantee a nonzero
    model.add_constraint(expr <= lp::LinExpr(rng.uniform(1.0, 10.0)));
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add_term(vars[j], rng.uniform(-2.0, 2.0));
  model.set_objective(ObjSense::Minimize, obj);
  return model;
}

/// A basis mixing structural and logical columns that both backends
/// accept (falls back toward all-logical until factorization succeeds).
std::vector<int> pick_basis(const BoundedForm& form, util::Rng& rng) {
  const int m = form.num_rows;
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> basic;
    std::vector<bool> used(form.num_structs, false);
    for (int i = 0; i < m; ++i) {
      int col = -1;
      if (rng.bernoulli(0.5) && form.num_structs > 0) {
        const int j = rng.uniform_int(0, form.num_structs - 1);
        if (!used[j]) {
          used[j] = true;
          col = j;
        }
      }
      basic.push_back(col >= 0 ? col : form.logical_col(i));
    }
    BasisFactor probe(FactorKind::SparseLU);
    BasisFactor dense(FactorKind::DenseInverse);
    if (probe.factorize(form, basic, 1e-9) &&
        dense.factorize(form, basic, 1e-9)) {
      return basic;
    }
  }
  std::vector<int> logicals;
  for (int i = 0; i < m; ++i) logicals.push_back(form.logical_col(i));
  return logicals;
}

void expect_vec_near(const std::vector<double>& got,
                     const std::vector<double>& want, double tol,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << what << " index " << i;
  }
}

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("METAOPT_FUZZ_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 20261019;
}

double signed_uniform(util::Rng& rng, double lo, double hi) {
  const double v = rng.uniform(lo, hi);
  return rng.bernoulli(0.5) ? v : -v;
}

/// A square BoundedForm whose structural columns are exactly `cols`
/// (each a list of (row, value) with distinct rows). Only the fields
/// BasisFactor reads are filled.
BoundedForm square_form(
    const std::vector<std::vector<std::pair<int, double>>>& cols) {
  BoundedForm form;
  form.num_structs = static_cast<int>(cols.size());
  form.num_rows = static_cast<int>(cols.size());
  form.col_start.push_back(0);
  for (const auto& col : cols) {
    for (const auto& [row, val] : col) {
      form.col_row.push_back(row);
      form.col_val.push_back(val);
    }
    form.col_start.push_back(static_cast<int>(form.col_row.size()));
  }
  return form;
}

/// Random sparse basis: a strong entry per column on a permuted
/// diagonal plus at most three weak off-diagonal entries. Columns are
/// diagonally dominant (off-diagonal sum <= 0.9 < 1), so the matrix is
/// well conditioned but the elimination order and the fill are
/// arbitrary.
std::vector<std::vector<std::pair<int, double>>> random_sparse_columns(
    util::Rng& rng, int m) {
  std::vector<int> diag(m);
  for (int i = 0; i < m; ++i) diag[i] = i;
  rng.shuffle(diag);
  std::vector<std::vector<std::pair<int, double>>> cols(m);
  for (int j = 0; j < m; ++j) {
    std::vector<bool> used(m, false);
    cols[j].push_back({diag[j], signed_uniform(rng, 1.0, 2.0)});
    used[diag[j]] = true;
    const int extra = rng.uniform_int(0, std::min(3, m - 1));
    for (int e = 0; e < extra; ++e) {
      const int row = rng.uniform_int(0, m - 1);
      if (used[row]) continue;
      used[row] = true;
      cols[j].push_back({row, signed_uniform(rng, 0.05, 0.3)});
    }
  }
  return cols;
}

/// Fill-chain basis: a lower band (column j holds rows j..j+w) closed by
/// a spike column on row 0, the last row and w rows near the top. The
/// spike has the most nonzeros, so it eliminates last, after the band
/// has pivoted (mostly row j at step j, L column j holding rows below
/// j). Eliminating the spike starts from the few steps its rows seed,
/// and each L column it applies creates fill in rows pivoted at later
/// steps that the spike never touched: the reach must follow that fill,
/// in ascending step order, for U and the last pivot to come out right.
std::vector<std::vector<std::pair<int, double>>> fill_chain_columns(
    util::Rng& rng, int m, int w) {
  std::vector<std::vector<std::pair<int, double>>> cols(m);
  for (int j = 0; j + 1 < m; ++j) {
    cols[j].push_back({j, signed_uniform(rng, 1.0, 2.0)});
    for (int r = j + 1; r <= std::min(j + w, m - 1); ++r) {
      cols[j].push_back({r, signed_uniform(rng, 0.3, 0.9) / w});
    }
  }
  std::vector<bool> used(m, false);
  auto& spike = cols[m - 1];
  spike.push_back({0, signed_uniform(rng, 1.0, 2.0)});
  spike.push_back({m - 1, signed_uniform(rng, 1.0, 2.0)});
  used[0] = used[m - 1] = true;
  const int top = std::min(m - 2, w + 3);
  for (int tries = 0; tries < 20 && static_cast<int>(spike.size()) < w + 2;
       ++tries) {
    const int row = rng.uniform_int(1, std::max(1, top));
    if (used[row]) continue;
    used[row] = true;
    spike.push_back({row, signed_uniform(rng, 0.5, 1.0)});
  }
  return cols;
}

/// Agreement to 1e-9 relative to the magnitude (absolute below 1).
void expect_vec_close(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9 * std::max(1.0, std::abs(want[i])))
        << what << " index " << i;
  }
}

void expect_solves_match_dense(const BoundedForm& form,
                               const std::vector<int>& basic, util::Rng& rng) {
  BasisFactor sparse(FactorKind::SparseLU);
  BasisFactor dense(FactorKind::DenseInverse);
  if (!dense.factorize(form, basic, 1e-9)) return;  // singular draw
  ASSERT_TRUE(sparse.factorize(form, basic, 1e-9));
  const int m = form.num_rows;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<double> x(m);
    for (double& v : x) v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-3.0, 3.0);
    std::vector<double> xs = x, xd = x;
    sparse.ftran(xs);
    dense.ftran(xd);
    expect_vec_close(xs, xd, "ftran");
    for (double& v : x) v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-3.0, 3.0);
    std::vector<double> ys = x, yd = x;
    sparse.btran(ys);
    dense.btran(yd);
    expect_vec_close(ys, yd, "btran");
  }
}

TEST(BasisFactor, SparseAndDenseSolveIdentically) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = rng.uniform_int(2, 8);
    const int m = rng.uniform_int(1, 8);
    const Model model = make_model(rng, n, m);
    const BoundedForm form = BoundedForm::build(model);
    const std::vector<int> basic = pick_basis(form, rng);

    BasisFactor sparse(FactorKind::SparseLU);
    BasisFactor dense(FactorKind::DenseInverse);
    ASSERT_TRUE(sparse.factorize(form, basic, 1e-9));
    ASSERT_TRUE(dense.factorize(form, basic, 1e-9));
    EXPECT_EQ(sparse.kind(), FactorKind::SparseLU);
    EXPECT_EQ(dense.kind(), FactorKind::DenseInverse);

    std::vector<double> x(form.num_rows);
    for (double& v : x) v = rng.uniform(-5.0, 5.0);
    std::vector<double> xs = x, xd = x;
    sparse.ftran(xs);
    dense.ftran(xd);
    expect_vec_near(xs, xd, 1e-8, "ftran");

    for (double& v : x) v = rng.uniform(-5.0, 5.0);
    std::vector<double> ys = x, yd = x;
    sparse.btran(ys);
    dense.btran(yd);
    expect_vec_near(ys, yd, 1e-8, "btran");
  }
}

TEST(BasisFactor, SparseReachMatchesDenseInverse) {
  const std::uint64_t seed = fuzz_seed();
  SCOPED_TRACE("METAOPT_FUZZ_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool chain = trial % 2 == 1;
    const int m = rng.uniform_int(3, chain ? 40 : 60);
    const BoundedForm form =
        square_form(chain ? fill_chain_columns(rng, m, rng.uniform_int(1, 3))
                          : random_sparse_columns(rng, m));
    std::vector<int> basic(m);
    for (int p = 0; p < m; ++p) basic[p] = p;
    // Random bases also swap some columns for the logical of their
    // strong row (keeping the dominant diagonal) and shuffle the
    // positions; the chain keeps its band-first elimination order.
    if (!chain) {
      for (int p = 0; p < m; ++p) {
        const int strong_row = form.col_row[form.col_start[p]];
        if (rng.bernoulli(0.2)) basic[p] = form.logical_col(strong_row);
      }
      rng.shuffle(basic);
    }
    expect_solves_match_dense(form, basic, rng);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(BasisFactor, ReusedFactorMatchesAFreshOne) {
  // One BasisFactor refactorized over bases of different sizes must not
  // leak scratch state (reach heap, column counts) between calls.
  util::Rng rng(fuzz_seed() + 1);
  BasisFactor reused(FactorKind::SparseLU);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int m = rng.uniform_int(2, 30);
    const BoundedForm form = square_form(
        trial % 2 == 0 ? random_sparse_columns(rng, m)
                       : fill_chain_columns(rng, m, rng.uniform_int(1, 3)));
    std::vector<int> basic(m);
    for (int p = 0; p < m; ++p) basic[p] = p;
    BasisFactor fresh(FactorKind::SparseLU);
    const bool ok = fresh.factorize(form, basic, 1e-9);
    ASSERT_EQ(reused.factorize(form, basic, 1e-9), ok);
    if (!ok) continue;
    std::vector<double> x(m);
    for (double& v : x) v = rng.uniform(-3.0, 3.0);
    std::vector<double> xr = x, xf = x;
    reused.ftran(xr);
    fresh.ftran(xf);
    EXPECT_EQ(xr, xf);  // bit-identical
  }
}

TEST(BasisFactor, LuReachCountsOnlyTheStepsTheFillReaches) {
  // A bidiagonal chain closed by a spike on its first and last rows:
  // the band steps reach nothing, the spike reaches every band step
  // through fill alone. A scan of every earlier step would visit
  // m(m-1)/2 of them here; the reach visits m-1.
  util::Rng rng(5);
  const int m = 30;
  std::vector<std::vector<std::pair<int, double>>> cols(m);
  for (int j = 0; j + 1 < m; ++j) {
    cols[j] = {{j, signed_uniform(rng, 1.0, 2.0)},
               {j + 1, signed_uniform(rng, 0.3, 0.9)}};
  }
  cols[m - 1] = {{0, 1.5}, {m - 1, -1.25}};
  const BoundedForm form = square_form(cols);
  std::vector<int> basic(m);
  for (int p = 0; p < m; ++p) basic[p] = p;

  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  BasisFactor factor(FactorKind::SparseLU);
  ASSERT_TRUE(factor.factorize(form, basic, 1e-9));
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  EXPECT_EQ(metric(d, "simplex.lu_reach"), m - 1);
  expect_solves_match_dense(form, basic, rng);
}

TEST(BasisFactor, EtaUpdatesTrackDenseInverse) {
  util::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int n = rng.uniform_int(3, 8);
    const int m = rng.uniform_int(2, 8);
    const Model model = make_model(rng, n, m);
    const BoundedForm form = BoundedForm::build(model);
    const std::vector<int> basic = pick_basis(form, rng);

    BasisFactor sparse(FactorKind::SparseLU);
    BasisFactor dense(FactorKind::DenseInverse);
    ASSERT_TRUE(sparse.factorize(form, basic, 1e-9));
    ASSERT_TRUE(dense.factorize(form, basic, 1e-9));

    // Apply the same product-form updates to both: B <- B * E with a
    // well-conditioned random column. The represented operator stays
    // identical whatever each backend does internally.
    const int updates = rng.uniform_int(1, 5);
    for (int u = 0; u < updates; ++u) {
      const int r = rng.uniform_int(0, m - 1);
      std::vector<double> w(m);
      for (double& v : w) {
        v = rng.bernoulli(0.5) ? rng.uniform(-2.0, 2.0) : 0.0;
      }
      w[r] = rng.uniform(1.0, 3.0);  // safely away from the pivot tol
      ASSERT_TRUE(sparse.update(r, w, 1e-9));
      ASSERT_TRUE(dense.update(r, w, 1e-9));
    }
    EXPECT_EQ(sparse.pivots_since_factor(), updates);
    EXPECT_EQ(sparse.eta_count(), updates);

    std::vector<double> x(m);
    for (double& v : x) v = rng.uniform(-5.0, 5.0);
    std::vector<double> xs = x, xd = x;
    sparse.ftran(xs);
    dense.ftran(xd);
    expect_vec_near(xs, xd, 1e-7, "ftran after updates");

    for (double& v : x) v = rng.uniform(-5.0, 5.0);
    std::vector<double> ys = x, yd = x;
    sparse.btran(ys);
    dense.btran(yd);
    expect_vec_near(ys, yd, 1e-7, "btran after updates");
  }
}

TEST(BasisFactor, ResidualAccuracyOnFactorizedBasis) {
  // B * ftran(e_i) must reproduce column i of the basis matrix: feed
  // unit vectors through and check the row residual against the CSC
  // columns directly. This is the factor-level version of the solver's
  // terminal accuracy check.
  util::Rng rng(23);
  const Model model = make_model(rng, 6, 6);
  const BoundedForm form = BoundedForm::build(model);
  const std::vector<int> basic = pick_basis(form, rng);
  const int m = form.num_rows;

  BasisFactor factor(FactorKind::SparseLU);
  ASSERT_TRUE(factor.factorize(form, basic, 1e-9));

  for (int i = 0; i < m; ++i) {
    std::vector<double> e(m, 0.0);
    e[i] = 1.0;
    factor.ftran(e);  // e := B^{-1} e_i, basis-position indexed
    // Reassemble B * e and compare with e_i.
    std::vector<double> be(m, 0.0);
    for (int p = 0; p < m; ++p) {
      const int col = basic[p];
      if (col < form.num_structs) {
        for (int t = form.col_start[col]; t < form.col_start[col + 1]; ++t) {
          be[form.col_row[t]] += form.col_val[t] * e[p];
        }
      } else {
        // Logical and artificial columns are +e_row.
        const int row = col < form.num_structs + form.num_rows
                            ? col - form.num_structs
                            : col - form.num_structs - form.num_rows;
        be[row] += e[p];
      }
    }
    for (int r = 0; r < m; ++r) {
      EXPECT_NEAR(be[r], r == i ? 1.0 : 0.0, 1e-9)
          << "column " << i << " row " << r;
    }
  }
}

TEST(BasisFactor, FillInTriggersRefactorizeBeforePivotInterval) {
  obs::set_enabled(true);
  util::Rng rng(31);
  const Model model = make_model(rng, 8, 8);
  const BoundedForm form = BoundedForm::build(model);
  const int m = form.num_rows;
  std::vector<int> basic;
  for (int i = 0; i < m; ++i) basic.push_back(form.logical_col(i));

  BasisFactor factor(FactorKind::SparseLU);
  const obs::MetricsSnapshot before = obs::snapshot();
  ASSERT_TRUE(factor.factorize(form, basic, 1e-9));
  EXPECT_FALSE(factor.fillin_triggered());
  EXPECT_FALSE(factor.needs_refactor());

  // Dense etas blow past kEtaFillFactor * (lu_nnz + m) long before the
  // kRefactorInterval pivot backstop.
  int applied = 0;
  while (!factor.fillin_triggered()) {
    ASSERT_LT(applied, lp::kRefactorInterval / 2)
        << "fill-in trigger never fired";
    std::vector<double> w(m);
    for (double& v : w) v = rng.uniform(0.5, 2.0);  // fully dense eta
    ASSERT_TRUE(factor.update(applied % m, w, 1e-9));
    ++applied;
  }
  EXPECT_LT(factor.pivots_since_factor(), lp::kRefactorInterval);
  EXPECT_TRUE(factor.needs_refactor());
  EXPECT_GT(factor.fillin_ratio(), lp::kEtaFillFactor);

  // Refactorizing clears the trigger and counts it in obs.
  ASSERT_TRUE(factor.factorize(form, basic, 1e-9));
  EXPECT_FALSE(factor.fillin_triggered());
  EXPECT_FALSE(factor.needs_refactor());
  EXPECT_EQ(factor.pivots_since_factor(), 0);
  EXPECT_EQ(factor.eta_count(), 0);

  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  EXPECT_EQ(metric(d, "simplex.refactor_fillin_triggers"), 1.0);
  EXPECT_EQ(metric(d, "simplex.eta_count"), applied);
}

TEST(BasisFactor, WarmSolveFactorCacheKeyStaysInSync) {
  // Regression for the PR 4 stale-key class: after a warm solve whose
  // pivots mutate the cached factorization, a re-solve from the same
  // hint must NOT reuse the factor (the pristine gate), and repeated
  // re-solves must be bit-identical. The obs counters separate the two
  // mechanisms: cache hits only on genuinely pristine re-use,
  // refactorizations otherwise.
  obs::set_enabled(true);
  util::Rng rng(43);
  const Model model = make_model(rng, 6, 5);
  std::vector<double> lb(model.num_vars()), ub(model.num_vars());
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
  }
  lp::SimplexOptions opt;
  opt.certify = false;

  lp::WarmStartContext ctx(model);
  const lp::SimplexSolver solver(opt);
  const lp::Solution root = solver.solve_with_bounds(model, lb, ub, ctx);
  ASSERT_EQ(root.status, lp::SolveStatus::Optimal);
  const std::shared_ptr<const lp::Basis> basis = ctx.take_result();
  ASSERT_NE(basis, nullptr);

  // A child whose warm solve pivots (tighten a bound through the
  // optimal point), then the SAME child again. Pivots from the first
  // solve dirty the factor, so the second must refactorize, not hit.
  std::vector<double> clb = lb, cub = ub;
  int tightened = -1;
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    if (root.values[v] > lb[v] + 0.5 && std::isfinite(root.values[v])) {
      cub[v] = root.values[v] - 0.25;
      tightened = static_cast<int>(v);
      break;
    }
  }
  ASSERT_GE(tightened, 0) << "family regressed: no tightenable variable";

  std::vector<double> objectives;
  std::vector<double> hits, refactors;
  for (int round = 0; round < 4; ++round) {
    const obs::MetricsSnapshot before = obs::snapshot();
    ctx.hint = basis.get();
    const lp::Solution child = solver.solve_with_bounds(model, clb, cub, ctx);
    const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
    ASSERT_TRUE(child.status == lp::SolveStatus::Optimal ||
                child.status == lp::SolveStatus::Infeasible);
    // The revised core must answer; a tableau fallback would make the
    // counter assertions below vacuous.
    ASSERT_NE(ctx.last_path, lp::WarmStartContext::Path::Tableau);
    objectives.push_back(child.status == lp::SolveStatus::Optimal
                             ? child.objective
                             : -1.0);
    hits.push_back(metric(d, "simplex.factor_cache_hits"));
    refactors.push_back(metric(d, "simplex.refactorizations"));
  }
  obs::set_enabled(false);

  // Bit-identical answers across rounds — the cache must never change
  // the result, whether it hit or not.
  for (std::size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_EQ(objectives[i], objectives[0]) << "round " << i;
  }
  // Every round after the first starts from a dirtied factor: if any
  // of them claimed a cache hit without refactorizing, the key went
  // stale. (A hit plus zero refactorizations would mean the engine
  // reused a factorization for the wrong basis.)
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] > 0.0) {
      EXPECT_GE(refactors[i] + hits[i], 1.0) << "round " << i;
    } else {
      EXPECT_GE(refactors[i], 1.0) << "round " << i;
    }
  }
}

}  // namespace
}  // namespace metaopt
