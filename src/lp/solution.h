// Solve results returned by the simplex and branch-and-bound solvers.
#pragma once

#include <vector>

#include "lp/types.h"

namespace metaopt::lp {

/// Result of an LP or MIP solve. `values` is indexed by VarId of the
/// solved Model. For LP solves, `duals` (indexed by ConId) and
/// `reduced_costs` (indexed by VarId) are populated when the solve is
/// Optimal. Sign convention (verified empirically; see check/certify.h):
/// duals are multipliers of the internally *minimized* problem with
/// every row canonicalized as g(x) <= 0, i.e. the Lagrangian is
///   s*c'x + sum_i y_i g_i(x),  s = +1 Minimize / -1 Maximize,
/// with g_i = a_i'x - b_i for LessEqual and b_i - a_i'x for GreaterEqual
/// rows — so inequality duals are >= 0 for BOTH senses, regardless of
/// objective sense. Equality duals are free and enter stationarity with
/// dg/dx = -a_i.
struct Solution {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  std::vector<double> values;
  std::vector<double> duals;
  std::vector<double> reduced_costs;

  /// Iterations used (LP) or nodes explored (MIP).
  long iterations = 0;

  /// Best proven bound on the objective (MIP); equals objective for
  /// proven-optimal solves.
  double best_bound = 0.0;

  /// Wall-clock seconds spent inside the solver.
  double solve_seconds = 0.0;

  /// True when the solve was independently certified (check::certify_lp /
  /// certify_mip) and passed; false when certification ran and failed OR
  /// was never requested. Only meaningful when the solver ran with
  /// certification enabled (SimplexOptions::certify / MipOptions::certify).
  bool certified = false;

  [[nodiscard]] bool has_solution() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible ||
           status == SolveStatus::IterationLimit ||
           status == SolveStatus::TimeLimit;
  }
};

}  // namespace metaopt::lp
