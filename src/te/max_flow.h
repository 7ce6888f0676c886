// FeasibleFlow (Eq. 2) and OptMaxFlow (Eq. 3).
//
// The formulation is expressed once as an InnerProblem (demands may be
// constants or outer variables) and consumed two ways: materialized and
// solved directly (ground truth / black-box oracle / primal heuristic),
// or passed through emit_kkt for the single-shot metaoptimization.
//
// We eliminate the aggregate f_k variables by substitution
// (f_k = sum_p f_k^p), so the volume row reads sum_p f_k^p <= d_k. This
// halves the KKT complementarity count without changing the polytope.
//
// Dual bounds: with unit objective coefficients the max-flow dual always
// admits an optimal point with capacity/volume multipliers <= 1 (any
// component > 1 can be clamped: it alone already covers every dual
// constraint it appears in), and bound-row multipliers <= max path hops
// + 1 by stationarity. These bounds keep the branch-and-bound relaxation
// tight; they are configurable for paranoia sweeps.
//
// Direct solves (solve_max_flow) leave out every pair whose volume is
// exactly 0.0: it gets no flow variables and no volume row, and an edge
// gets a capacity row only if a remaining pair routes over it. This is
// exact. Primal: the pair's own volume row forces its flows to 0, so the
// reduced optimum extended by zero flows is feasible for the full LP with
// the same objective. Dual: setting the pair's volume-row multiplier to 1
// covers each of its path columns (unit objective, nonnegative capacity
// multipliers) and adds 0 * 1 to the dual objective. So both LPs have the
// same optimal value, and a certificate of the reduced LP extends to the
// full one. The reduced tableau takes a different pivot path, though: the
// total can differ from the full LP's in its last bits (up to ~1e-11
// absolute, ~1e-15 relative, on B4 and Abilene), and where OPT has
// alternative optima the returned path flows may be another optimal
// routing. build_max_flow, which the
// single-shot encodings use, keeps every included pair.
#pragma once

#include <string>
#include <vector>

#include "kkt/inner_problem.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "te/path_set.h"

namespace metaopt::te {

struct MaxFlowOptions {
  /// Capacities are multiplied by this factor (POP gives each of c
  /// partitions a 1/c share, Eq. 6).
  double capacity_scale = 1.0;
  /// Optional demand mask: pairs with include[k] == false get no flow
  /// variables (POP partitions, Eq. 6).
  const std::vector<bool>* include = nullptr;
  /// Optional per-edge capacity override (residual capacities in the
  /// procedural DP solver). Size must equal topo.num_edges().
  const std::vector<double>* capacity_override = nullptr;
  /// Multiplier applied to the analytic dual bounds; <= 0 disables dual
  /// bounds entirely (sound but slow).
  double dual_bound_scale = 1.0;
  /// Certify the direct solve (check::certify_lp) and record the verdict
  /// in MaxFlowResult::certified. Defaults to the solver-wide policy
  /// (on in Debug, opt-in in Release); explain probes force it on.
  bool certify = lp::kCertifyByDefault;
};

/// The flow variables and inner problem of one OptMaxFlow instance.
struct FlowEncoding {
  /// path_flow[k][p] is f_k^p; pairs that are masked out or have no
  /// paths get an empty vector.
  std::vector<std::vector<lp::Var>> path_flow;
  /// sum of all flow variables — the inner objective (total carried
  /// demand).
  lp::LinExpr total_flow;
  kkt::InnerProblem inner;

  FlowEncoding() : inner(lp::ObjSense::Maximize) {}
};

/// Adds OptMaxFlow's variables to `model` and returns its encoding.
/// `demand[k]` is d_k as a linear expression (a constant for direct
/// solves, an outer variable for adversarial search); its size must
/// equal paths.num_pairs().
FlowEncoding build_max_flow(lp::Model& model, const net::Topology& topo,
                            const PathSet& paths,
                            const std::vector<lp::LinExpr>& demand,
                            const std::string& prefix,
                            const MaxFlowOptions& options = {});

/// Result of a direct OptMaxFlow solve.
struct MaxFlowResult {
  lp::SolveStatus status = lp::SolveStatus::Error;
  double total_flow = 0.0;
  /// flow[k][p] aligned with the path set (empty for masked pairs; all
  /// zeros for zero-volume pairs).
  std::vector<std::vector<double>> path_flow;
  /// True when the solve ran with certification and passed.
  bool certified = false;
};

/// Per-edge load of a path-flow solution (size topo.num_edges()).
std::vector<double> edge_loads(const net::Topology& topo, const PathSet& paths,
                               const std::vector<std::vector<double>>& flow);

/// Solves OptMaxFlow directly for concrete demand volumes, over only the
/// included pairs with nonzero volume (see the top of this header). A
/// negative volume stays in the LP and makes it infeasible. Throws
/// std::invalid_argument when volumes.size() != paths.num_pairs().
MaxFlowResult solve_max_flow(const net::Topology& topo, const PathSet& paths,
                             const std::vector<double>& volumes,
                             const MaxFlowOptions& options = {});

}  // namespace metaopt::te
