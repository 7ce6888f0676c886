// Branch-and-bound over the discrete structure the paper's single-shot
// rewrite produces: binary variables (big-M conditionals of DP / POP
// client splitting) and complementarity pairs (the KKT multiplicative
// constraints that Gurobi models as SOS1 — §3.1).
//
// The search is best-bound first. Relaxations are solved by the dense
// simplex with the node's tightened variable bounds; fixing a
// complementarity side to zero substitutes the column away entirely, so
// deep nodes solve strictly smaller LPs.
//
// With MipOptions::threads > 1 the same search runs as a worker pool
// over one shared best-bound queue: per-worker simplex engines, a
// CAS-claimed atomic incumbent, and an in-flight counter that separates
// "queue momentarily empty" from "tree exhausted". See DESIGN.md
// ("Parallel tree search") for the full protocol and the determinism
// contract.
//
// Two paper-specific facilities:
//  * a primal-heuristic callback, used by the metaopt layer to turn every
//    node relaxation into a *genuine* adversarial input by re-evaluating
//    the true gap with direct solves — so every incumbent is valid even
//    when the relaxation bound is loose;
//  * the §3.3 stopping rules — stop when the incumbent has improved by
//    less than `progress_min_improvement` within `progress_window_seconds`
//    (Gurobi-style incremental-progress timeout), or as soon as a target
//    objective is reached (Z3-style binary sweep).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solution.h"

namespace metaopt::mip {

struct MipOptions {
  double time_limit_seconds = 60.0;
  long max_nodes = 100000000;
  double rel_gap = tol::kRelGap;     ///< relative incumbent/bound gap to stop
  double abs_gap = tol::kAbsGap;     ///< absolute gap to stop
  double int_tol = tol::kIntTol;     ///< integrality tolerance for binaries
  double compl_tol = tol::kComplTol; ///< complementarity product tolerance
  /// Stop if the incumbent improved by less than progress_min_improvement
  /// (relative) during the last progress_window_seconds (§3.3).
  double progress_window_seconds = 1e30;
  double progress_min_improvement = 0.005;
  /// Stop as soon as the incumbent is at least this good (binary-sweep
  /// gap search, §3.3). "At least as good" honors the objective sense.
  std::optional<double> target_objective;
  /// Run bound-propagation presolve at every node: prunes provably
  /// infeasible nodes without an LP solve and shrinks node LPs by fixing
  /// variables (big-M indicator rows propagate well).
  bool use_presolve = true;
  /// Warm-start node relaxations: each child re-solves from its parent's
  /// optimal basis via the revised dual simplex instead of a cold
  /// tableau solve (falls back automatically per node when a basis is
  /// stale or numerically unusable). Off forces every node cold —
  /// identical answers, useful for differential tests and benchmarks.
  bool use_warm_start = true;
  /// Basis factorization backend for the per-worker revised simplex
  /// engines. Sparse LU is the production default; the dense explicit
  /// inverse is kept as the differential baseline for tests and the
  /// dense-vs-sparse node-throughput benchmark.
  lp::FactorKind lp_factor = lp::FactorKind::SparseLU;
  /// Lint the model before the search and run check::certify_mip on the
  /// final incumbent, recording the outcome in Solution::certified
  /// (failures are logged at Error level). On by default in Debug
  /// builds, opt-in for Release.
  bool certify = lp::kCertifyByDefault;
  /// Worker threads exploring the tree (CLI: --mip-threads). 1 (the
  /// default) runs the classic serial search on the calling thread; N>1
  /// runs N workers over a shared best-bound queue, each with its own
  /// simplex engine. Answers are thread-count-invariant for trees solved
  /// to proven optimality: every node LP is a pure function of (node
  /// box, hint basis), so the tree — and the certified optimal objective
  /// — is bit-identical for any N; only exploration order, node counts
  /// and early-stop paths may differ. Helpers come from the shared
  /// scheduler, so a B&B inside a sweep job never oversubscribes.
  int threads = 1;
  lp::SimplexOptions lp;
};

struct MipCallbacks {
  /// Primal heuristic: given node-relaxation values (model var space),
  /// return a feasible assignment and its objective, or nullopt. The
  /// returned assignment is trusted to be feasible for the *original*
  /// problem semantics (the metaopt layer constructs it from direct
  /// solves); it is still screened by Model::max_violation when
  /// `verify_heuristic` is true. With MipOptions::threads > 1 this is
  /// called concurrently from worker threads — it must be reentrant
  /// (the metaopt layer's is: it builds local solves and shares only a
  /// mutex-guarded assembly memo).
  std::function<std::optional<std::pair<double, std::vector<double>>>(
      const std::vector<double>&)>
      primal_heuristic;
  /// Invoked on every accepted incumbent: (objective, seconds, values).
  /// Serialized under the incumbent lock even when threads > 1, so it
  /// may mutate caller state without extra locking.
  std::function<void(double, double, const std::vector<double>&)> on_incumbent;
  /// Feasible starting solutions (objective, values) accepted before the
  /// search starts — e.g. seeds from a cheap black-box pass. Screened
  /// like heuristic solutions when `verify_heuristic` is set.
  std::vector<std::pair<double, std::vector<double>>> initial_incumbents;
  /// When true (default), heuristic solutions are checked against the
  /// model before acceptance.
  bool verify_heuristic = true;
};

class BranchAndBound {
 public:
  explicit BranchAndBound(MipOptions options = {}) : options_(options) {}

  /// Solves `model` (linear objective; binaries and complementarity pairs
  /// enforced). Returns the best incumbent with `best_bound` set to the
  /// proven bound. Status: Optimal (gap closed), Feasible (stopped early
  /// with an incumbent), Infeasible, Unbounded, or TimeLimit (stopped
  /// early, no incumbent).
  [[nodiscard]] lp::Solution solve(const lp::Model& model,
                                   const MipCallbacks& callbacks = {}) const;

  [[nodiscard]] const MipOptions& options() const { return options_; }

 private:
  MipOptions options_;
};

}  // namespace metaopt::mip
