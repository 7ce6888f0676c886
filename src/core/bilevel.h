// One bilevel find driver for every heuristic family (Eq. 1).
//
// The paper's method is one rewrite: the leader picks an input x, each
// follower (OPT, the heuristic's LPs) is replaced by its optimality
// system, and "OPT(x) - Heuristic(x)" becomes one single-shot MIP. A
// family declares the game as a BilevelProblem (leader variables plus
// followers, each rewritten right after its encoding) and supplies
// BilevelHooks for what differs between families. solve_bilevel() owns
// the rest: seed search, candidate assembly (lift, then a parametric
// re-solve and KKT-point assembly per follower), the branch-and-bound
// callbacks, the budget and the solve.
//
// Byte-identity invariant: variable and row order is the order of the
// add_leader/add_follower calls, candidates are tried raw first and then
// in roundings() order, and a later candidate replaces an earlier one
// only when strictly better. Changing any of these changes the search.
//
// The primal heuristic memoizes assembly per find, keyed by the exact
// bits of the leader vector's in-support slots before lift. A repeat
// competes with its remembered objective. If the winner was already
// offered to the B&B, the heuristic returns nothing (the B&B would
// reject it again: incumbents only rise and its feasibility screen is
// deterministic); a winner never offered is assembled again and
// offered. Seed trials bypass the memo, since a seed is offered only
// when its objective is positive. So the serial incumbent sequence and
// node count are those of assembling every candidate afresh.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "heur/gap.h"
#include "heur/instance.h"
#include "kkt/inner_problem.h"
#include "kkt/kkt_rewriter.h"
#include "lp/model.h"
#include "mip/branch_and_bound.h"
#include "util/stopwatch.h"

namespace metaopt::core {

/// How a follower's optimality enters the single-shot model.
enum class Rewrite {
  Kkt,          ///< §3.1 KKT system: finds with verified incumbents
  PrimalDual,   ///< §5 strong duality + McCormick: certified upper bounds
  Materialize,  ///< the follower's plain constraints: Fig. 6 accounting
};

/// A follower's inner problem and its KKT artifacts (Rewrite::Kkt only).
struct Follower {
  kkt::InnerProblem inner;
  kkt::KktArtifacts kkt;
};

/// The leader and its followers in one model.
struct BilevelProblem {
  BilevelProblem(Rewrite rewrite, double ub) : rewrite(rewrite), ub(ub) {}

  /// Appends a leader slot: a variable in [0, ub] when `in`, otherwise
  /// a masked-out slot fixed at zero (invalid Var).
  void add_leader(bool in, const std::string& name);
  /// Moves `inner` in as a follower and emits its rewrite now, so the
  /// model keeps encoding order. Returns the follower's optimum over
  /// outer variables (empty for Materialize).
  lp::LinExpr add_follower(kkt::InnerProblem inner, const std::string& prefix);
  /// Objective: maximize opt - heur when the followers maximize (flow),
  /// heur - opt when they minimize (bins).
  void set_gap(lp::LinExpr opt, lp::LinExpr heur, lp::ObjSense sense);

  Rewrite rewrite;
  double ub;
  /// Trace times and the B&B budget count from construction.
  util::Stopwatch watch;
  lp::Model model;
  std::vector<lp::Var> leader;  ///< invalid for masked-out slots
  std::vector<bool> include;    ///< leader[k].valid()
  std::vector<Follower> followers;
  lp::LinExpr opt_value;    ///< set by set_gap
  lp::LinExpr heur_value;   ///< set by set_gap
  double normalizer = 1.0;  ///< normalized_gap denominator
};

/// Family-specific pieces of a find. Every hook is optional.
struct BilevelHooks {
  using Vec = std::vector<double>;

  /// Snap/lift: moves leader vector x onto the encodable set (dead
  /// bands, canonical order) and fills the non-follower part of its
  /// assignment (indicators, constraint auxiliaries); false rejects x.
  /// The driver writes x's leader values afterwards.
  std::function<bool(Vec& x, Vec& assign)> lift;
  /// Completes an assignment after every follower is assembled.
  std::function<void(Vec& assign)> finish;
  /// Variants of a relaxation's leader vector, tried after the raw one
  /// (§5: worst gaps sit at extreme points).
  std::function<std::vector<Vec>(const Vec& raw)> roundings;

  /// Seed search: a quantized climb over `levels` on `oracle` for
  /// `quantized_share` of the seed budget, then a hill-climb polish.
  const heur::GapOracle* oracle = nullptr;
  Vec levels;
  double quantized_share = 0.5;
  /// Deterministic seed inputs, used even without a seed budget.
  std::vector<Vec> fixed_trials;

  /// Exact re-score for surrogate objectives. `result` arrives filled
  /// from the B&B incumbent; `trials` are the fixed trials plus both
  /// seed-search results. Without a rescore only the better seed-search
  /// result is a trial, and only when its gap is positive.
  std::function<void(const std::vector<Vec>& trials,
                     heur::GapFindResult& result)>
      rescore;
};

/// Each entry moved to the nearest of `levels`; ties keep the earlier.
std::vector<double> snap_to_levels(std::vector<double> x,
                                   const std::vector<double>& levels);
/// Each entry moved to ub when >= cutoff * ub, else to 0.
std::vector<double> round_to_box(std::vector<double> x, double cutoff,
                                 double ub);

/// Runs a find: seeds, branch-and-bound with the primal heuristic,
/// finalize. `mip.time_limit_seconds` is the caller's whole budget; the
/// B&B gets what is left of it since problem.watch started.
heur::GapFindResult solve_bilevel(const BilevelProblem& problem,
                                  const BilevelHooks& hooks,
                                  mip::MipOptions mip,
                                  double seed_search_seconds,
                                  bool use_primal_heuristic = true);

}  // namespace metaopt::core
