#include "core/gap_bound.h"

namespace metaopt::core {

namespace {

GapBoundResult finish(TeBilevel& te, lp::LinExpr opt, lp::LinExpr heur,
                      const AdversarialOptions& options) {
  te.constrain(std::move(opt), std::move(heur));
  GapBoundResult result;
  result.stats = te.problem.model.stats();
  const lp::Solution sol =
      mip::BranchAndBound(options.mip).solve(te.problem.model);
  result.status = sol.status;
  // best_bound is the proven bound even when stopped early; for proven
  // Optimal it equals the objective.
  result.upper_bound =
      sol.status == lp::SolveStatus::Optimal ? sol.objective : sol.best_bound;
  result.normalized_upper_bound = result.upper_bound / te.problem.normalizer;
  result.certified = sol.certified;
  result.seconds = te.problem.watch.seconds();
  return result;
}

}  // namespace

GapBoundResult GapBounder::bound_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  TeBilevel te(topo_, paths_, options, Rewrite::PrimalDual);
  te::DpConfig dp = config;
  lp::LinExpr opt = te.add_opt();
  lp::LinExpr heur = te.add_dp(dp);
  return finish(te, std::move(opt), std::move(heur), options);
}

GapBoundResult GapBounder::bound_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  TeBilevel te(topo_, paths_, options, Rewrite::PrimalDual);
  lp::LinExpr opt = te.add_opt();
  lp::LinExpr heur = te.add_pop(config, seeds);
  return finish(te, std::move(opt), std::move(heur), options);
}

}  // namespace metaopt::core
