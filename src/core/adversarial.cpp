#include "core/adversarial.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "te/gap.h"

namespace metaopt::core {

using lp::LinExpr;
using Vec = BilevelHooks::Vec;

TeBilevel::TeBilevel(const net::Topology& topo, const te::PathSet& paths,
                     const AdversarialOptions& options, Rewrite rewrite)
    : problem(rewrite, options.demand_ub > 0.0 ? options.demand_ub
                                               : topo.max_capacity()),
      topo_(topo),
      paths_(paths),
      options_(options) {
  const int n = paths.num_pairs();
  if (!options.pair_mask.empty() &&
      options.pair_mask.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("pair_mask size mismatch");
  }
  problem.normalizer = topo.total_capacity();
  for (int k = 0; k < n; ++k) {
    const bool in = !paths.paths(k).empty() &&
                    (options.pair_mask.empty() || options.pair_mask[k]);
    problem.add_leader(in, in ? "d[" + std::to_string(k) + "]" : "");
    demand_.push_back(in ? LinExpr(problem.leader[k]) : LinExpr(0.0));
  }
}

LinExpr TeBilevel::add_opt() {
  te::MaxFlowOptions opt_options;
  opt_options.include = &problem.include;
  te::FlowEncoding enc = te::build_max_flow(problem.model, topo_, paths_,
                                            demand_, "opt.", opt_options);
  return problem.add_follower(std::move(enc.inner), "opt.");
}

LinExpr TeBilevel::add_dp(te::DpConfig& config, te::DpEncoding* enc) {
  if (config.demand_ub <= 0.0) config.demand_ub = problem.ub;
  te::DpEncoding dp = te::build_demand_pinning(
      problem.model, topo_, paths_, problem.leader, config, "dp.",
      &problem.include);
  LinExpr value = problem.add_follower(std::move(dp.inner), "dp.");
  if (enc != nullptr) *enc = std::move(dp);
  return value;
}

LinExpr TeBilevel::add_pop(const te::PopConfig& config,
                               const std::vector<std::uint64_t>& seeds,
                               std::vector<te::PopEncoding>* encs) {
  // POP partitions demand pairs; pairs outside the adversarial support
  // simply carry zero demand, so the partition universe stays the full
  // pair set as in Eq. 6.
  LinExpr mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst_config = config;
    inst_config.seed = seeds[r];
    const std::string prefix = "pop" + std::to_string(r) + ".";
    te::PopEncoding enc = te::build_pop(problem.model, topo_, paths_, demand_,
                                        inst_config, prefix);
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      problem.add_follower(std::move(enc.partitions[part].inner),
                           prefix + std::to_string(part) + ".");
    }
    mean += (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
    if (encs != nullptr) encs->push_back(std::move(enc));
  }
  return mean;
}

LinExpr TeBilevel::add_pop_cs(const te::PopConfig& config,
                                  const te::ClientSplitConfig& cs_config,
                                  const std::vector<std::uint64_t>& seeds,
                                  std::vector<te::PopCsEncoding>* encs) {
  LinExpr mean;
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    te::PopConfig inst_config = config;
    inst_config.seed = seeds[r];
    const std::string prefix = "popcs" + std::to_string(r) + ".";
    te::PopCsEncoding enc = te::build_pop_cs(
        problem.model, topo_, paths_, problem.leader, problem.ub, inst_config,
        cs_config, prefix, &problem.include);
    for (std::size_t part = 0; part < enc.partitions.size(); ++part) {
      problem.add_follower(std::move(enc.partitions[part]),
                           prefix + std::to_string(part) + ".");
    }
    mean += (1.0 / static_cast<double>(seeds.size())) * enc.total_flow;
    if (encs != nullptr) encs->push_back(std::move(enc));
  }
  return mean;
}

void TeBilevel::constrain(LinExpr opt, LinExpr heur) {
  constraints_ = apply_input_constraints(problem.model, problem.leader,
                                         options_.constraints, problem.ub);
  problem.set_gap(std::move(opt), std::move(heur), lp::ObjSense::Maximize);
}

bool TeBilevel::complete(const std::vector<double>& x,
                         std::vector<double>& assign) const {
  return complete_constraint_assignment(problem.model, problem.leader,
                                        options_.constraints, constraints_, x,
                                        assign);
}

AdversarialResult TeBilevel::solve(const BilevelHooks& hooks) const {
  return solve_bilevel(problem, hooks, options_.mip,
                       options_.seed_search_seconds,
                       options_.use_primal_heuristic);
}

AdversarialResult AdversarialGapFinder::find_dp_gap(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  TeBilevel te(topo_, paths_, options, Rewrite::Kkt);
  te::DpConfig dp = config;
  te::DpEncoding enc;
  const LinExpr opt = te.add_opt();
  const LinExpr heur = te.add_dp(dp, &enc);
  te.constrain(opt, heur);
  const double ub = te.problem.ub;
  const te::DpGapOracle oracle(topo_, paths_, dp);

  BilevelHooks hooks;
  hooks.lift = [&](Vec& x, Vec& assign) {
    for (std::size_t k = 0; k < x.size(); ++k) {
      double& v = x[k];
      // Snap out of the indicator epsilon band (pin side).
      if (v > dp.threshold && v < dp.threshold + dp.epsilon) v = dp.threshold;
      if (enc.pin[k].valid()) {
        assign[enc.pin[k].id] = v <= dp.threshold ? 1.0 : 0.0;
      }
    }
    return te.complete(x, assign);
  };
  // Extremum rounding: each demand to the nearest of {0, T, ub},
  // preferring T on ties, then 0.
  hooks.roundings = [&](const Vec& raw) {
    return std::vector<Vec>{snap_to_levels(raw, {dp.threshold, 0.0, ub})};
  };
  hooks.oracle = &oracle;
  hooks.levels = {0.0, dp.threshold, ub};
  hooks.quantized_share = 0.6;
  return te.solve(hooks);
}

AdversarialResult AdversarialGapFinder::find_pop_gap(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options, const PopObjective& objective) const {
  if (seeds.empty()) return {};
  TeBilevel te(topo_, paths_, options, Rewrite::Kkt);
  std::vector<te::PopEncoding> encs;
  const LinExpr opt = te.add_opt();
  LinExpr heur = te.add_pop(config, seeds, &encs);

  // Heuristic descriptor: the empirical mean, or an order statistic
  // bubbled up by a sorting network over the per-instance totals (§3.2).
  SortingNetwork sort_net;
  const bool use_percentile =
      objective.kind == PopObjective::Kind::Percentile && encs.size() > 1;
  if (use_percentile) {
    std::vector<LinExpr> totals;
    for (const te::PopEncoding& enc : encs) totals.push_back(enc.total_flow);
    sort_net = encode_sorting_network(te.problem.model, totals,
                                      topo_.total_capacity(), "popsort.");
    const int index = static_cast<int>(std::lround(
        std::clamp(objective.percentile, 0.0, 1.0) *
        static_cast<double>(encs.size() - 1)));
    heur = LinExpr(sort_net.sorted[index]);
  }
  te.constrain(opt, heur);
  const double ub = te.problem.ub;
  const te::PopGapOracle oracle(topo_, paths_, config, seeds);

  BilevelHooks hooks;
  hooks.lift = [&](Vec& x, Vec& assign) { return te.complete(x, assign); };
  if (use_percentile) {
    hooks.finish = [&](Vec& assign) {
      std::vector<double> totals;
      for (const te::PopEncoding& enc : encs) {
        totals.push_back(te.problem.model.eval(enc.total_flow, assign));
      }
      complete_sorting_assignment(sort_net, totals, assign);
    };
  }
  // POP's bad inputs are saturating demands that strand per-partition
  // capacity, so snap to {0, ub} at several cutoffs (the relaxation
  // vertex is a noisy guide).
  hooks.roundings = [ub](const Vec& raw) {
    std::vector<Vec> out;
    for (const double cutoff : {0.25, 0.5, 0.75}) {
      out.push_back(round_to_box(raw, cutoff, ub));
    }
    return out;
  };
  hooks.oracle = &oracle;
  hooks.levels = {0.0, ub / config.num_partitions, ub};
  return te.solve(hooks);
}

AdversarialResult AdversarialGapFinder::find_pop_cs_gap(
    const te::PopConfig& config, const te::ClientSplitConfig& cs_config,
    const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  if (seeds.empty()) return {};
  TeBilevel te(topo_, paths_, options, Rewrite::Kkt);
  std::vector<te::PopCsEncoding> encs;
  const LinExpr opt = te.add_opt();
  const LinExpr heur = te.add_pop_cs(config, cs_config, seeds, &encs);
  te.constrain(opt, heur);
  const double ub = te.problem.ub;
  const te::PopCsGapOracle oracle(topo_, paths_, config, cs_config, seeds);

  BilevelHooks hooks;
  hooks.lift = [&](Vec& x, Vec& assign) {
    // Snap a volume out of the dead epsilon bands below each level
    // boundary 2^l * T (the hi indicator row excludes (B - eps, B)).
    for (double& v : x) {
      for (int level = 0; level < cs_config.max_splits; ++level) {
        const double boundary = std::ldexp(cs_config.split_threshold, level);
        if (v > boundary - cs_config.epsilon && v < boundary) {
          v = boundary;
          break;
        }
      }
    }
    if (!te.complete(x, assign)) return false;
    // Level indicators are a deterministic function of the demand.
    for (const te::PopCsEncoding& enc : encs) {
      for (std::size_t k = 0; k < enc.level_ind.size(); ++k) {
        const std::vector<lp::Var>& levels = enc.level_ind[k];
        if (levels.empty()) continue;
        const int level = te::split_level(x[k], cs_config);
        for (std::size_t l = 0; l < levels.size(); ++l) {
          assign[levels[l].id] = static_cast<int>(l) == level ? 1.0 : 0.0;
        }
      }
    }
    return true;
  };
  hooks.roundings = [ub](const Vec& raw) {
    return std::vector<Vec>{round_to_box(raw, 0.5, ub)};
  };
  hooks.oracle = &oracle;
  hooks.levels = {0.0, cs_config.split_threshold, ub / config.num_partitions,
                  ub};
  return te.solve(hooks);
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::dp_problem_sizes(
    const te::DpConfig& config, const AdversarialOptions& options) const {
  // Followers only: no input constraints, no objective.
  auto stats = [&](Rewrite rewrite, bool opt, bool dp) {
    TeBilevel te(topo_, paths_, options, rewrite);
    te::DpConfig c = config;
    if (opt) te.add_opt();
    if (dp) te.add_dp(c);
    return te.problem.model.stats();
  };
  return {stats(Rewrite::Kkt, true, true),
          stats(Rewrite::Materialize, false, true),
          stats(Rewrite::Materialize, true, false)};
}

AdversarialGapFinder::ProblemSizes AdversarialGapFinder::pop_problem_sizes(
    const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
    const AdversarialOptions& options) const {
  auto stats = [&](Rewrite rewrite, bool opt,
                   const std::vector<std::uint64_t>& pop_seeds) {
    TeBilevel te(topo_, paths_, options, rewrite);
    if (opt) te.add_opt();
    te.add_pop(config, pop_seeds);
    return te.problem.model.stats();
  };
  // The plain heuristic is one POP instance at the config's own seed.
  return {stats(Rewrite::Kkt, true, seeds),
          stats(Rewrite::Materialize, false, {config.seed}),
          stats(Rewrite::Materialize, true, {})};
}

}  // namespace metaopt::core
