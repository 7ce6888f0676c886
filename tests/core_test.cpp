// Tests for the adversarial gap finder (Eq. 1) and input constraints.
#include <gtest/gtest.h>

#include "core/adversarial.h"
#include "core/bilevel.h"
#include "core/gap_bound.h"
#include "core/input_constraints.h"
#include "search/search.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "obs/obs.h"
#include "te/demand.h"
#include "te/gap.h"
#include "util/rng.h"

namespace metaopt::core {
namespace {

using net::Topology;
namespace topologies = net::topologies;

AdversarialOptions quick_options(double seconds, double seed_seconds = 0.5) {
  AdversarialOptions o;
  o.mip.time_limit_seconds = seconds;
  o.seed_search_seconds = seed_seconds;
  return o;
}

TEST(AdversarialDp, ProvablyOptimalOnFig1) {
  // The paper's Fig. 1 example: the worst-case DP gap on that topology
  // with threshold 50 is exactly 100, achieved at (100, 50, 110).
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(30.0);
  options.demand_ub = 200.0;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(r.gap, 100.0, 1e-4);
  EXPECT_NEAR(r.bound, 100.0, 1e-4);  // proven, not just found
  EXPECT_NEAR(r.opt_value, 260.0, 1e-4);
  EXPECT_NEAR(r.heur_value, 160.0, 1e-4);

  // The discovered input is genuinely adversarial per the direct oracle.
  te::DpGapOracle oracle(topo, paths, dp);
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), 100.0, 1e-4);
}

TEST(AdversarialDp, GapMatchesDirectOracleOnRing) {
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  const AdversarialResult r = finder.find_dp_gap(dp, quick_options(10.0));
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  EXPECT_GT(r.gap, 0.0);
  te::DpGapOracle oracle(topo, paths, dp);
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), r.gap, 1e-3);
}

TEST(AdversarialDp, WhiteBoxBeatsShortRandomSearch) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(8.0, 2.0);
  const AdversarialResult white = finder.find_dp_gap(dp, options);

  te::DpGapOracle oracle(topo, paths, dp);
  search::SearchOptions so;
  so.time_limit_seconds = 8.0;
  so.demand_ub = 1000.0;
  const search::SearchResult black = search::random_search(oracle, so);
  EXPECT_GT(white.gap, black.best.gap());
}

TEST(AdversarialDp, PairMaskRestrictsSupport) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(5.0, 1.0);
  options.pair_mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < 10; ++k) options.pair_mask[k * 11] = true;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  for (std::size_t k = 0; k < r.volumes.size(); ++k) {
    if (!options.pair_mask[k]) {
      EXPECT_NEAR(r.volumes[k], 0.0, 1e-9) << "pair " << k;
    }
  }
}

TEST(AdversarialDp, ShortPairMaskThrows) {
  // A mask one entry short must be rejected, not read past its end, by
  // the leader builder that finds and bounds share.
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(5.0, 0.0);
  options.pair_mask.assign(paths.num_pairs() - 1, true);
  EXPECT_THROW((void)AdversarialGapFinder(topo, paths).find_dp_gap(dp, options),
               std::invalid_argument);
  EXPECT_THROW((void)GapBounder(topo, paths).bound_dp_gap(dp, options),
               std::invalid_argument);
}

TEST(AdversarialDp, HigherThresholdFindsLargerGap) {
  // Fig. 4a's qualitative claim on a small ring (kept provable so the
  // trend is about thresholds, not solver budgets).
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  double prev = -1.0;
  for (double threshold : {25.0, 50.0, 100.0}) {
    te::DpConfig dp;
    dp.threshold = threshold;
    const AdversarialResult r = finder.find_dp_gap(dp, quick_options(6.0));
    EXPECT_GE(r.gap, prev - 1e-6) << "threshold " << threshold;
    prev = r.gap;
  }
}

TEST(AdversarialPop, FindsPositiveExpectedGap) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options = quick_options(10.0, 2.0);
  const AdversarialResult r = finder.find_pop_gap(pop, {1, 2, 3}, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible ||
              r.status == lp::SolveStatus::TimeLimit);
  EXPECT_GT(r.gap, 0.0);
  // Verify against the direct POP oracle on the same seeds.
  te::PopGapOracle oracle(topo, paths, pop, {1, 2, 3});
  EXPECT_NEAR(oracle.evaluate(r.volumes).gap(), r.gap, 1e-3);
}

TEST(AdversarialPop, KktEncodingMatchesDirectAtScale) {
  // The te_test version of this check runs on a tiny ring without any
  // primal heuristic; here the assembly-driven pipeline handles Abilene.
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options = quick_options(8.0, 1.0);
  const AdversarialResult r = finder.find_pop_gap(pop, {5}, options);
  te::PopGapOracle oracle(topo, paths, pop, {5});
  const te::GapResult check = oracle.evaluate(r.volumes);
  EXPECT_NEAR(check.opt, r.opt_value, 1e-3);
  EXPECT_NEAR(check.heur, r.heur_value, 1e-3);
}

// Pinned answers: the primal heuristic's assembly memo must not change
// the search. Constants were recorded before the memo existed, from
// runs that assemble every candidate afresh.
std::vector<double> trace_objectives(const AdversarialResult& r) {
  std::vector<double> out;
  for (const auto& [seconds, objective] : r.trace) out.push_back(objective);
  return out;
}

double metric(const obs::MetricsSnapshot& s, const std::string& name) {
  const obs::MetricValue* m = s.find(name);
  return m != nullptr ? m->value : 0.0;
}

TEST(AdversarialDp, B4NodeCappedFindMatchesPinnedAnswer) {
  // The benchmark's dp-b4 find: B4, 20-pair support, 1,500 nodes.
  const Topology topo = topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(300.0, 0.0);
  options.demand_ub = topo.max_capacity();
  options.mip.max_nodes = 1500;
  const int stride = paths.num_pairs() / 20;
  options.pair_mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < 20; ++k) options.pair_mask[k * stride] = true;

  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);

  EXPECT_EQ(r.nodes, 1500);
  EXPECT_EQ(r.gap, 50.0);
  EXPECT_EQ(r.bound, 13050.0);
  EXPECT_EQ(trace_objectives(r), (std::vector<double>{0.0, 50.0}));
  // Most candidates repeat an earlier leader vector.
  EXPECT_GT(metric(d, "bilevel.memo_hits"), 0.0);
  EXPECT_LT(metric(d, "bilevel.assemblies"), metric(d, "bilevel.memo_hits"));
}

TEST(AdversarialPop, Fig1MeanFindMatchesPinnedAnswer) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  AdversarialOptions options = quick_options(300.0, 0.0);
  options.demand_ub = 200.0;
  const AdversarialResult r = finder.find_pop_gap(pop, {1, 2, 3}, options);
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(r.nodes, 179);
  EXPECT_EQ(r.gap, 121.66666666666667);
  EXPECT_EQ(r.bound, 121.66666666666667);
  EXPECT_EQ(trace_objectives(r), (std::vector<double>{121.66666666666667}));
}

TEST(Bilevel, MemoOffersAWinnerThatWasNeverOffered) {
  // Knapsack 10 (b1 + b2 + b3) + x <= 25, max 13 b1 + 12 b2 + 11 b3 + x.
  // The root and its b3 = 1 child are fractional with x = 0, so the
  // primal heuristic runs twice on the same raw vector. Call one also
  // tries x = 4, which `finish` makes infeasible but scores highest, and
  // x = 2 (objective 27), which loses there and so is never offered.
  // Call two tries x = 2 again: a memo hit that must still be offered.
  BilevelProblem p(Rewrite::Kkt, 10.0);
  p.add_leader(true, "x");
  const lp::Var x = p.leader[0];
  const lp::Var b1 = p.model.add_binary("b1");
  const lp::Var b2 = p.model.add_binary("b2");
  const lp::Var b3 = p.model.add_binary("b3");
  p.model.add_constraint(10.0 * b1 + 10.0 * b2 + 10.0 * b3 +
                             lp::LinExpr(x) <=
                         lp::LinExpr(25.0));
  p.set_gap(13.0 * b1 + 12.0 * b2 + 11.0 * b3 + lp::LinExpr(x),
            lp::LinExpr(), lp::ObjSense::Maximize);

  BilevelHooks hooks;
  hooks.lift = [&](BilevelHooks::Vec&, BilevelHooks::Vec& assign) {
    assign[b1.id] = assign[b2.id] = 1.0;
    return true;
  };
  hooks.finish = [&](BilevelHooks::Vec& assign) {
    if (assign[x.id] == 4.0) assign[b3.id] = 1.0;
  };
  int calls = 0;
  hooks.roundings = [&](const BilevelHooks::Vec&) {
    return ++calls == 1 ? std::vector<BilevelHooks::Vec>{{4.0}, {2.0}}
                        : std::vector<BilevelHooks::Vec>{{2.0}};
  };
  mip::MipOptions mip;
  mip.time_limit_seconds = 60.0;
  const AdversarialResult r = solve_bilevel(p, hooks, mip, 0.0);
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(r.gap, 30.0);
  ASSERT_GE(calls, 2);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().second, 27.0);  // x = 2, offered on call two
}

TEST(AdversarialDp, ProblemSizesOrdering) {
  // Fig. 6: the metaopt model dominates the plain heuristic/OPT models
  // in every dimension and carries all the SOS constraints.
  const Topology topo = topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  const auto sizes = finder.dp_problem_sizes(dp, AdversarialOptions());
  EXPECT_GT(sizes.metaopt.num_vars, sizes.heuristic.num_vars);
  EXPECT_GT(sizes.metaopt.num_vars, sizes.opt.num_vars);
  EXPECT_GT(sizes.metaopt.num_constraints, sizes.heuristic.num_constraints);
  EXPECT_GT(sizes.metaopt.num_complementarities, 0);
  EXPECT_EQ(sizes.heuristic.num_complementarities, 0);
  EXPECT_EQ(sizes.opt.num_complementarities, 0);
  EXPECT_GT(sizes.metaopt.num_binaries, 0);
}

TEST(AdversarialPop, ProblemSizesGrowWithInstances) {
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  const auto one = finder.pop_problem_sizes(pop, {1}, AdversarialOptions());
  const auto three =
      finder.pop_problem_sizes(pop, {1, 2, 3}, AdversarialOptions());
  EXPECT_GT(three.metaopt.num_vars, one.metaopt.num_vars);
  EXPECT_GT(three.metaopt.num_complementarities,
            one.metaopt.num_complementarities);
}

TEST(AdversarialDp, BareBnbTimeLimitWithoutIncumbentIsSafe) {
  // Regression: a TimeLimit exit with no incumbent used to hand an empty
  // value vector to finalize_result and crash. The bare configuration
  // (no seed, no primal heuristic, tiny budget) reproduces that path.
  const Topology topo = topologies::b4();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  AdversarialOptions options;
  options.mip.time_limit_seconds = 0.5;
  options.seed_search_seconds = 0.0;
  options.use_primal_heuristic = false;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  EXPECT_FALSE(r.has_solution());
  EXPECT_EQ(r.gap, 0.0);
}

// ---------------------------------------------------------------------
// Input constraints (§3.3, §5)
// ---------------------------------------------------------------------

TEST(InputConstraintsTest, GoalpostRestrictsSolution) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(20.0);
  options.demand_ub = 200.0;
  // Goalpost: all demands within 10 units of 20 -- the Fig. 1 worst case
  // (100, 50, 110) is excluded, so the best gap shrinks drastically.
  Goalpost gp;
  gp.reference.assign(paths.num_pairs(), 20.0);
  gp.max_deviation = 10.0;
  options.constraints.goalposts.push_back(gp);
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.status == lp::SolveStatus::Optimal ||
              r.status == lp::SolveStatus::Feasible);
  EXPECT_LT(r.gap, 100.0);
  for (std::size_t k = 0; k < r.volumes.size(); ++k) {
    if (paths.paths(k).empty()) continue;
    EXPECT_GE(r.volumes[k], 10.0 - 1e-6);
    EXPECT_LE(r.volumes[k], 30.0 + 1e-6);
  }
}

TEST(InputConstraintsTest, PartialGoalpostLeavesOthersFree) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(20.0);
  options.demand_ub = 200.0;
  // Pin only the (0,2) demand near the threshold; other pairs free.
  Goalpost gp;
  gp.reference.assign(paths.num_pairs(), 0.0);
  gp.mask.assign(paths.num_pairs(), false);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (paths.pair(k) == std::pair<net::NodeId, net::NodeId>{0, 2}) {
      gp.mask[k] = true;
      gp.reference[k] = 50.0;
    }
  }
  gp.max_deviation = 0.5;
  options.constraints.goalposts.push_back(gp);
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(r.has_solution());
  EXPECT_NEAR(r.gap, 100.0, 1.0);  // worst case still reachable
}

TEST(InputConstraintsTest, MeanBandHolds) {
  const Topology topo = topologies::circulant(6, 1);
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(6.0, 1.0);
  options.constraints.mean_band = 25.0;
  const AdversarialResult r = finder.find_dp_gap(dp, options);
  if (!r.volumes.empty()) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t k = 0; k < r.volumes.size(); ++k) {
      if (!paths.paths(k).empty()) {
        sum += r.volumes[k];
        ++n;
      }
    }
    const double mean = sum / n;
    for (std::size_t k = 0; k < r.volumes.size(); ++k) {
      if (!paths.paths(k).empty()) {
        EXPECT_LE(std::abs(r.volumes[k] - mean), 25.0 + 1e-4);
      }
    }
  }
}

TEST(InputConstraintsTest, ExclusionForcesDifferentInput) {
  const Topology topo = topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  AdversarialOptions options = quick_options(20.0);
  options.demand_ub = 200.0;
  const AdversarialResult first = finder.find_dp_gap(dp, options);
  ASSERT_EQ(first.status, lp::SolveStatus::Optimal);

  options.constraints.excluded.push_back(first.volumes);
  options.constraints.exclusion_radius = 20.0;
  const AdversarialResult second = finder.find_dp_gap(dp, options);
  ASSERT_TRUE(second.has_solution());
  double linf = 0.0;
  for (std::size_t k = 0; k < first.volumes.size(); ++k) {
    linf = std::max(linf, std::abs(first.volumes[k] - second.volumes[k]));
  }
  EXPECT_GE(linf, 20.0 - 1e-4);
  EXPECT_LE(second.gap, first.gap + 1e-6);
}

TEST(InputConstraintsTest, RejectsMalformedSizes) {
  lp::Model model;
  std::vector<lp::Var> demand{model.add_var("d0", 0.0, 10.0)};
  InputConstraints constraints;
  Goalpost gp;
  gp.reference = {1.0, 2.0};  // wrong size
  constraints.goalposts.push_back(gp);
  EXPECT_THROW(apply_input_constraints(model, demand, constraints, 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace metaopt::core
