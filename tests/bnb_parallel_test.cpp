// Parallel branch-and-bound: thread-count invariance of certified
// answers (the headline contract — bit-identical optimal objectives for
// threads 1/2/4), the shared-scheduler oversubscription bound (max of
// component requests, never their product — replacing the old clamp),
// complete node-outcome accounting (no popped node ever vanishes
// without a counter), and the regression for complementarity pairs
// whose both sides get tightened above zero (previously dropped
// silently; now pruned as infeasible).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adversarial.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "obs/metrics.h"
#include "runner/scheduler.h"
#include "te/demand.h"
#include "util/rng.h"

namespace metaopt::mip {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::SolveStatus;
using lp::Var;

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// Same knapsack-with-side-constraints family as bnb_warmstart_test:
/// fractional LP optima and conflicting cover rows force real branching.
Model make_random_mip(util::Rng& rng) {
  const int n = rng.uniform_int(4, 8);
  Model m;
  std::vector<Var> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
  }
  const Var y = m.add_var("y", 0.0, rng.uniform(2.0, 5.0));
  LinExpr weight;
  LinExpr profit;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = rng.uniform(1.0, 5.0);
    const double p = rng.uniform(1.0, 6.0);
    total_weight += w;
    weight += w * LinExpr(xs[i]);
    profit += p * LinExpr(xs[i]);
  }
  const double cap = total_weight * rng.uniform(0.35, 0.65);
  m.add_constraint(weight + 0.5 * y <= LinExpr(cap));
  LinExpr cover;
  for (int i = 0; i < n; i += 2) cover += LinExpr(xs[i]);
  m.add_constraint(cover + y >= LinExpr(1.0));
  m.set_objective(ObjSense::Maximize, profit + 0.25 * y);
  return m;
}

TEST(BnbParallel, ThreadsBitIdenticalOnRandomCorpus) {
  // The determinism contract: every node LP is a pure function of (node
  // box, hint basis), so for trees solved to proven optimality the
  // certified optimal objective is BIT-identical across thread counts —
  // EXPECT_EQ on doubles, not EXPECT_NEAR. Warm and cold both.
  util::Rng rng(util::derive_seed(20260807, 51));
  for (int trial = 0; trial < 40; ++trial) {
    const Model m = make_random_mip(rng);
    for (const bool warm : {true, false}) {
      MipOptions base;
      base.use_warm_start = warm;
      base.certify = true;
      base.lp.certify = false;  // per-node LP certification is separate
      base.threads = 1;
      const auto ref = BranchAndBound(base).solve(m);
      ASSERT_EQ(ref.status, SolveStatus::Optimal)
          << "trial " << trial << " warm=" << warm;
      ASSERT_TRUE(ref.certified) << "trial " << trial << " warm=" << warm;
      for (const int threads : {2, 4}) {
        MipOptions opt = base;
        opt.threads = threads;
        const auto got = BranchAndBound(opt).solve(m);
        ASSERT_EQ(got.status, SolveStatus::Optimal)
            << "trial " << trial << " warm=" << warm << " threads=" << threads;
        EXPECT_EQ(got.objective, ref.objective)
            << "trial " << trial << " warm=" << warm << " threads=" << threads;
        EXPECT_EQ(got.best_bound, ref.best_bound)
            << "trial " << trial << " warm=" << warm << " threads=" << threads;
        EXPECT_TRUE(got.certified)
            << "trial " << trial << " warm=" << warm << " threads=" << threads;
      }
    }
  }
}

TEST(BnbParallel, Fig1DpGapIdenticalAcrossThreads) {
  // Paper-scale check: the Fig. 1 worst-case DP gap search (gap 100,
  // proven optimal) must produce the same certified answer for any
  // thread count. seed_search_seconds = 0 keeps the incumbent seeding
  // wall-clock independent.
  const net::Topology topo = net::topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  core::AdversarialGapFinder finder(topo, paths);
  te::DpConfig dp;
  dp.threshold = 50.0;
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = 60.0;
  options.seed_search_seconds = 0.0;
  options.demand_ub = 200.0;

  options.mip.threads = 1;
  const core::AdversarialResult ref = finder.find_dp_gap(dp, options);
  ASSERT_EQ(ref.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(ref.gap, 100.0, 1e-4);
  for (const int threads : {2, 4}) {
    options.mip.threads = threads;
    const core::AdversarialResult got = finder.find_dp_gap(dp, options);
    ASSERT_EQ(got.status, lp::SolveStatus::Optimal) << "threads=" << threads;
    EXPECT_EQ(got.gap, ref.gap) << "threads=" << threads;
    EXPECT_EQ(got.opt_value, ref.opt_value) << "threads=" << threads;
    EXPECT_EQ(got.heur_value, ref.heur_value) << "threads=" << threads;
    EXPECT_EQ(got.bound, ref.bound) << "threads=" << threads;
  }
}

TEST(BnbParallel, Fig1PopGapIdenticalAcrossThreads) {
  // POP tries three roundings per node, so workers hit the primal
  // heuristic's shared assembly memo concurrently; the proven answer
  // must still not depend on the thread count.
  const net::Topology topo = net::topologies::fig1();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  core::AdversarialGapFinder finder(topo, paths);
  te::PopConfig pop;
  pop.num_partitions = 2;
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = 60.0;
  options.seed_search_seconds = 0.0;
  options.demand_ub = 200.0;

  options.mip.threads = 1;
  const core::AdversarialResult ref =
      finder.find_pop_gap(pop, {1, 2, 3}, options);
  ASSERT_EQ(ref.status, lp::SolveStatus::Optimal);
  for (const int threads : {2, 4}) {
    options.mip.threads = threads;
    const core::AdversarialResult got =
        finder.find_pop_gap(pop, {1, 2, 3}, options);
    ASSERT_EQ(got.status, lp::SolveStatus::Optimal) << "threads=" << threads;
    EXPECT_EQ(got.gap, ref.gap) << "threads=" << threads;
    EXPECT_EQ(got.opt_value, ref.opt_value) << "threads=" << threads;
    EXPECT_EQ(got.heur_value, ref.heur_value) << "threads=" << threads;
    EXPECT_EQ(got.bound, ref.bound) << "threads=" << threads;
  }
}

TEST(BnbParallel, NoClampAndBoundedWorkersInsideParallelRegion) {
  // The old contract clamped a B&B inside someone else's parallel
  // region to one thread. With the shared scheduler the request is
  // honored everywhere — a nested B&B borrows workers from the same
  // process-wide pool instead of spawning its own — and the bound that
  // matters is structural: the pool grows to max(component requests),
  // never their product.
  obs::set_enabled(true);
  util::Rng rng(util::derive_seed(20260807, 52));
  const Model m = make_random_mip(rng);
  MipOptions opt;

  opt.threads = 1;
  const auto ref = BranchAndBound(opt).solve(m);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);

  opt.threads = 4;
  const int before = runner::Scheduler::global().num_threads();
  const auto first = BranchAndBound(opt).solve(m);
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  // Request honored (no clamp) and the certified answer unchanged.
  EXPECT_EQ(metric(obs::snapshot(), "bnb.threads"), 4.0);
  EXPECT_EQ(first.objective, ref.objective);
  // The shared pool grew to at most max(before, mip threads), never a
  // product of nested widths.
  const int after = runner::Scheduler::global().num_threads();
  EXPECT_EQ(after, std::max(before, 4));

  const auto sol = BranchAndBound(opt).solve(m);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(metric(obs::snapshot(), "bnb.threads"), 4.0);
  EXPECT_EQ(runner::Scheduler::global().num_threads(), after);
  obs::set_enabled(false);
}

TEST(BnbParallel, NodeAccountingComplete) {
  // Every popped node must land in exactly one outcome bucket; a hole
  // here means the tree silently dropped work (the pre-fix failure
  // mode). Checked across a batch of branching instances, serial and
  // parallel.
  obs::set_enabled(true);
  util::Rng rng(util::derive_seed(20260807, 53));
  for (const int threads : {1, 4}) {
    const obs::MetricsSnapshot before = obs::snapshot();
    MipOptions opt;
    opt.threads = threads;
    for (int trial = 0; trial < 10; ++trial) {
      const Model m = make_random_mip(rng);
      const auto sol = BranchAndBound(opt).solve(m);
      ASSERT_EQ(sol.status, SolveStatus::Optimal);
    }
    const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
    const double popped = metric(d, "bnb.nodes_popped");
    const double outcomes = metric(d, "bnb.nodes_pruned_bound") +
                            metric(d, "bnb.nodes_pruned_infeasible") +
                            metric(d, "bnb.nodes_integer_feasible") +
                            metric(d, "bnb.nodes_branched") +
                            metric(d, "bnb.nodes_failed") +
                            metric(d, "bnb.nodes_aborted") +
                            metric(d, "bnb.nodes_unbounded");
    EXPECT_GT(popped, 10.0) << "threads=" << threads;
    EXPECT_EQ(popped, outcomes) << "threads=" << threads;
  }
  obs::set_enabled(false);
}

TEST(BnbParallel, BothSidesPositivePairPrunedAsInfeasible) {
  // Regression: constraint propagation tightens BOTH sides of a
  // complementarity pair above zero. Branching then has no side left to
  // fix to zero — the old code pushed zero children and dropped the
  // node without a counter. It must now be detected up front and pruned
  // as infeasible, visibly.
  Model m;
  const Var u = m.add_var("u", 0.0, 10.0);
  const Var v = m.add_var("v", 0.0, 10.0);
  // Presolve bound propagation lifts lb(u) and lb(v) to 1.
  m.add_constraint(LinExpr(u) >= LinExpr(1.0));
  m.add_constraint(LinExpr(v) >= LinExpr(1.0));
  m.add_complementarity(u, v);
  m.set_objective(ObjSense::Maximize, LinExpr(u) + LinExpr(v));

  obs::set_enabled(true);
  for (const int threads : {1, 2}) {
    MipOptions opt;
    opt.threads = threads;
    opt.use_presolve = true;
    const obs::MetricsSnapshot before = obs::snapshot();
    const auto sol = BranchAndBound(opt).solve(m);
    const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
    EXPECT_EQ(sol.status, SolveStatus::Infeasible) << "threads=" << threads;
    EXPECT_GE(metric(d, "bnb.nodes_pruned_infeasible"), 1.0)
        << "threads=" << threads;
    // The accounting invariant holds on this path too.
    EXPECT_EQ(metric(d, "bnb.nodes_popped"),
              metric(d, "bnb.nodes_pruned_bound") +
                  metric(d, "bnb.nodes_pruned_infeasible") +
                  metric(d, "bnb.nodes_integer_feasible") +
                  metric(d, "bnb.nodes_branched") +
                  metric(d, "bnb.nodes_failed") +
                  metric(d, "bnb.nodes_aborted") +
                  metric(d, "bnb.nodes_unbounded"))
        << "threads=" << threads;
  }
  obs::set_enabled(false);
}

TEST(BnbParallel, OnIncumbentSerializedAndMonotone) {
  // The callback contract: on_incumbent runs under the incumbent lock,
  // so concurrent workers never interleave calls and the objective
  // sequence a callback observes is strictly improving.
  util::Rng rng(util::derive_seed(20260807, 54));
  for (int trial = 0; trial < 5; ++trial) {
    const Model m = make_random_mip(rng);
    MipOptions opt;
    opt.threads = 4;
    MipCallbacks callbacks;
    std::vector<double> seen;  // unsynchronized on purpose
    callbacks.on_incumbent = [&seen](double obj, double,
                                     const std::vector<double>&) {
      seen.push_back(obj);
    };
    const auto sol = BranchAndBound(opt).solve(m, callbacks);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    ASSERT_FALSE(seen.empty());
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_GT(seen[i], seen[i - 1]) << "trial " << trial;
    }
    EXPECT_EQ(seen.back(), sol.objective);
  }
}

TEST(BnbParallel, WorkerMetricsLandInCallersShardGroup) {
  // Spawned B&B workers adopt the caller's obs shard group, so a
  // group-scoped delta (what SweepRunner attributes to one job) sees
  // the whole tree, not just the nodes the calling thread processed.
  obs::set_enabled(true);
  util::Rng rng(util::derive_seed(20260807, 55));
  const Model m = make_random_mip(rng);
  const obs::ScopedShardGroup group;
  const obs::MetricsSnapshot before = obs::snapshot_group();
  MipOptions opt;
  opt.threads = 4;
  const auto sol = BranchAndBound(opt).solve(m);
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot_group());
  obs::set_enabled(false);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // All four workers' solver constructions are visible in the group.
  EXPECT_EQ(metric(d, "bnb.solver_instances"), 4.0);
  EXPECT_EQ(metric(d, "bnb.nodes_popped"),
            metric(d, "bnb.nodes_pruned_bound") +
                metric(d, "bnb.nodes_pruned_infeasible") +
                metric(d, "bnb.nodes_integer_feasible") +
                metric(d, "bnb.nodes_branched") +
                metric(d, "bnb.nodes_failed") +
                metric(d, "bnb.nodes_aborted") +
                metric(d, "bnb.nodes_unbounded"));
}

}  // namespace
}  // namespace metaopt::mip
