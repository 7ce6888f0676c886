// Tests for the black-box searchers (§3.4).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "net/topologies.h"
#include "search/search.h"
#include "te/demand.h"
#include "te/gap.h"

namespace metaopt::search {
namespace {

using heur::MaskedGapOracle;
using net::Topology;
namespace topologies = net::topologies;

/// Fig. 1 oracle: 3 demand dims that matter, known max gap 100.
struct Fig1Fixture {
  Topology topo = topologies::fig1();
  te::PathSet paths{topo, te::all_pairs(topo), 2};
  te::DpConfig config;
  te::DpGapOracle oracle{topo, paths, config};

  Fig1Fixture() { config.threshold = 50.0; }
};

SearchOptions quick_options(double seconds, std::uint64_t seed = 1) {
  SearchOptions o;
  o.time_limit_seconds = seconds;
  o.demand_ub = 110.0;
  o.seed = seed;
  return o;
}

TEST(HillClimb, FindsPositiveGapOnFig1) {
  Fig1Fixture f;
  te::DpGapOracle oracle(f.topo, f.paths, f.config);
  const SearchResult r = hill_climb(oracle, quick_options(1.0));
  EXPECT_GT(r.best.gap(), 0.0);
  EXPECT_GT(r.evaluations, 10);
  EXPECT_EQ(r.best_volumes.size(), 6u);
  // Trace is monotone increasing in gap and time.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].first, r.trace[i - 1].first);
    EXPECT_GT(r.trace[i].second, r.trace[i - 1].second);
  }
}

TEST(HillClimb, DeterministicForFixedSeed) {
  Fig1Fixture f;
  // Bound both runs by evaluation count, not wall clock: a clock cutoff
  // truncates the two runs at different points under slow (sanitizer)
  // builds and breaks determinism.
  SearchOptions o = quick_options(30.0, 7);
  o.max_evaluations = 400;
  te::DpGapOracle o1(f.topo, f.paths, f.config);
  te::DpGapOracle o2(f.topo, f.paths, f.config);
  const SearchResult a = hill_climb(o1, o);
  const SearchResult b = hill_climb(o2, o);
  EXPECT_EQ(a.best_volumes, b.best_volumes);
  EXPECT_DOUBLE_EQ(a.best.gap(), b.best.gap());
}

TEST(SimulatedAnnealing, FindsPositiveGapOnFig1) {
  Fig1Fixture f;
  te::DpGapOracle oracle(f.topo, f.paths, f.config);
  const SearchResult r = simulated_annealing(oracle, quick_options(1.0));
  EXPECT_GT(r.best.gap(), 0.0);
}

TEST(RandomSearch, RespectsEvaluationBudget) {
  Fig1Fixture f;
  te::DpGapOracle oracle(f.topo, f.paths, f.config);
  SearchOptions o = quick_options(30.0);
  o.max_evaluations = 50;
  const SearchResult r = random_search(oracle, o);
  EXPECT_LE(r.evaluations, 51);
}

TEST(QuantizedClimb, FindsExactFig1Optimum) {
  // With levels {0, 50, 100, 110} the paper's worst case (100, 50, 110)
  // is in the grid; the climber should find gap 100 quickly.
  Fig1Fixture f;
  te::DpGapOracle oracle(f.topo, f.paths, f.config);
  SearchOptions o = quick_options(2.0);
  o.levels = {0.0, 50.0, 100.0, 110.0};
  const SearchResult r = quantized_climb(oracle, o);
  EXPECT_NEAR(r.best.gap(), 100.0, 1e-6);
}

/// Gap 0 everywhere: no move ever improves, so a climber spends its
/// whole budget on one coordinate pass.
struct ZeroOracle final : heur::GapOracle {
  [[nodiscard]] int num_leader_vars() const override { return 3; }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>&) const override {
    count_evaluation();
    heur::GapResult g;
    g.status = lp::SolveStatus::Optimal;
    g.heuristic_feasible = true;
    return g;
  }
};

TEST(QuantizedClimb, StopsExactlyAtEvaluationBudget) {
  // The baseline evaluation and the random start use 2 of the 4
  // evaluations; the first coordinate has 3 untried levels, and the
  // climber must stop after 2 of them rather than finish the coordinate.
  const ZeroOracle oracle;
  SearchOptions o = quick_options(30.0);
  o.levels = {0.0, 1.0, 2.0, 3.0};
  o.max_evaluations = 4;
  const SearchResult r = quantized_climb(oracle, o);
  EXPECT_EQ(r.evaluations, 4);
  EXPECT_EQ(oracle.evaluations(), 4);
}

TEST(QuantizedClimb, BeatsRandomOnDpShape) {
  // DP's adversarial inputs are near the threshold — a tiny slice of the
  // volume box (the paper's footnote 2) — so quantized search with the
  // threshold level dominates pure random sampling.
  const Topology topo = topologies::abilene();
  const te::PathSet paths(topo, te::all_pairs(topo), 2);
  te::DpConfig config;
  config.threshold = 50.0;
  te::DpGapOracle q_oracle(topo, paths, config);
  te::DpGapOracle r_oracle(topo, paths, config);
  SearchOptions o;
  o.time_limit_seconds = 2.0;
  o.demand_ub = 1000.0;
  o.levels = {0.0, 50.0, 1000.0};
  const SearchResult quant = quantized_climb(q_oracle, o);
  const SearchResult rand = random_search(r_oracle, o);
  EXPECT_GT(quant.best.gap(), rand.best.gap());
}

TEST(HillClimb, UsesMatchingInitialPoint) {
  // A correctly-sized initial_point seeds the first restart: handed the
  // Fig. 1 worst case (found by quantized_climb, gap 100), a hill climb
  // with almost no budget must retain that gap — unreachable from a
  // random start in so few evaluations.
  Fig1Fixture f;
  te::DpGapOracle quant_oracle(f.topo, f.paths, f.config);
  SearchOptions qo = quick_options(2.0);
  qo.levels = {0.0, 50.0, 100.0, 110.0};
  const SearchResult q = quantized_climb(quant_oracle, qo);
  ASSERT_NEAR(q.best.gap(), 100.0, 1e-6);

  te::DpGapOracle oracle(f.topo, f.paths, f.config);
  SearchOptions o = quick_options(30.0, 3);
  o.max_evaluations = 3;  // evaluate the seed, not much else
  o.initial_point = q.best_volumes;
  const SearchResult r = hill_climb(oracle, o);
  EXPECT_NEAR(r.best.gap(), 100.0, 1e-6);
}

TEST(HillClimb, IgnoresMismatchedInitialPoint) {
  // A wrong-sized initial_point (the classic mask/oracle mix-up) must
  // not crash or silently skew the search: it is dropped with a warning
  // and the run is identical to one with no initial point at all.
  Fig1Fixture f;
  SearchOptions o = quick_options(30.0, 7);
  o.max_evaluations = 200;
  SearchOptions bad = o;
  bad.initial_point = {100.0, 50.0};  // oracle expects 6 demands
  te::DpGapOracle o1(f.topo, f.paths, f.config);
  te::DpGapOracle o2(f.topo, f.paths, f.config);
  const SearchResult plain = hill_climb(o1, o);
  const SearchResult ignored = hill_climb(o2, bad);
  EXPECT_EQ(plain.best_volumes, ignored.best_volumes);
  EXPECT_DOUBLE_EQ(plain.best.gap(), ignored.best.gap());
  EXPECT_EQ(plain.evaluations, ignored.evaluations);
}

TEST(MaskedOracle, ConcurrentEvaluationCountIsExact) {
  // MaskedGapOracle::evaluate is const and is called from B&B worker
  // threads (the primal heuristic re-evaluates the true gap per node);
  // its evaluation counter must not lose increments under contention.
  Fig1Fixture f;
  te::DpGapOracle base(f.topo, f.paths, f.config);
  std::vector<bool> include(6, false);
  include[0] = include[1] = true;
  const MaskedGapOracle masked(base, include);
  constexpr int kThreads = 4;
  constexpr int kEvalsPerThread = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&masked] {
      for (int i = 0; i < kEvalsPerThread; ++i) {
        (void)masked.evaluate({25.0, 50.0});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(masked.evaluations(), kThreads * kEvalsPerThread);
}

TEST(MaskedOracle, ProjectsAndExpands) {
  Fig1Fixture f;
  te::DpGapOracle base(f.topo, f.paths, f.config);
  std::vector<bool> include(6, false);
  include[1] = true;  // only pair (0,2) adversarial
  MaskedGapOracle masked(base, include);
  EXPECT_EQ(masked.num_leader_vars(), 1);
  const std::vector<double> full = masked.expand({50.0});
  ASSERT_EQ(full.size(), 6u);
  EXPECT_DOUBLE_EQ(full[1], 50.0);
  EXPECT_DOUBLE_EQ(full[0], 0.0);
  // Pinning 50 on (0,2) with no other demand wastes nothing: gap 0.
  const te::GapResult g = masked.evaluate({50.0});
  EXPECT_NEAR(g.gap(), 0.0, 1e-9);
}

/// Synthetic non-TE oracle: gap = sum of the leader vector. Exercises
/// MaskedGapOracle's parametric index-mask semantics without any
/// topology — the mask is a plain index mask over leader variables, so
/// it must behave identically for any domain behind heur::GapOracle.
struct SumOracle final : heur::GapOracle {
  [[nodiscard]] int num_leader_vars() const override { return 5; }
  [[nodiscard]] heur::GapResult evaluate(
      const std::vector<double>& leader) const override {
    count_evaluation();
    heur::GapResult g;
    g.status = lp::SolveStatus::Optimal;
    g.heuristic_feasible = true;
    g.heur = 0.0;
    g.opt = 0.0;
    for (double v : leader) g.opt += v;
    return g;
  }
};

TEST(MaskedOracle, IndexMaskSemanticsAreDomainNeutral) {
  const SumOracle base;
  std::vector<bool> include = {false, true, false, true, false};
  const heur::MaskedGapOracle masked(base, include);
  EXPECT_EQ(masked.num_leader_vars(), 2);
  // Excluded indices are pinned at zero; included ones pass through in
  // base-index order.
  const std::vector<double> full = masked.expand({3.0, 4.0});
  EXPECT_EQ(full, (std::vector<double>{0.0, 3.0, 0.0, 4.0, 0.0}));
  EXPECT_DOUBLE_EQ(masked.evaluate({3.0, 4.0}).gap(), 7.0);
  EXPECT_EQ(base.evaluations(), 1);
}

TEST(MaskedOracle, PopBehaviourUnchangedAfterHoist) {
  // Regression for the heur:: hoist: a masked POP oracle must evaluate
  // exactly like the unmasked one on the expanded point (the mask only
  // renumbers, never rescales). Pre-hoist this lived in te::.
  Fig1Fixture f;
  te::PopConfig pop;
  pop.num_partitions = 2;
  const te::PopGapOracle base(f.topo, f.paths, pop, {1, 2});
  std::vector<bool> include(6, false);
  include[0] = include[2] = true;
  const MaskedGapOracle masked(base, include);
  const std::vector<double> reduced = {40.0, 70.0};
  const te::GapResult via_mask = masked.evaluate(reduced);
  const te::GapResult direct = base.evaluate(masked.expand(reduced));
  EXPECT_DOUBLE_EQ(via_mask.gap(), direct.gap());
  EXPECT_DOUBLE_EQ(via_mask.opt, direct.opt);
  EXPECT_DOUBLE_EQ(via_mask.heur, direct.heur);
}

TEST(AllSearchers, GapZeroAtZeroDemandBaseline) {
  Fig1Fixture f;
  SearchOptions o = quick_options(0.05);
  o.max_evaluations = 5;
  for (auto* fn : {hill_climb, simulated_annealing, random_search}) {
    te::DpGapOracle oracle(f.topo, f.paths, f.config);
    const SearchResult r = fn(oracle, o);
    EXPECT_GE(r.best.gap(), 0.0);  // zero-demand baseline is gap 0
  }
}

}  // namespace
}  // namespace metaopt::search
