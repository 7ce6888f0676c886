// Tests for the TE formulations: OptMaxFlow, Demand Pinning, POP —
// procedural solvers, convex encodings, and their equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>

#include "domains/te_instances.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/materialize.h"
#include "mip/branch_and_bound.h"
#include "net/topologies.h"
#include "obs/obs.h"
#include "te/demand.h"
#include "te/demand_pinning.h"
#include "te/gap.h"
#include "te/max_flow.h"
#include "te/path_set.h"
#include "te/pop.h"
#include "util/rng.h"

namespace metaopt::te {
namespace {

using net::Topology;
namespace topologies = net::topologies;

PathSet make_paths(const Topology& topo, int k) {
  return PathSet(topo, all_pairs(topo), k);
}

// ---------------------------------------------------------------------
// Demands & path sets
// ---------------------------------------------------------------------

TEST(Demand, AllPairsCountAndOrder) {
  const Topology topo = topologies::fig1();
  const auto pairs = all_pairs(topo);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<net::NodeId, net::NodeId>{0, 1}));
  EXPECT_EQ(pairs[5], (std::pair<net::NodeId, net::NodeId>{2, 1}));
}

TEST(Demand, GeneratorsProduceSaneVolumes) {
  const Topology topo = topologies::abilene();
  DemandGenerator gen(topo, util::Rng(3));
  const auto uni = gen.uniform(10.0, 20.0);
  for (const Demand& d : uni) {
    EXPECT_GE(d.volume, 10.0);
    EXPECT_LE(d.volume, 20.0);
  }
  DemandGenerator gen2(topo, util::Rng(4));
  const auto grav = gen2.gravity(100.0);
  const double mean =
      std::accumulate(grav.begin(), grav.end(), 0.0,
                      [](double a, const Demand& d) { return a + d.volume; }) /
      static_cast<double>(grav.size());
  EXPECT_NEAR(mean, 100.0, 1e-6);
}

TEST(Demand, HoseRespectsCap) {
  const Topology topo = topologies::abilene();
  DemandGenerator gen(topo, util::Rng(5));
  const auto demands = gen.hose(50.0, 150.0, 400.0);
  std::vector<double> egress(topo.num_nodes(), 0.0);
  for (const Demand& d : demands) egress[d.src] += d.volume;
  // Rescaling is per-demand (not iterative), so allow small slack.
  for (double e : egress) EXPECT_LE(e, 400.0 * 1.05);
}

TEST(PathSetTest, AlignsWithPairsAndTracksHops) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  EXPECT_EQ(paths.num_pairs(), 12 * 11);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    ASSERT_FALSE(paths.paths(k).empty());
    EXPECT_LE(paths.paths(k).size(), 2u);
    const auto [s, t] = paths.pair(k);
    EXPECT_EQ(topo.edge(paths.shortest(k).edges.front()).src, s);
    EXPECT_EQ(topo.edge(paths.shortest(k).edges.back()).dst, t);
  }
  EXPECT_GE(paths.max_hops(), 4);
}

// ---------------------------------------------------------------------
// OptMaxFlow
// ---------------------------------------------------------------------

TEST(MaxFlow, Fig1CarriesEverything) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  // Demands of Fig. 1: 1->2: 100, 2->3: 110, 1->3: 50 (pairs in
  // src-major order: (0,1)=100, (0,2)=50, (1,0), (1,2)=110, ...).
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 1) volumes[k] = 100.0;
    if (s == 0 && t == 2) volumes[k] = 50.0;
    if (s == 1 && t == 2) volumes[k] = 110.0;
  }
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 260.0, 1e-6);  // OPT of Fig. 1
}

TEST(MaxFlow, RespectsCapacity) {
  const Topology topo = topologies::line(3);  // 0-1-2, caps 1000
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 2) volumes[k] = 5000.0;  // exceeds capacity
  }
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 1000.0, 1e-6);
}

TEST(MaxFlow, CapacityScaleHalvesFlow) {
  const Topology topo = topologies::line(3);
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 2) volumes[k] = 5000.0;
  }
  MaxFlowOptions options;
  options.capacity_scale = 0.5;
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes, options);
  ASSERT_EQ(opt.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(opt.total_flow, 500.0, 1e-6);
}

TEST(MaxFlow, IncludeMaskDropsDemands) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes(paths.num_pairs(), 40.0);
  std::vector<bool> include(paths.num_pairs(), false);
  const MaxFlowResult none = solve_max_flow(
      topo, paths, volumes,
      MaxFlowOptions{.capacity_scale = 1.0, .include = &include});
  ASSERT_EQ(none.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(none.total_flow, 0.0, 1e-9);
}

TEST(MaxFlow, KktEncodingMatchesDirect) {
  // Small ring so raw branch-and-bound (no primal heuristic) can close
  // all complementarity pairs; the Abilene/B4-scale version lives in
  // core_test with the KKT-point-assembly heuristic.
  const Topology topo = topologies::circulant(6, 1);
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(11));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 120.0));

  const MaxFlowResult direct = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(direct.status, lp::SolveStatus::Optimal);

  lp::Model outer;
  std::vector<lp::LinExpr> demand;
  for (double v : volumes) demand.emplace_back(v);
  FlowEncoding enc = build_max_flow(outer, topo, paths, demand, "mf.");
  const kkt::KktArtifacts art = kkt::emit_kkt(outer, enc.inner, "mf.");
  outer.set_objective(lp::ObjSense::Minimize, lp::LinExpr(0.0));
  mip::MipOptions opt;
  opt.time_limit_seconds = 120.0;
  const auto sol = mip::BranchAndBound(opt).solve(outer);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(outer.eval(art.objective_expr, sol.values), direct.total_flow,
              1e-4);
}

// ---------------------------------------------------------------------
// Demand Pinning
// ---------------------------------------------------------------------

std::vector<double> fig1_volumes(const PathSet& paths) {
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const auto [s, t] = paths.pair(k);
    if (s == 0 && t == 1) volumes[k] = 100.0;
    if (s == 0 && t == 2) volumes[k] = 50.0;
    if (s == 1 && t == 2) volumes[k] = 110.0;
  }
  return volumes;
}

TEST(DemandPinning, ReproducesFig1Gap) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  const std::vector<double> volumes = fig1_volumes(paths);
  DpConfig config;
  config.threshold = 50.0;
  const DpResult dp = solve_demand_pinning(topo, paths, volumes, config);
  ASSERT_EQ(dp.status, lp::SolveStatus::Optimal);
  EXPECT_TRUE(dp.feasible);
  EXPECT_NEAR(dp.total_flow, 160.0, 1e-6);  // the paper's DP value
  EXPECT_NEAR(dp.pinned_flow, 50.0, 1e-9);
  EXPECT_EQ(dp.num_pinned, 1);

  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  EXPECT_NEAR(opt.total_flow - dp.total_flow, 100.0, 1e-6);  // gap = 100
}

TEST(DemandPinning, NoPinsAboveThreshold) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  std::vector<double> volumes = fig1_volumes(paths);
  DpConfig config;
  config.threshold = 10.0;  // demand 50 no longer pinned
  const DpResult dp = solve_demand_pinning(topo, paths, volumes, config);
  ASSERT_TRUE(dp.feasible);
  // Pairs without any path are skipped entirely; all three real demands
  // sit above the threshold, so nothing is pinned.
  EXPECT_EQ(dp.num_pinned, 0);
  EXPECT_NEAR(dp.total_flow, 260.0, 1e-6);  // now DP matches OPT
}

TEST(DemandPinning, DetectsInfeasibleOversubscription) {
  // Two small demands pinned onto the same 0-1 link of a line exceed it.
  Topology topo(3, "tiny");
  topo.add_edge(0, 1, 50.0);
  topo.add_edge(1, 2, 50.0);
  const PathSet paths(topo, {{0, 1}, {0, 2}}, 1);
  DpConfig config;
  config.threshold = 40.0;
  const DpResult dp = solve_demand_pinning(topo, paths, {30.0, 30.0}, config);
  EXPECT_FALSE(dp.feasible);
  EXPECT_EQ(dp.status, lp::SolveStatus::Infeasible);
}

/// Brute-force DP encoding check: materialize the DP inner problem with
/// the indicator binaries and concrete demands, solve with B&B, compare
/// against the procedural heuristic.
void check_dp_encoding_matches(const Topology& topo, const PathSet& paths,
                               const std::vector<double>& volumes,
                               const DpConfig& config) {
  const DpResult direct = solve_demand_pinning(topo, paths, volumes, config);

  lp::Model model;
  std::vector<lp::Var> demand_vars;
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    demand_vars.push_back(
        model.add_var("d" + std::to_string(k), volumes[k], volumes[k]));
  }
  DpEncoding enc =
      build_demand_pinning(model, topo, paths, demand_vars, config);
  kkt::materialize_constraints(model, enc.inner);
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  mip::MipOptions opt;
  opt.time_limit_seconds = 60.0;
  const auto sol = mip::BranchAndBound(opt).solve(model);
  if (!direct.feasible) {
    EXPECT_EQ(sol.status, lp::SolveStatus::Infeasible);
    return;
  }
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, direct.total_flow, 1e-4);
}

TEST(DemandPinning, EncodingMatchesProceduralOnFig1) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  DpConfig config;
  config.threshold = 50.0;
  config.demand_ub = 200.0;
  check_dp_encoding_matches(topo, paths, fig1_volumes(paths), config);
}

class DpEncodingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DpEncodingPropertyTest, EncodingMatchesProceduralRandom) {
  const Topology topo = topologies::circulant(6, 1);
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(100 + GetParam()));
  std::vector<double> volumes = volumes_of(gen.uniform(0.0, 150.0));
  DpConfig config;
  config.threshold = 60.0;
  config.demand_ub = 150.0;
  // Keep volumes clear of the indicator epsilon band.
  for (double& v : volumes) {
    if (v > config.threshold && v < config.threshold + 2 * config.epsilon) {
      v = config.threshold;
    }
  }
  check_dp_encoding_matches(topo, paths, volumes, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpEncodingPropertyTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// POP
// ---------------------------------------------------------------------

TEST(Pop, RandomPartitionIsBalancedAndDeterministic) {
  util::Rng rng(9);
  const auto a = random_partition(10, 2, rng);
  std::vector<int> counts(2, 0);
  for (int p : a) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 2);
    ++counts[p];
  }
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(counts[1], 5);
  util::Rng rng2(9);
  EXPECT_EQ(random_partition(10, 2, rng2), a);
}

TEST(Pop, OnePartitionEqualsOpt) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(21));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 100.0));
  PopConfig config;
  config.num_partitions = 1;
  const PopResult pop = solve_pop(topo, paths, volumes, config);
  const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
  ASSERT_EQ(pop.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(pop.total_flow, opt.total_flow, 1e-5);
}

TEST(Pop, NeverBeatsOpt) {
  const Topology topo = topologies::b4();
  const PathSet paths = make_paths(topo, 2);
  for (int seed = 1; seed <= 3; ++seed) {
    DemandGenerator gen(topo, util::Rng(30 + seed));
    const std::vector<double> volumes = volumes_of(gen.gravity(80.0));
    const MaxFlowResult opt = solve_max_flow(topo, paths, volumes);
    PopConfig config;
    config.num_partitions = 4;
    config.seed = seed;
    const PopResult pop = solve_pop(topo, paths, volumes, config);
    ASSERT_EQ(pop.status, lp::SolveStatus::Optimal);
    EXPECT_LE(pop.total_flow, opt.total_flow + 1e-6);
  }
}

TEST(Pop, EncodingMatchesProcedural) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(55));
  const std::vector<double> volumes = volumes_of(gen.uniform(0.0, 90.0));
  PopConfig config;
  config.num_partitions = 2;
  config.seed = 7;
  const PopResult direct = solve_pop(topo, paths, volumes, config);
  ASSERT_EQ(direct.status, lp::SolveStatus::Optimal);

  lp::Model model;
  std::vector<lp::LinExpr> demand;
  for (double v : volumes) demand.emplace_back(v);
  PopEncoding enc = build_pop(model, topo, paths, demand, config);
  lp::LinExpr total;
  for (FlowEncoding& part : enc.partitions) {
    kkt::materialize_constraints(model, part.inner);
  }
  model.set_objective(lp::ObjSense::Maximize, enc.total_flow);
  const auto sol = lp::SimplexSolver().solve(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, direct.total_flow, 1e-5);
}

TEST(Pop, MorePartitionsNeverHelp) {
  // With capacities split c ways, POP's value decreases (weakly) in c
  // for a fixed seed universe on a saturated workload.
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  DemandGenerator gen(topo, util::Rng(77));
  const std::vector<double> volumes = volumes_of(gen.uniform(100.0, 300.0));
  double prev = 1e300;
  for (int c : {1, 2, 4}) {
    double mean = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      PopConfig config;
      config.num_partitions = c;
      config.seed = seed;
      mean += solve_pop(topo, paths, volumes, config).total_flow / 4.0;
    }
    EXPECT_LE(mean, prev + 1e-6) << "partitions=" << c;
    prev = mean;
  }
}

// ---------------------------------------------------------------------
// Zero-volume pairs in direct solves
// ---------------------------------------------------------------------
//
// solve_max_flow leaves zero-volume pairs out of its LP. The reference
// here is the full LP over every included pair, built with
// build_max_flow like the single-shot encodings. The corpus seed comes
// from METAOPT_FUZZ_SEED when set (the fuzz CI job rotates it);
// reproduce a red run with METAOPT_FUZZ_SEED=<seed> ./te_test.

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("METAOPT_FUZZ_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 20261020;
}

double metric(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::MetricValue* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// 1e-9 relative to `scale`, absolute below 1.
double tol(double scale) { return 1e-9 * std::max(1.0, std::abs(scale)); }

lp::Solution solve_full_lp(const Topology& topo, const PathSet& paths,
                           const std::vector<double>& volumes,
                           const MaxFlowOptions& options) {
  lp::Model model;
  std::vector<lp::LinExpr> demand;
  for (double v : volumes) demand.emplace_back(v);
  const FlowEncoding enc =
      build_max_flow(model, topo, paths, demand, "ref.", options);
  kkt::materialize(model, enc.inner);
  return lp::SimplexSolver().solve(model);
}

/// Masked pairs return empty entries, zero-volume pairs exact zeros, and
/// the flows satisfy every volume and capacity row and sum to the total.
void expect_flows_feasible(const Topology& topo, const PathSet& paths,
                           const std::vector<double>& volumes,
                           const MaxFlowOptions& options,
                           const MaxFlowResult& got) {
  ASSERT_EQ(got.path_flow.size(), volumes.size());
  double total = 0.0;
  for (int k = 0; k < paths.num_pairs(); ++k) {
    const std::vector<double>& flow = got.path_flow[k];
    if (options.include && !(*options.include)[k]) {
      EXPECT_TRUE(flow.empty()) << "masked pair " << k;
      continue;
    }
    ASSERT_EQ(flow.size(), paths.paths(k).size()) << "pair " << k;
    double carried = 0.0;
    for (double f : flow) {
      if (volumes[k] == 0.0) {
        EXPECT_EQ(f, 0.0) << "zero-volume pair " << k;
      }
      EXPECT_GE(f, -tol(volumes[k])) << "pair " << k;
      carried += f;
    }
    EXPECT_LE(carried, volumes[k] + tol(volumes[k])) << "pair " << k;
    total += carried;
  }
  EXPECT_NEAR(total, got.total_flow, tol(got.total_flow));
  const std::vector<double> load = edge_loads(topo, paths, got.path_flow);
  for (int e = 0; e < topo.num_edges(); ++e) {
    const double cap = topo.edge(e).capacity * options.capacity_scale;
    EXPECT_LE(load[e], cap + tol(cap)) << "edge " << e;
  }
}

/// solve_max_flow against the full LP on one input.
void expect_matches_full_lp(const Topology& topo, const PathSet& paths,
                            const std::vector<double>& volumes,
                            const MaxFlowOptions& options = {}) {
  const MaxFlowResult got = solve_max_flow(topo, paths, volumes, options);
  const lp::Solution want = solve_full_lp(topo, paths, volumes, options);
  ASSERT_EQ(got.status, want.status);
  if (want.status != lp::SolveStatus::Optimal) return;
  EXPECT_NEAR(got.total_flow, want.objective, tol(want.objective));
  expect_flows_feasible(topo, paths, volumes, options, got);
}

/// A volume vector on `support` (empty = every pair) with a quarter of
/// the supported pairs at exactly zero; pairs off the support are zero.
std::vector<double> draw_volumes(util::Rng& rng, const Topology& topo,
                                 int num_pairs,
                                 const std::vector<bool>& support) {
  std::vector<double> volumes(num_pairs, 0.0);
  for (int k = 0; k < num_pairs; ++k) {
    if (!support.empty() && !support[k]) continue;
    if (!rng.bernoulli(0.25)) {
      volumes[k] = rng.uniform(0.0, topo.max_capacity());
    }
  }
  return volumes;
}

TEST(MaxFlow, ZeroVolumePairsLeaveTheLp) {
  const std::uint64_t seed = fuzz_seed();
  SCOPED_TRACE("METAOPT_FUZZ_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  constexpr int kDraws = 100;

  const Topology b4 = topologies::b4();
  const Topology abilene = topologies::abilene();
  const PathSet b4_paths = make_paths(b4, 2);
  const PathSet abilene_paths = make_paths(abilene, 2);
  struct Shape {
    const char* name;
    const Topology& topo;
    const PathSet& paths;
    std::vector<bool> support;
  };
  const Shape shapes[] = {
      {"b4, 20-pair support", b4, b4_paths,
       domains::make_support_mask(b4_paths.num_pairs(), 20)},
      {"b4, full support", b4, b4_paths, {}},
      {"abilene, full support", abilene, abilene_paths, {}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    for (int draw = 0; draw < kDraws; ++draw) {
      SCOPED_TRACE("draw " + std::to_string(draw));
      const std::vector<double> volumes = draw_volumes(
          rng, shape.topo, shape.paths.num_pairs(), shape.support);
      expect_matches_full_lp(shape.topo, shape.paths, volumes);
      // Every other draw also masks out about a third of the pairs.
      if (draw % 2 == 1) {
        std::vector<bool> include(volumes.size());
        for (std::size_t k = 0; k < include.size(); ++k) {
          include[k] = !rng.bernoulli(0.3);
        }
        expect_matches_full_lp(shape.topo, shape.paths, volumes,
                               MaxFlowOptions{.include = &include});
      }
    }
  }

  // POP partitions: each partition is a masked, scaled direct solve.
  for (int draw = 0; draw < kDraws; ++draw) {
    SCOPED_TRACE("pop draw " + std::to_string(draw));
    const std::vector<double> volumes =
        draw_volumes(rng, b4, b4_paths.num_pairs(), {});
    PopConfig config;
    config.num_partitions = 2 + draw % 3;
    config.seed = seed + static_cast<std::uint64_t>(draw);
    const PopResult pop = solve_pop(b4, b4_paths, volumes, config);
    ASSERT_EQ(pop.status, lp::SolveStatus::Optimal);
    util::Rng part_rng(config.seed);
    const std::vector<int> assignment =
        random_partition(b4_paths.num_pairs(), config.num_partitions, part_rng);
    double total = 0.0;
    for (int part = 0; part < config.num_partitions; ++part) {
      std::vector<bool> include(assignment.size());
      for (std::size_t k = 0; k < include.size(); ++k) {
        include[k] = assignment[k] == part;
      }
      const lp::Solution full = solve_full_lp(
          b4, b4_paths, volumes,
          MaxFlowOptions{.capacity_scale = 1.0 / config.num_partitions,
                         .include = &include});
      ASSERT_EQ(full.status, lp::SolveStatus::Optimal);
      EXPECT_NEAR(pop.per_partition_flow[part], full.objective,
                  tol(full.objective));
      total += full.objective;
    }
    EXPECT_NEAR(pop.total_flow, total, tol(total));
  }

  // Edge inputs.
  const Topology fig1 = topologies::fig1();
  const PathSet fig1_paths = make_paths(fig1, 2);
  {
    SCOPED_TRACE("all zero: an empty LP");
    const std::vector<double> zeros(b4_paths.num_pairs(), 0.0);
    const MaxFlowResult got = solve_max_flow(b4, b4_paths, zeros);
    ASSERT_EQ(got.status, lp::SolveStatus::Optimal);
    EXPECT_EQ(got.total_flow, 0.0);
    expect_flows_feasible(b4, b4_paths, zeros, {}, got);
    expect_matches_full_lp(b4, b4_paths, zeros);
  }
  std::vector<double> volumes = fig1_volumes(fig1_paths);
  int victim = 0;  // Fig. 1's 1->3 demand of 50
  while (fig1_paths.pair(victim) != std::pair<net::NodeId, net::NodeId>{0, 2}) {
    ++victim;
  }
  {
    SCOPED_TRACE("-0.0 is an exact zero");
    volumes[victim] = -0.0;
    expect_matches_full_lp(fig1, fig1_paths, volumes);
  }
  {
    SCOPED_TRACE("a zero-volume pair that is also masked out");
    std::vector<bool> include(volumes.size(), true);
    include[victim] = false;
    expect_matches_full_lp(fig1, fig1_paths, volumes,
                           MaxFlowOptions{.include = &include});
  }
  {
    SCOPED_TRACE("a negative volume stays in the LP");
    volumes[victim] = -5.0;
    EXPECT_EQ(solve_max_flow(fig1, fig1_paths, volumes).status,
              lp::SolveStatus::Infeasible);
    expect_matches_full_lp(fig1, fig1_paths, volumes);
  }
}

TEST(MaxFlow, CountsSkippedZeroVolumePairs) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  std::vector<int> routable;  // pairs with paths; the others have no LP
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (!paths.paths(k).empty()) routable.push_back(k);
  }
  obs::set_enabled(true);
  for (std::size_t zeros = 0; zeros <= routable.size(); ++zeros) {
    std::vector<double> volumes(paths.num_pairs(), 40.0);
    for (std::size_t i = 0; i < zeros; ++i) volumes[routable[i]] = 0.0;
    const obs::MetricsSnapshot before = obs::snapshot();
    ASSERT_EQ(solve_max_flow(topo, paths, volumes).status,
              lp::SolveStatus::Optimal);
    const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
    EXPECT_EQ(metric(d, "te.flow_solves"), 1.0);
    EXPECT_EQ(metric(d, "te.flow_pairs_skipped"), zeros);
  }
  // A masked-out pair is not a skipped one, whatever its volume.
  std::vector<double> volumes(paths.num_pairs(), 0.0);
  std::vector<bool> include(paths.num_pairs(), false);
  include[routable[0]] = true;
  const obs::MetricsSnapshot before = obs::snapshot();
  solve_max_flow(topo, paths, volumes, MaxFlowOptions{.include = &include});
  const obs::MetricsSnapshot d = obs::diff(before, obs::snapshot());
  obs::set_enabled(false);
  EXPECT_EQ(metric(d, "te.flow_pairs_skipped"), 1.0);
}

// ---------------------------------------------------------------------
// Gap oracles
// ---------------------------------------------------------------------

TEST(GapOracles, DpOracleReproducesFig1) {
  const Topology topo = topologies::fig1();
  const PathSet paths = make_paths(topo, 2);
  DpConfig config;
  config.threshold = 50.0;
  DpGapOracle oracle(topo, paths, config);
  const GapResult gap = oracle.evaluate(fig1_volumes(paths));
  EXPECT_NEAR(gap.opt, 260.0, 1e-6);
  EXPECT_NEAR(gap.heur, 160.0, 1e-6);
  EXPECT_NEAR(gap.gap(), 100.0, 1e-6);
  EXPECT_EQ(oracle.evaluations(), 1);
}

TEST(GapOracles, InfeasibleDpInputYieldsNegativeGap) {
  Topology topo(3, "tiny");
  topo.add_edge(0, 1, 50.0);
  topo.add_edge(1, 2, 50.0);
  const PathSet paths(topo, {{0, 1}, {0, 2}}, 1);
  DpConfig config;
  config.threshold = 40.0;
  DpGapOracle oracle(topo, paths, config);
  const GapResult gap = oracle.evaluate({30.0, 30.0});
  EXPECT_FALSE(gap.heuristic_feasible);
  EXPECT_LT(gap.gap(), 0.0);
}

TEST(GapOracles, PopOracleAveragesInstances) {
  const Topology topo = topologies::abilene();
  const PathSet paths = make_paths(topo, 2);
  PopConfig config;
  config.num_partitions = 2;
  PopGapOracle oracle(topo, paths, config, {1, 2, 3});
  DemandGenerator gen(topo, util::Rng(88));
  const std::vector<double> volumes = volumes_of(gen.uniform(50.0, 250.0));
  const GapResult gap = oracle.evaluate(volumes);
  ASSERT_EQ(gap.status, lp::SolveStatus::Optimal);
  const std::vector<double> per = oracle.per_instance_heur(volumes);
  ASSERT_EQ(per.size(), 3u);
  EXPECT_NEAR(gap.heur, (per[0] + per[1] + per[2]) / 3.0, 1e-9);
  EXPECT_GE(gap.gap(), -1e-9);  // POP can't beat OPT
}

}  // namespace
}  // namespace metaopt::te
