// The paper's contribution: provable adversarial-input search (Eq. 1).
//
//   argmax_{d in ConstrainedSet}  OPT(d) - Heuristic(d)
//
// Both followers are embedded as KKT systems (§3.1) in one single-shot
// model solved by branch-and-bound over the complementarity pairs and
// big-M binaries. At every node, the candidate demand vector is
// re-evaluated with the small direct LPs and lifted to a full feasible
// assignment (kkt/parametric.h), so each incumbent is a *genuine*
// adversarial input with an exactly known gap, and the branch-and-bound
// bound certifies how far it can be from the worst case.
//
// POP support follows §3.2: the heuristic objective is the empirical
// mean of several partition instantiations (or, via
// core/sorting_network.h, a sorting-network tail percentile).
//
// The find pipeline itself is core/bilevel.h; this layer supplies the
// TE leader, the follower encodings and the family hooks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bilevel.h"
#include "core/input_constraints.h"
#include "core/sorting_network.h"
#include "heur/instance.h"
#include "lp/model.h"
#include "mip/branch_and_bound.h"
#include "net/topology.h"
#include "te/demand_pinning.h"
#include "te/path_set.h"
#include "te/client_split.h"
#include "te/pop.h"

namespace metaopt::core {

struct AdversarialOptions {
  /// Demand box: every adversarial volume in [0, demand_ub];
  /// 0 means "max link capacity".
  double demand_ub = 0.0;
  /// Restrict the adversarial demand support to these pairs (empty =
  /// all pairs). Masked-out pairs are fixed to zero demand — this is the
  /// partially-specified-goalpost trick of §3.3 and the main lever for
  /// problem size (§3's scalability caveat).
  std::vector<bool> pair_mask;
  /// Solver budgets; progress-window / target-gap stops included
  /// (mip::MipOptions, §3.3).
  mip::MipOptions mip;
  /// Realistic input constraints (§3.3) and exclusions (§5).
  InputConstraints constraints;
  /// Drive incumbents through direct re-evaluation (strongly
  /// recommended; off only for ablation).
  bool use_primal_heuristic = true;
  /// Budget for the quantized black-box pass that seeds the first
  /// incumbent (our stand-in for a commercial solver's MIP-start
  /// heuristics; §5's extremum-point observation). 0 disables.
  double seed_search_seconds = 3.0;

  AdversarialOptions() { mip.time_limit_seconds = 60.0; }
};

/// The result shape is shared with every other heuristic domain now
/// (heur/instance.h); the TE name survives as an alias.
using AdversarialResult = heur::GapFindResult;

/// Deterministic descriptor of the random POP(I) targeted by the search
/// (§3.2): the empirical mean over the instantiation seeds, or an order
/// statistic extracted with a sorting network.
struct PopObjective {
  enum class Kind { Mean, Percentile };
  Kind kind = Kind::Mean;
  /// Order statistic as a fraction from the *worst* (lowest-value)
  /// instantiation: 0 = worst outcome, 1 = best. Only for Percentile.
  double percentile = 0.0;
};

class AdversarialGapFinder {
 public:
  AdversarialGapFinder(const net::Topology& topo, const te::PathSet& paths)
      : topo_(topo), paths_(paths) {}

  /// Worst-case gap of Demand Pinning vs OPT.
  [[nodiscard]] AdversarialResult find_dp_gap(
      const te::DpConfig& config, const AdversarialOptions& options) const;

  /// Worst-case gap of POP vs OPT over the given partition
  /// instantiation seeds (§3.2; one seed reproduces the single-instance
  /// column of Fig. 5a). By default targets the expected gap; pass a
  /// Percentile objective to target a tail instantiation instead.
  [[nodiscard]] AdversarialResult find_pop_gap(
      const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options,
      const PopObjective& objective = PopObjective()) const;

  /// Worst-case expected gap of the full POP heuristic *with client
  /// splitting* (Appendix A) vs OPT, over the instantiation seeds.
  [[nodiscard]] AdversarialResult find_pop_cs_gap(
      const te::PopConfig& config, const te::ClientSplitConfig& cs_config,
      const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options) const;

  /// Model-size accounting for Fig. 6: the metaopt model vs the plain
  /// heuristic and OPT models.
  struct ProblemSizes {
    lp::ModelStats metaopt;
    lp::ModelStats heuristic;
    lp::ModelStats opt;
  };
  [[nodiscard]] ProblemSizes dp_problem_sizes(
      const te::DpConfig& config, const AdversarialOptions& options) const;
  [[nodiscard]] ProblemSizes pop_problem_sizes(
      const te::PopConfig& config, const std::vector<std::uint64_t>& seeds,
      const AdversarialOptions& options) const;

 private:
  const net::Topology& topo_;
  const te::PathSet& paths_;
};

/// Traffic-engineering leader and follower encoders. One builder for
/// every TE model: the finds rewrite each follower with Rewrite::Kkt,
/// GapBounder with Rewrite::PrimalDual, and the Fig. 6 size accounting
/// with Rewrite::Materialize, so all three see the same leader, the same
/// encodings and the same variable order.
class TeBilevel {
 public:
  /// Builds the leader: d[k] in [0, ub] for every pair that has a path
  /// and is inside options.pair_mask. Throws std::invalid_argument when
  /// a non-empty pair_mask does not have one entry per pair.
  TeBilevel(const net::Topology& topo, const te::PathSet& paths,
            const AdversarialOptions& options, Rewrite rewrite);

  /// OPT follower (max flow over the leader demands); returns its optimum.
  lp::LinExpr add_opt();
  /// Demand Pinning follower; fills config.demand_ub's default (the
  /// leader box) in place and returns the follower's optimum.
  lp::LinExpr add_dp(te::DpConfig& config, te::DpEncoding* enc = nullptr);
  /// One POP instantiation per seed, each partition a follower; returns
  /// the mean total flow over the instantiations (§3.2).
  lp::LinExpr add_pop(const te::PopConfig& config,
                      const std::vector<std::uint64_t>& seeds,
                      std::vector<te::PopEncoding>* encs = nullptr);
  /// POP with client splitting (Appendix A), same shape as add_pop.
  lp::LinExpr add_pop_cs(const te::PopConfig& config,
                         const te::ClientSplitConfig& cs_config,
                         const std::vector<std::uint64_t>& seeds,
                         std::vector<te::PopCsEncoding>* encs = nullptr);

  /// Applies the input constraints (§3.3) and sets the objective
  /// maximize opt - heur.
  void constrain(lp::LinExpr opt, lp::LinExpr heur);
  /// Lift step shared by the TE finds: the input-constraint auxiliaries
  /// at leader vector `x`; false when x is outside the constrained set.
  bool complete(const std::vector<double>& x,
                std::vector<double>& assign) const;

  /// Runs the find with the TE budgets from the options.
  [[nodiscard]] AdversarialResult solve(const BilevelHooks& hooks) const;

  BilevelProblem problem;

 private:
  const net::Topology& topo_;
  const te::PathSet& paths_;
  const AdversarialOptions& options_;
  std::vector<lp::LinExpr> demand_;  ///< leader as expressions (0 if out)
  ConstraintArtifacts constraints_;
};

}  // namespace metaopt::core
