#include "binpack/adversarial.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "binpack/encoding.h"
#include "core/bilevel.h"

namespace metaopt::binpack {

namespace {

using Vec = core::BilevelHooks::Vec;

/// Clamps to the leader box and (for FFD) stably sorts the item blocks
/// by decreasing key, the canonical representative the sortedness rows
/// demand. Permuting items never changes what FFD or OPT see.
std::vector<double> canonical_sizes(std::vector<double> vols,
                                    const BinPackConfig& config) {
  const double ub = config.ub();
  for (double& v : vols) v = std::clamp(v, 0.0, ub);
  if (!config.decreasing) return vols;
  const int n = config.items;
  const int d = config.dims;
  std::vector<double> key(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < d; ++t) key[i] += vols[i * d + t];
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return key[a] > key[b]; });
  std::vector<double> out(vols.size());
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < d; ++t) out[r * d + t] = vols[order[r] * d + t];
  }
  return out;
}

}  // namespace

std::vector<double> quantize_levels(const BinPackConfig& config) {
  const double c = config.capacity;
  const double e = config.epsilon;
  const double ub = config.ub();
  std::vector<double> levels = {0.0,          0.26 * c, c / 4.0 + 2.0 * e,
                                c / 3.0 + 2.0 * e, 0.45 * c, c / 2.0 + 2.0 * e,
                                ub};
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  levels.erase(std::remove_if(levels.begin(), levels.end(),
                              [&](double l) { return l > ub; }),
               levels.end());
  return levels;
}

std::vector<double> worst_case_family(const BinPackConfig& config) {
  const int n = config.items;
  const int d = config.dims;
  const double a = std::min(0.45 * config.capacity, config.ub());
  const double b = std::min(0.26 * config.capacity, config.ub());
  const int groups = n / 3;
  std::vector<double> sizes(static_cast<std::size_t>(n) * d, 0.0);
  for (int i = 0; i < n; ++i) {
    const double v = i < groups ? a : (i < 3 * groups ? b : 0.0);
    for (int t = 0; t < d; ++t) sizes[i * d + t] = v;
  }
  return sizes;
}

heur::GapFindResult find_ffd_gap(const BinPackConfig& config,
                                 const heur::FindOptions& options) {
  const int n = config.items;
  const int d = config.dims;
  const double ub = config.ub();

  core::BilevelProblem problem(core::Rewrite::Kkt, ub);
  for (int k = 0; k < n * d; ++k) {  // item-major: s[i] or s[i,t]
    const std::string item = std::to_string(k / d);
    problem.add_leader(true, d == 1 ? "s[" + item + "]"
                                    : "s[" + item + "," +
                                          std::to_string(k % d) + "]");
  }
  FfdEncoding enc = build_ffd(problem.model, problem.leader, config,
                              config.decreasing ? "ffd." : "ff.");
  const lp::LinExpr opt = problem.add_follower(std::move(enc.inner), "opt.");
  // Embedded objective: FF bins minus the volume-LP OPT bound — an
  // upper-bounding surrogate of the true gap (encoding.h). The rescore
  // hook below replaces it with exact scores.
  problem.set_gap(opt, enc.bins_used, lp::ObjSense::Minimize);
  problem.normalizer = config.num_bins();
  const BinPackGapOracle oracle(config);
  // --certify turns certification on; otherwise the build default holds.
  auto certified = [&](mip::MipOptions m) {
    if (options.certify) m.certify = m.lp.certify = true;
    return m;
  };

  core::BilevelHooks hooks;
  hooks.lift = [&](Vec& x, Vec& assign) {
    x = canonical_sizes(std::move(x), config);
    return complete_ffd_assignment(enc, x, assign).has_value();
  };
  const std::vector<double> levels = quantize_levels(config);
  // Fractional relaxation points usually land in the epsilon dead band;
  // rounded variants snap out of it. Grid rounding keeps local
  // structure, level snapping jumps to the §5 extremum levels.
  hooks.roundings = [&](const Vec& raw) {
    const double grid = 0.01 * config.capacity;
    Vec rounded = raw;
    for (double& v : rounded) {
      v = std::clamp(std::round(v / grid) * grid, 0.0, ub);
    }
    return std::vector<Vec>{std::move(rounded),
                            core::snap_to_levels(raw, levels)};
  };
  // Seed candidates: the worst-case family, a quantized climb over the
  // packing-breakpoint levels, and a continuous polish. The family is
  // deterministic (a pure function of the config), so it rides along
  // even when the wall-clock-budgeted black-box pass is disabled; every
  // trial survives to the rescore as an exact-rescore candidate.
  hooks.oracle = &oracle;
  hooks.levels = levels;
  hooks.quantized_share = 0.6;
  hooks.fixed_trials = {worst_case_family(config)};

  // The embedded objective is an upper-bounding surrogate (volume-LP
  // OPT), and its maximizer can have a SMALLER true gap than a point it
  // dominates: n items just over C/2 score bins - volume ~ n/2 in the
  // surrogate but re-solve to gap 0 (OPT needs n bins too), while the
  // 0.45/0.26 family scores ~1 and re-solves to a genuine gap of n/6.
  // So the reported answer is the argmax of the exact gap (simulated
  // first-fit + assignment-MIP OPT) over the B&B incumbent AND the seed
  // trials; the surrogate decides nothing beyond the B&B's own pruning.
  hooks.rescore = [&](const std::vector<Vec>& trials,
                      heur::GapFindResult& result) {
    std::vector<Vec> candidates;
    if (result.has_solution()) candidates.push_back(result.volumes);
    for (const Vec& t : trials) {
      candidates.push_back(canonical_sizes(t, config));
    }
    const mip::MipOptions opt_mip = certified(default_opt_mip());
    result.certified = false;
    bool have_exact = false;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (std::find(candidates.begin(), candidates.begin() + c,
                    candidates[c]) != candidates.begin() + c) {
        continue;  // duplicate; keep one OPT re-solve per distinct point
      }
      const FirstFitResult ff = simulate_first_fit(candidates[c], config);
      if (!ff.feasible) continue;
      const OptBinResult opt_bins =
          solve_opt_bins(candidates[c], config, opt_mip);
      if (opt_bins.status != lp::SolveStatus::Optimal) continue;
      const double gap = static_cast<double>(ff.bins_used - opt_bins.bins_used);
      // Strict improvement only: ties keep the earliest candidate (the
      // B&B incumbent when it has one), so reruns stay deterministic.
      if (have_exact && gap <= result.gap) continue;
      have_exact = true;
      result.volumes = candidates[c];
      result.gap = gap;
      result.heur_value = ff.bins_used;
      result.opt_value = opt_bins.bins_used;
      result.certified = opt_bins.certified;
    }
    if (!have_exact && result.has_solution()) {
      // No OPT re-solve finished inside its budget: keep the surrogate
      // values for the B&B incumbent rather than report nothing.
      result.heur_value = simulate_first_fit(result.volumes, config).bins_used;
    }
  };

  mip::MipOptions mip = certified({});
  mip.threads = options.mip_threads;
  mip.lp.pricing = options.pricing;
  mip.time_limit_seconds = options.budget_seconds;
  return core::solve_bilevel(problem, hooks, mip, options.seed_search_seconds);
}

}  // namespace metaopt::binpack
