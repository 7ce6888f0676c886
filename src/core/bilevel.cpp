#include "core/bilevel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "kkt/materialize.h"
#include "kkt/parametric.h"
#include "kkt/primal_dual.h"
#include "obs/obs.h"
#include "search/search.h"

namespace metaopt::core {

void BilevelProblem::add_leader(bool in, const std::string& name) {
  leader.push_back(in ? model.add_var(name, 0.0, ub) : lp::Var{});
  include.push_back(in);
}

lp::LinExpr BilevelProblem::add_follower(kkt::InnerProblem inner,
                                         const std::string& prefix) {
  Follower& f = followers.emplace_back(Follower{std::move(inner), {}});
  switch (rewrite) {
    case Rewrite::Kkt:
      f.kkt = kkt::emit_kkt(model, f.inner, prefix);
      return f.kkt.objective_expr;
    case Rewrite::PrimalDual:
      return kkt::emit_primal_dual(model, f.inner, prefix).objective_expr;
    case Rewrite::Materialize:
      kkt::materialize_constraints(model, f.inner);
      break;
  }
  return {};
}

void BilevelProblem::set_gap(lp::LinExpr opt, lp::LinExpr heur,
                             lp::ObjSense sense) {
  model.set_objective(lp::ObjSense::Maximize,
                      sense == lp::ObjSense::Maximize ? opt - heur
                                                      : heur - opt);
  opt_value = std::move(opt);
  heur_value = std::move(heur);
}

std::vector<double> snap_to_levels(std::vector<double> x,
                                   const std::vector<double>& levels) {
  for (double& v : x) {
    double pick = levels.front();
    for (const double l : levels) {
      if (std::abs(v - l) < std::abs(v - pick)) pick = l;
    }
    v = pick;
  }
  return x;
}

std::vector<double> round_to_box(std::vector<double> x, double cutoff,
                                 double ub) {
  for (double& v : x) v = v >= cutoff * ub ? ub : 0.0;
  return x;
}

namespace {

using Vec = BilevelHooks::Vec;
using Candidate = std::pair<double, Vec>;

const obs::Counter c_assemblies = obs::counter("bilevel.assemblies");
const obs::Counter c_memo_hits = obs::counter("bilevel.memo_hits");

/// What the primal heuristic remembers about one leader vector.
/// Assembly is a pure function of the vector, so a repeat needs only
/// its objective. Once `offered`, the B&B has been handed the candidate
/// and would reject it again: incumbents only rise and its feasibility
/// screen is deterministic.
struct MemoEntry {
  std::optional<double> objective;  ///< nullopt: assembly failed
  bool offered = false;
};
/// The exact bit patterns of a leader vector's in-support slots.
using MemoKey = std::vector<std::uint64_t>;

MemoKey memo_key(const BilevelProblem& p, const Vec& x) {
  MemoKey key;
  key.reserve(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (p.include[k]) {
      key.push_back(std::bit_cast<std::uint64_t>(x[k]));
    } else {
      assert(x[k] == 0.0 && "masked-out leader slot must be zero");
    }
  }
  return key;
}

/// Leader vector at a model point, clamped to the box (0 when masked).
Vec leader_values(const BilevelProblem& p, const Vec& values) {
  Vec x(p.leader.size(), 0.0);
  for (std::size_t k = 0; k < p.leader.size(); ++k) {
    if (p.leader[k].valid()) {
      x[k] = std::clamp(values[p.leader[k].id], 0.0, p.ub);
    }
  }
  return x;
}

/// Keeps the strictly better candidate; ties keep the earlier one.
void keep_better(std::optional<Candidate>& best,
                 std::optional<Candidate> cand) {
  if (cand && (!best || cand->first > best->first)) best = std::move(cand);
}

/// Seed inputs: the fixed trials, then a quantized climb polished by a
/// hill climb, both over the leader mask.
std::vector<Vec> seed_trials(const BilevelProblem& p, const BilevelHooks& h,
                             double seconds) {
  std::vector<Vec> trials = h.fixed_trials;
  if (seconds <= 0.0 || h.oracle == nullptr) return trials;
  const heur::MaskedGapOracle masked(*h.oracle, p.include);
  search::SearchOptions options;
  options.demand_ub = p.ub;
  options.levels = h.levels;
  options.time_limit_seconds = h.quantized_share * seconds;
  const search::SearchResult seed = search::quantized_climb(masked, options);
  options.time_limit_seconds = (1.0 - h.quantized_share) * seconds;
  options.initial_point = seed.best_volumes;
  const search::SearchResult polished = search::hill_climb(masked, options);
  if (h.rescore) {
    trials.push_back(masked.expand(seed.best_volumes));
    trials.push_back(masked.expand(polished.best_volumes));
  } else {
    const search::SearchResult& best =
        polished.best.gap() > seed.best.gap() ? polished : seed;
    if (best.best.gap() > 0.0) {
      trials.push_back(masked.expand(best.best_volumes));
    }
  }
  return trials;
}

}  // namespace

heur::GapFindResult solve_bilevel(const BilevelProblem& p,
                                  const BilevelHooks& h, mip::MipOptions mip,
                                  double seed_search_seconds,
                                  bool use_primal_heuristic) {
  heur::GapFindResult result;
  result.stats = p.model.stats();

  // Lifts a leader vector into a complete feasible single-shot
  // assignment via direct follower re-solves (kkt/parametric.h).
  auto assemble = [&](Vec x) -> std::optional<Candidate> {
    c_assemblies.inc();
    Vec assign(p.model.num_vars(), 0.0);
    if (h.lift && !h.lift(x, assign)) return std::nullopt;
    for (std::size_t k = 0; k < p.leader.size(); ++k) {
      if (p.leader[k].valid()) assign[p.leader[k].id] = x[k];
    }
    for (const Follower& f : p.followers) {
      const kkt::ParametricSolve ps =
          kkt::solve_inner_at(f.inner, p.model, assign);
      if (!kkt::assemble_kkt_point(p.model, f.inner, f.kkt, ps, assign)) {
        return std::nullopt;
      }
    }
    if (h.finish) h.finish(assign);
    return Candidate(p.model.objective_value(assign), std::move(assign));
  };

  // Primal-heuristic memo for this find only; seed trials bypass it (a
  // seed is pushed only when its objective is > 0, so assembling one
  // does not make it offered). Worker threads share it.
  std::mutex memo_mutex;
  std::map<MemoKey, MemoEntry> memo;

  mip::MipCallbacks callbacks;
  if (use_primal_heuristic) {
    callbacks.primal_heuristic =
        [&](const Vec& relax) -> std::optional<Candidate> {
      std::vector<Vec> xs{leader_values(p, relax)};
      if (h.roundings) {
        for (Vec& v : h.roundings(xs.front())) xs.push_back(std::move(v));
      }
      // Raw vector first, then the roundings; strictly better wins and
      // ties keep the earlier. Repeats compete with their memo objective.
      std::optional<double> best_obj;
      std::size_t best = 0;
      MemoKey best_key;
      std::optional<Candidate> fresh;  // the winner, when assembled here
      for (std::size_t i = 0; i < xs.size(); ++i) {
        MemoKey key = memo_key(p, xs[i]);
        bool hit = false;
        std::optional<double> obj;
        {
          const std::lock_guard<std::mutex> lock(memo_mutex);
          const auto it = memo.find(key);
          if (it != memo.end()) {
            hit = true;
            obj = it->second.objective;
          }
        }
        std::optional<Candidate> cand;
        if (hit) {
          c_memo_hits.inc();
        } else {
          cand = assemble(xs[i]);
          if (cand) obj = cand->first;
          const std::lock_guard<std::mutex> lock(memo_mutex);
          memo.try_emplace(key, MemoEntry{obj, false});
        }
        if (obj && (!best_obj || *obj > *best_obj)) {
          best_obj = obj;
          best = i;
          best_key = std::move(key);
          fresh = std::move(cand);
        }
      }
      if (!best_obj) return std::nullopt;
      {
        const std::lock_guard<std::mutex> lock(memo_mutex);
        bool& offered = memo.at(best_key).offered;
        if (offered) return std::nullopt;
        offered = true;
      }
      return fresh ? std::move(fresh) : assemble(xs[best]);
    };
  }
  callbacks.on_incumbent = [&](double obj, double /*bnb_sec*/, const Vec&) {
    // Trace times count from the start of the whole find (seeding
    // included) so Fig. 3 series compose correctly.
    result.trace.emplace_back(p.watch.seconds(), obj);
  };

  // Accepted initial incumbents flow through on_incumbent, which records
  // the trace entry.
  const std::vector<Vec> trials = seed_trials(p, h, seed_search_seconds);
  std::optional<Candidate> seed;
  for (const Vec& t : trials) keep_better(seed, assemble(t));
  if (seed && seed->first > 0.0) {
    callbacks.initial_incumbents.push_back(std::move(*seed));
  }

  mip.time_limit_seconds =
      std::max(1e-3, mip.time_limit_seconds - p.watch.seconds());
  const lp::Solution sol = mip::BranchAndBound(mip).solve(p.model, callbacks);

  result.status = sol.status;
  result.nodes = sol.iterations;
  result.bound = sol.best_bound;
  result.certified = sol.certified;
  // A TimeLimit status can arrive without any incumbent: values empty.
  if (sol.has_solution() && !sol.values.empty()) {
    result.gap = sol.objective;
    result.opt_value = p.model.eval(p.opt_value, sol.values);
    result.heur_value = p.model.eval(p.heur_value, sol.values);
    result.volumes = leader_values(p, sol.values);
  }
  if (h.rescore) h.rescore(trials, result);
  result.normalized_gap = result.gap / p.normalizer;
  result.seconds = p.watch.seconds();
  return result;
}

}  // namespace metaopt::core
