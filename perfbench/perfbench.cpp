// Fixed-work benchmark driver for metaopt.
//
//   perfbench --workload <dp-b4|pop-b4|ffd-closed|campaign> --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Every operation does a fixed amount of work (a B&B node cap, a proven
// closure, or a black-box evaluation count); wall clocks only decide how
// many times the operation repeats. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0 (observability off), the per-layer metrics with
// --trace 1 (observability on, counters differenced around every public
// call). README.md in this directory lists the workloads, the metrics and
// the layer-to-end-to-end map.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "binpack/encoding.h"
#include "core/adversarial.h"
#include "domains/domains.h"
#include "domains/te_instances.h"
#include "heur/gap.h"
#include "heur/instance.h"
#include "kkt/kkt_rewriter.h"
#include "kkt/parametric.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "obs/obs.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "runner/thread_pool.h"
#include "search/search.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/pop.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace metaopt;

// ---- fixed work per workload (README.md gives the reasons) ----
constexpr long kDpNodes = 1500;
constexpr long kPopNodes = 100;
constexpr int kFfdItems = 9;
constexpr int kClimbs = 5;           // black-box panel: climbs per op
constexpr int kCampaignClimbs = 20;  // cheap fig1 evaluations: more starts
constexpr long kDpClimbEvals = 400;  // evaluations per climb
constexpr long kPopClimbEvals = 100;
constexpr int kFfdFindsPerOp = 4;    // short closed finds: more samples
constexpr int kFfdClimbs = 10;
constexpr long kFfdClimbEvals = 30;  // about one coordinate sweep
constexpr std::uint64_t kFfdClimbSeed = 1;
constexpr long kCampaignClimbEvals = 5000;
constexpr int kSetupReps = 5;        // timed set-ups after every measured op
constexpr int kProbeVectors = 8;     // seeded leader vectors per kkt probe
constexpr int kProbeChildren = 24;   // warm child re-solves per LP probe
constexpr double kSafetySeconds = 60.0;  // wall cap; a hit is a failure
constexpr double kGapTol = 1e-6;

// ---------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident memory of this process image. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across exec, so under run.py it would report
/// the Python parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::uint64_t now_ns() { return util::Stopwatch::now_ns(); }

/// Benchmark-side spans around every public call (trace mode only);
/// written as JSONL when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  void enable() { enabled_ = true; }

  int open(const std::string& name, int parent) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog g_spans;
thread_local int t_current_span = -1;

/// RAII span; its parent is the thread's innermost open span unless an
/// explicit parent id is given (sweep jobs run on scheduler threads).
class ScopedSpan {
 public:
  static constexpr int kCurrent = -2;
  explicit ScopedSpan(const std::string& name, int parent = kCurrent)
      : prev_(t_current_span),
        id_(g_spans.open(name, parent == kCurrent ? t_current_span : parent)) {
    if (id_ >= 0) t_current_span = id_;
  }
  ~ScopedSpan() {
    g_spans.close(id_);
    if (id_ >= 0) t_current_span = prev_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int prev_;
  int id_;
};

/// Counter/histogram deltas of the program's own obs registry around one
/// public call (all zero when obs is off).
struct Delta {
  obs::MetricsSnapshot snap;
  [[nodiscard]] double count(const std::string& name) const {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0.0 : m->value;
  }
  [[nodiscard]] double hist_seconds(const std::string& name) const {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->hist.sum) * 1e-9;
  }
  [[nodiscard]] double hist_count(const std::string& name) const {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->hist.count);
  }
};

template <typename Fn>
Delta measure_counters(Fn&& fn) {
  if (!obs::enabled()) {
    fn();
    return {};
  }
  const obs::MetricsSnapshot before = obs::snapshot();
  fn();
  return {obs::diff(before, obs::snapshot())};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Per-op records

struct FindRecord {
  double wall = 0.0;
  double gap_norm = 0.0;
  double bound_norm = 0.0;
  long nodes = 0;
  Delta delta;
};

struct ClimbPanel {
  double wall = 0.0;
  long evals = 0;
  std::vector<double> gap_norms;  ///< best gap of each climb, normalized
  Delta delta;
};

struct CampaignRecord {
  double wall = 0.0;
  int jobs = 0;
  int width = 1;
  std::vector<double> job_walls;
  std::vector<double> job_overheads;  ///< job wall - solver seconds
  double gap_norm = 0.0;               ///< mean over jobs
  double bound_norm = 0.0;             ///< mean over jobs
  Delta delta;
};

/// One measured operation of any workload.
struct OpRecord {
  std::vector<FindRecord> finds;
  std::optional<ClimbPanel> climbs;
  std::optional<CampaignRecord> campaign;
};

/// Failure accounting for the output gate: every miss is printed, counted
/// against the attempted checks, and fails the run.
struct Gate {
  long attempted = 0;
  long failed = 0;
  long uncertified = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------
// Probes: the single-shot model of a TE workload rebuilt from the public
// encoders (the same construction as core::AdversarialGapFinder), for the
// warm-child node-LP probe and the kkt inner re-solve probe.

struct ProbeModel {
  lp::Model model;
  std::vector<lp::Var> dvars;  ///< invalid for pairs outside the support
  te::FlowEncoding opt_enc;
  kkt::KktArtifacts opt_art;
  std::optional<te::DpEncoding> dp_enc;
  kkt::KktArtifacts dp_art;
  double threshold = 0.0;
  std::vector<te::PopEncoding> pop_encs;
  std::vector<std::vector<kkt::KktArtifacts>> pop_arts;
};

std::unique_ptr<ProbeModel> build_probe_model(
    const domains::TeInstanceBase& inst, const te::DpConfig* dp,
    const te::PopConfig* pop, const std::vector<std::uint64_t>& pop_seeds) {
  auto pm = std::make_unique<ProbeModel>();
  const te::PathSet& paths = inst.paths();
  const net::Topology& topo = inst.topology();
  const std::vector<bool>& mask = inst.pair_mask();
  std::vector<bool> include(paths.num_pairs(), false);
  std::vector<lp::LinExpr> exprs;
  pm->dvars.assign(paths.num_pairs(), lp::Var{});
  for (int k = 0; k < paths.num_pairs(); ++k) {
    include[k] = !paths.paths(k).empty() && (mask.empty() || mask[k]);
    if (include[k]) {
      pm->dvars[k] = pm->model.add_var("d[" + std::to_string(k) + "]", 0.0,
                                       inst.leader_ub());
      exprs.emplace_back(pm->dvars[k]);
    } else {
      exprs.emplace_back(0.0);
    }
  }
  te::MaxFlowOptions mf;
  mf.include = &include;
  pm->opt_enc = te::build_max_flow(pm->model, topo, paths, exprs, "opt.", mf);
  pm->opt_art = kkt::emit_kkt(pm->model, pm->opt_enc.inner, "opt.");
  lp::LinExpr heur;
  if (dp != nullptr) {
    te::DpConfig cfg = *dp;
    cfg.demand_ub = inst.leader_ub();
    pm->threshold = cfg.threshold;
    pm->dp_enc = te::build_demand_pinning(pm->model, topo, paths, pm->dvars,
                                          cfg, "dp.", &include);
    pm->dp_art = kkt::emit_kkt(pm->model, pm->dp_enc->inner, "dp.");
    heur = pm->dp_art.objective_expr;
  } else {
    pm->pop_encs.reserve(pop_seeds.size());
    for (std::size_t r = 0; r < pop_seeds.size(); ++r) {
      te::PopConfig cfg = *pop;
      cfg.seed = pop_seeds[r];
      const std::string prefix = "pop" + std::to_string(r) + ".";
      pm->pop_encs.push_back(
          te::build_pop(pm->model, topo, paths, exprs, cfg, prefix));
      std::vector<kkt::KktArtifacts> arts;
      const te::PopEncoding& enc = pm->pop_encs.back();
      for (std::size_t p = 0; p < enc.partitions.size(); ++p) {
        arts.push_back(kkt::emit_kkt(pm->model, enc.partitions[p].inner,
                                     prefix + std::to_string(p) + "."));
      }
      pm->pop_arts.push_back(std::move(arts));
      heur += (1.0 / static_cast<double>(pop_seeds.size())) *
              pm->pop_encs.back().total_flow;
    }
  }
  pm->model.set_objective(lp::ObjSense::Maximize,
                          pm->opt_art.objective_expr - heur);
  return pm;
}

/// Seconds per warm child re-solve of `model`: one cold root solve, then
/// children that each fix one branching variable (a binary, else one side
/// of a complementarity pair) and re-solve warm from the root basis.
double probe_node_lp(const lp::Model& model) {
  std::vector<double> lb(model.num_vars()), ub(model.num_vars());
  std::vector<int> branch;
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    lb[v] = model.var(v).lb;
    ub[v] = model.var(v).ub;
    if (model.var(v).kind == lp::VarKind::Binary) {
      branch.push_back(static_cast<int>(v));
    }
  }
  const bool binaries = !branch.empty();
  if (!binaries) {
    for (const lp::Complementarity& c : model.complementarities()) {
      branch.push_back(static_cast<int>(c.a));
      branch.push_back(static_cast<int>(c.b));
    }
  }
  if (branch.empty()) return 0.0;
  lp::SimplexOptions opt;
  opt.want_duals = false;
  opt.certify = false;
  lp::WarmStartContext ctx(model, lp::FactorKind::SparseLU);
  long iters = 0;
  if (ctx.engine.solve_cold(opt, lb, ub, &iters) != lp::SolveStatus::Optimal) {
    throw std::runtime_error("node-LP probe: root LP not optimal");
  }
  lp::Basis root;
  ctx.engine.export_basis(root);
  const util::Stopwatch watch;
  for (int k = 0; k < kProbeChildren; ++k) {
    std::vector<double> clb = lb, cub = ub;
    const int b = branch[(static_cast<std::size_t>(k) * 7) % branch.size()];
    if (binaries) {
      clb[b] = cub[b] = static_cast<double>(k % 2);
    } else {
      clb[b] = cub[b] = 0.0;
    }
    long it = 0;
    (void)ctx.engine.solve_warm(opt, clb, cub, root, &it);
  }
  return watch.seconds() / kProbeChildren;
}

/// Seconds per kkt::solve_inner_at + kkt::assemble_kkt_point call at
/// seeded leader vectors on the support.
double probe_inner_solves(const ProbeModel& pm, double ub,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  long calls = 0;
  double seconds = 0.0;
  for (int v = 0; v < kProbeVectors; ++v) {
    std::vector<double> assign(pm.model.num_vars(), 0.0);
    for (std::size_t k = 0; k < pm.dvars.size(); ++k) {
      if (!pm.dvars[k].valid()) continue;
      const double d = rng.uniform(0.0, ub);
      assign[pm.dvars[k].id] = d;
      if (pm.dp_enc && pm.dp_enc->pin[k].valid()) {
        assign[pm.dp_enc->pin[k].id] = d <= pm.threshold ? 1.0 : 0.0;
      }
    }
    auto call = [&](const kkt::InnerProblem& inner,
                    const kkt::KktArtifacts& art) {
      const util::Stopwatch watch;
      const kkt::ParametricSolve ps =
          kkt::solve_inner_at(inner, pm.model, assign);
      (void)kkt::assemble_kkt_point(pm.model, inner, art, ps, assign);
      seconds += watch.seconds();
      ++calls;
    };
    call(pm.opt_enc.inner, pm.opt_art);
    if (pm.dp_enc) call(pm.dp_enc->inner, pm.dp_art);
    for (std::size_t r = 0; r < pm.pop_encs.size(); ++r) {
      for (std::size_t p = 0; p < pm.pop_encs[r].partitions.size(); ++p) {
        call(pm.pop_encs[r].partitions[p].inner, pm.pop_arts[r][p]);
      }
    }
  }
  return ratio(seconds, static_cast<double>(calls));
}

/// Seconds per GapOracle::evaluate at seeded leader vectors.
double probe_oracle(const heur::GapOracle& oracle, double ub,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  const util::Stopwatch watch;
  for (int v = 0; v < kProbeVectors; ++v) {
    std::vector<double> x(oracle.num_leader_vars());
    for (double& xi : x) xi = rng.uniform(0.0, ub);
    (void)oracle.evaluate(x);
  }
  return watch.seconds() / kProbeVectors;
}

struct Probes {
  double node_lp_s = 0.0;
  double inner_solve_s = 0.0;
  double oracle_eval_s = 0.0;
};

// ---------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input of the run from the seed (timed for setup_s).
  virtual void setup() = 0;
  /// Seconds of the public single-shot model build inside setup().
  [[nodiscard]] virtual double model_build_s() const = 0;
  /// One fixed-work operation; every answer goes through the gate.
  virtual OpRecord run_op(Gate& gate) = 0;
  /// Per-layer probes on this workload's own model and oracle.
  virtual Probes probe() = 0;
  /// Whether an op runs on the calling thread alone.
  [[nodiscard]] virtual bool serial() const { return true; }
};

/// Fixed-count black-box panel: climb `c` runs on `oracles[c]`, as a hill
/// climb, or as a quantized climb over `levels` when given. With
/// `width` > 1 the climbs run on that many threads, so every climb needs
/// an oracle of its own. Every climb's best gap must stay at or below the
/// white-box bound of the same instance.
ClimbPanel run_climbs(const std::vector<const heur::GapOracle*>& oracles,
                      int width, double ub, double norm, long evals,
                      std::uint64_t seed, double bound, Gate& gate,
                      const std::vector<double>& levels = {}) {
  ClimbPanel panel;
  const ScopedSpan span("search.panel");
  const int panel_span = span.id();
  std::vector<search::SearchResult> results(oracles.size());
  auto climb = [&](std::size_t c) {
    const ScopedSpan climb_span("search.climb", panel_span);
    search::SearchOptions so;
    so.time_limit_seconds = 1e9;  // the evaluation count stops it
    so.max_evaluations = evals;
    so.demand_ub = ub;
    so.seed = util::derive_seed(seed, static_cast<std::uint64_t>(c));
    so.levels = levels;
    results[c] = levels.empty() ? search::hill_climb(*oracles[c], so)
                                : search::quantized_climb(*oracles[c], so);
  };
  panel.delta = measure_counters([&] {
    const util::Stopwatch watch;
    if (width > 1) {
      runner::ThreadPool pool(width);
      for (std::size_t c = 0; c < oracles.size(); ++c) {
        pool.submit([&climb, c] { climb(c); });
      }
      pool.wait_idle();
    } else {
      for (std::size_t c = 0; c < oracles.size(); ++c) climb(c);
    }
    panel.wall = watch.seconds();
  });
  for (const search::SearchResult& sr : results) {
    panel.evals += sr.evaluations;
    panel.gap_norms.push_back(std::max(0.0, sr.best.gap()) / norm);
    // A hill climb runs to its count exactly; a quantized climb checks
    // the count between coordinate sweeps, so it may stop a few
    // evaluations past it (or early, at a level-set local optimum).
    gate.check(levels.empty() ? sr.evaluations == evals
                              : sr.evaluations > 0,
               "climb evaluation count " + std::to_string(sr.evaluations) +
                   " outside its cap " + std::to_string(evals));
    gate.check(sr.best.gap() <= bound + kGapTol * std::max(1.0, bound),
               "black-box gap " + std::to_string(sr.best.gap()) +
                   " above white-box bound " + std::to_string(bound));
  }
  return panel;
}

/// The instance's support as an index mask for heur::MaskedGapOracle
/// (an empty pair mask means every pair).
std::vector<bool> support_of(const domains::TeInstanceBase& inst) {
  std::vector<bool> mask = inst.pair_mask();
  if (mask.empty()) mask.assign(inst.num_leader_vars(), true);
  return mask;
}

/// Output gate for one white-box answer: certified, and the returned
/// leader vector re-evaluates to the same gap through the public oracle.
void gate_find(const heur::GapFindResult& r, const heur::GapOracle& oracle,
               const std::string& what, Gate& gate) {
  if (!r.certified) ++gate.uncertified;
  gate.check(r.certified, what + ": answer not certified");
  gate.check(r.has_solution(), what + ": no adversarial input returned");
  if (!r.has_solution()) return;
  const heur::GapResult g = oracle.evaluate(r.volumes);
  gate.check(std::abs(g.gap() - r.gap) <= kGapTol * std::max(1.0, std::abs(r.gap)),
             what + ": returned input re-evaluates to gap " +
                 std::to_string(g.gap()) + ", find reported " +
                 std::to_string(r.gap));
}

/// dp-b4 and pop-b4: node-capped white-box find plus a black-box panel on
/// the same masked oracle.
class TeFindWorkload final : public Workload {
 public:
  TeFindWorkload(bool pop, std::uint64_t seed) : pop_(pop), seed_(seed) {}

  void setup() override {
    const ScopedSpan span("setup");
    heur::InstanceConfig cfg;
    cfg.heuristic = pop_ ? "pop" : "dp";
    cfg.topology = "b4";
    cfg.paths_per_pair = 2;
    cfg.support = 20;
    cfg.threshold = 50.0;
    cfg.partitions = 2;
    // The instantiation seeds of `metaopt find pop --seed 1`. They are
    // fixed like the support: drawing them from the workload seed moved
    // gap_norm by 12% and find_s by 30% across seeds (README.md).
    if (pop_) cfg.pop_seeds = {1, 2, 3};
    {
      const ScopedSpan s("setup.instance");
      inst_ = heur::make_instance(cfg);
      te_ = dynamic_cast<const domains::TeInstanceBase*>(inst_.get());
      if (te_ == nullptr) throw std::logic_error("not a TE instance");
    }
    {
      const ScopedSpan s("setup.oracle");
      oracle_ = inst_->make_oracle();
      include_ = support_of(*te_);
      masked_ = std::make_unique<heur::MaskedGapOracle>(*oracle_, include_);
    }
    dp_.threshold = cfg.threshold;
    pop_cfg_.num_partitions = cfg.partitions;
    pop_seeds_ = cfg.pop_seeds;
    finder_ = std::make_unique<core::AdversarialGapFinder>(te_->topology(),
                                                           te_->paths());
    {
      const ScopedSpan s("setup.model_build");
      const util::Stopwatch watch;
      const core::AdversarialGapFinder::ProblemSizes sizes =
          pop_ ? finder_->pop_problem_sizes(pop_cfg_, pop_seeds_, options())
               : finder_->dp_problem_sizes(dp_, options());
      model_build_s_ = watch.seconds();
      if (sizes.metaopt.num_vars <= 0) throw std::logic_error("empty model");
    }
  }

  [[nodiscard]] double model_build_s() const override {
    return model_build_s_;
  }

  OpRecord run_op(Gate& gate) override {
    OpRecord op;
    FindRecord fr;
    heur::GapFindResult r;
    {
      const ScopedSpan span(pop_ ? "core.find_pop_gap" : "core.find_dp_gap");
      fr.delta = measure_counters([&] {
        const util::Stopwatch watch;
        r = pop_ ? finder_->find_pop_gap(pop_cfg_, pop_seeds_, options())
                 : finder_->find_dp_gap(dp_, options());
        fr.wall = watch.seconds();
      });
    }
    const double norm = inst_->gap_normalizer();
    fr.gap_norm = r.normalized_gap;
    fr.bound_norm = r.bound / norm;
    fr.nodes = r.nodes;
    const char* name = pop_ ? "pop-b4 find" : "dp-b4 find";
    gate.check(r.status == lp::SolveStatus::Optimal ||
                   r.nodes == (pop_ ? kPopNodes : kDpNodes),
               std::string(name) + ": stopped before its node cap");
    gate_find(r, *oracle_, name, gate);
    op.finds.push_back(fr);
    op.climbs = run_climbs(
        std::vector<const heur::GapOracle*>(kClimbs, masked_.get()), 1,
        inst_->leader_ub(), norm, pop_ ? kPopClimbEvals : kDpClimbEvals, seed_,
        r.bound, gate);
    return op;
  }

  Probes probe() override {
    const ScopedSpan span("probe");
    Probes p;
    const std::unique_ptr<ProbeModel> pm =
        build_probe_model(*te_, pop_ ? nullptr : &dp_,
                          pop_ ? &pop_cfg_ : nullptr, pop_seeds_);
    {
      const ScopedSpan s("probe.node_lp");
      p.node_lp_s = probe_node_lp(pm->model);
    }
    {
      const ScopedSpan s("probe.kkt_inner");
      p.inner_solve_s =
          probe_inner_solves(*pm, inst_->leader_ub(), util::derive_seed(seed_, 2));
    }
    {
      const ScopedSpan s("probe.oracle");
      p.oracle_eval_s =
          probe_oracle(*oracle_, inst_->leader_ub(), util::derive_seed(seed_, 3));
    }
    return p;
  }

 private:
  [[nodiscard]] core::AdversarialOptions options() const {
    core::AdversarialOptions o;
    o.demand_ub = inst_->leader_ub();
    o.pair_mask = te_->pair_mask();
    o.seed_search_seconds = 0.0;  // wall-clock seeding off: fixed work
    o.mip.max_nodes = pop_ ? kPopNodes : kDpNodes;
    o.mip.time_limit_seconds = kSafetySeconds;
    o.mip.threads = 1;
    o.mip.certify = true;
    o.mip.lp.certify = true;
    return o;
  }

  bool pop_;
  std::uint64_t seed_;
  std::unique_ptr<heur::HeuristicInstance> inst_;
  const domains::TeInstanceBase* te_ = nullptr;
  std::unique_ptr<heur::GapOracle> oracle_;
  std::vector<bool> include_;
  std::unique_ptr<heur::MaskedGapOracle> masked_;
  std::unique_ptr<core::AdversarialGapFinder> finder_;
  te::DpConfig dp_;
  te::PopConfig pop_cfg_;
  std::vector<std::uint64_t> pop_seeds_;
  double model_build_s_ = 0.0;
};

/// ffd-closed: 1-D FFD solved to proven optimality, plus a black-box
/// panel on the FFD oracle.
class FfdWorkload final : public Workload {
 public:
  explicit FfdWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const ScopedSpan span("setup");
    heur::InstanceConfig cfg;
    cfg.heuristic = "ffd";
    cfg.items = kFfdItems;
    cfg.dims = 1;
    {
      const ScopedSpan s("setup.instance");
      inst_ = heur::make_instance(cfg);
    }
    {
      const ScopedSpan s("setup.oracle");
      oracle_ = inst_->make_oracle();
    }
    {
      // The single-shot build of binpack::find_ffd_gap: FFD trace
      // encoding plus the KKT rewrite of the volume-LP OPT.
      const ScopedSpan s("setup.model_build");
      const util::Stopwatch watch;
      model_ = std::make_unique<lp::Model>();
      binpack::BinPackConfig bp;
      bp.items = kFfdItems;
      std::vector<lp::Var> sizes;
      for (int i = 0; i < kFfdItems; ++i) {
        sizes.push_back(
            model_->add_var("s[" + std::to_string(i) + "]", 0.0, bp.ub()));
      }
      const binpack::FfdEncoding enc =
          binpack::build_ffd(*model_, sizes, bp, "ffd.");
      const kkt::KktArtifacts art = kkt::emit_kkt(*model_, enc.inner, "opt.");
      model_->set_objective(lp::ObjSense::Maximize,
                            enc.bins_used - art.objective_expr);
      model_build_s_ = watch.seconds();
    }
  }

  [[nodiscard]] double model_build_s() const override {
    return model_build_s_;
  }

  OpRecord run_op(Gate& gate) override {
    OpRecord op;
    const double norm = inst_->gap_normalizer();
    double bound = 0.0;
    for (int f = 0; f < kFfdFindsPerOp; ++f) {
      FindRecord fr;
      heur::GapFindResult r;
      {
        const ScopedSpan span("binpack.find_ffd_gap");
        fr.delta = measure_counters([&] {
          heur::FindOptions fo;
          fo.budget_seconds = kSafetySeconds;
          fo.certify = true;
          fo.mip_threads = 1;
          fo.seed_search_seconds = 0.0;
          const util::Stopwatch watch;
          r = inst_->find_gap(fo);
          fr.wall = watch.seconds();
        });
      }
      fr.gap_norm = r.normalized_gap;
      fr.bound_norm = r.bound / norm;
      fr.nodes = r.nodes;
      gate.check(r.status == lp::SolveStatus::Optimal,
                 "ffd-closed find did not close");
      gate_find(r, *oracle_, "ffd-closed find", gate);
      op.finds.push_back(fr);
      bound = r.bound;
    }
    // Plain hill climbs rarely reach an FFD worst case at this count; the
    // quantized climb over the instance's levels does (§5). The panel's
    // seeds are fixed: an FFD evaluation solves an assignment MIP whose
    // cost depends on the input, so seeded panels moved
    // search_evals_per_s by 24% across seeds at a steady find_s.
    op.climbs = run_climbs(
        std::vector<const heur::GapOracle*>(kFfdClimbs, oracle_.get()), 1,
        inst_->leader_ub(), norm, kFfdClimbEvals, kFfdClimbSeed, bound, gate,
        inst_->quantize_levels());
    return op;
  }

  Probes probe() override {
    const ScopedSpan span("probe");
    Probes p;
    {
      const ScopedSpan s("probe.node_lp");
      p.node_lp_s = probe_node_lp(*model_);
    }
    {
      const ScopedSpan s("probe.oracle");
      p.oracle_eval_s = probe_oracle(*oracle_, inst_->leader_ub(),
                                     util::derive_seed(seed_, 3));
    }
    return p;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<heur::HeuristicInstance> inst_;
  std::unique_ptr<heur::GapOracle> oracle_;
  std::unique_ptr<lp::Model> model_;
  double model_build_s_ = 0.0;
};

heur::InstanceConfig instance_config(const runner::JobSpec& job) {
  // Mirrors runner::SweepRunner::execute_job.
  heur::InstanceConfig config;
  config.heuristic = runner::to_string(job.heuristic);
  config.leader_ub = job.demand_ub;
  config.support = job.pairs;
  config.seed = job.seed;
  config.stream_seed = job.stream_seed;
  config.topology = job.topology;
  config.paths_per_pair = job.paths_per_pair;
  config.threshold = job.threshold;
  config.partitions = job.num_partitions;
  config.pop_instances = job.pop_instances;
  config.items = job.items;
  config.dims = job.dims;
  config.bins = job.bins;
  return config;
}

/// campaign: a deterministic SweepRunner sweep of small jobs that close,
/// at width nproc, plus a black-box panel on the fig1 DP job (T=50).
class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const ScopedSpan span("setup");
    {
      const ScopedSpan s("setup.expand_spec");
      jobs_.clear();
      auto add = [&](const std::vector<std::string>& tokens) {
        std::vector<std::string> all = tokens;
        all.push_back("base-seed=" + std::to_string(seed_));
        all.push_back("deterministic=1");
        all.push_back("certify=1");
        all.push_back("budget=" + std::to_string(static_cast<int>(kSafetySeconds)));
        for (runner::JobSpec job :
             runner::expand_spec(runner::parse_sweep_spec(all))) {
          job.id = static_cast<int>(jobs_.size());
          jobs_.push_back(job);
        }
      };
      // 52 small jobs that close (10-100 ms each), so per-job set-up and
      // the scheduler dominate. DP and FFD ignore the seed axis: their
      // seed copies are identical work. Abilene DP with 6 pairs runs
      // ~1.5 s per job and set the sweep wall alone, so it has 3 pairs.
      add({"topology=fig1", "heuristic=dp",
           "threshold=10,20,30,40,50,60,70,80,90,100", "seed=1..2"});
      add({"topology=abilene", "heuristic=dp", "threshold=25,50,75,100",
           "pairs=3"});
      add({"topology=fig1", "heuristic=pop", "partitions=2", "instances=3",
           "seed=1..16"});
      add({"heuristic=ffd", "items=6..8", "seed=1..4"});
    }
    {
      const ScopedSpan s("setup.instances");
      instances_.clear();
      for (const runner::JobSpec& job : jobs_) {
        instances_.push_back(heur::make_instance(instance_config(job)));
      }
    }
    {
      const ScopedSpan s("setup.oracle");
      oracles_.clear();
      for (const auto& inst : instances_) oracles_.push_back(inst->make_oracle());
      climb_job_ = -1;
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        if (jobs_[j].topology == "fig1" &&
            jobs_[j].heuristic == runner::Heuristic::Dp &&
            jobs_[j].threshold == 50.0) {
          climb_job_ = static_cast<int>(j);
        }
      }
      if (climb_job_ < 0) throw std::logic_error("no fig1 DP job");
      climb_te_ = dynamic_cast<const domains::TeInstanceBase*>(
          instances_[static_cast<std::size_t>(climb_job_)].get());
      climb_include_ = support_of(*climb_te_);
      // The panel's climbs run in parallel, so each gets its own oracle.
      panel_bases_.clear();
      panel_oracles_.clear();
      panel_.clear();
      for (int c = 0; c < kCampaignClimbs; ++c) {
        panel_bases_.push_back(climb_te_->make_oracle());
        panel_oracles_.push_back(std::make_unique<heur::MaskedGapOracle>(
            *panel_bases_.back(), climb_include_));
        panel_.push_back(panel_oracles_.back().get());
      }
    }
    {
      const ScopedSpan s("setup.model_build");
      const util::Stopwatch watch;
      const core::AdversarialGapFinder finder(climb_te_->topology(),
                                              climb_te_->paths());
      core::AdversarialOptions o;
      o.pair_mask = climb_te_->pair_mask();
      te::DpConfig dp;
      dp.threshold = 50.0;
      (void)finder.dp_problem_sizes(dp, o);
      model_build_s_ = watch.seconds();
    }
  }

  [[nodiscard]] double model_build_s() const override {
    return model_build_s_;
  }

  [[nodiscard]] bool serial() const override { return false; }

  OpRecord run_op(Gate& gate) override {
    OpRecord op;
    CampaignRecord cr;
    const int width =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    runner::SweepOptions so;
    so.threads = width;
    so.log_progress = false;
    const runner::SweepRunner runner(so);
    runner::SweepReport report;
    {
      const ScopedSpan span("runner.sweep");
      const int sweep_span = span.id();
      cr.delta = measure_counters([&] {
        const util::Stopwatch watch;
        report = runner.run_jobs(jobs_, [sweep_span](const runner::JobSpec& j) {
          const ScopedSpan job_span("runner.job", sweep_span);
          return runner::SweepRunner::execute_job(j);
        });
        cr.wall = watch.seconds();
      });
    }
    cr.width = report.threads;
    cr.jobs = static_cast<int>(report.jobs.size());
    gate.check(report.jobs.size() == jobs_.size(), "campaign lost jobs");
    double climb_bound = 0.0;
    for (const runner::JobResult& jr : report.jobs) {
      const std::string what = "campaign job " + std::to_string(jr.spec.id);
      gate.check(jr.status == runner::JobStatus::Ok, what + " not ok: " + jr.error);
      if (jr.status != runner::JobStatus::Ok) continue;
      const auto id = static_cast<std::size_t>(jr.spec.id);
      gate.check(jr.result.status == lp::SolveStatus::Optimal,
                 what + " stopped on its budget");
      gate_find(jr.result, *oracles_[id], what, gate);
      const double norm = instances_[id]->gap_normalizer();
      cr.job_walls.push_back(jr.wall_seconds);
      cr.job_overheads.push_back(jr.wall_seconds - jr.result.seconds);
      cr.gap_norm += jr.result.normalized_gap / static_cast<double>(jobs_.size());
      cr.bound_norm += jr.result.bound / norm / static_cast<double>(jobs_.size());
      if (jr.spec.id == climb_job_) climb_bound = jr.result.bound;
    }
    op.campaign = cr;
    op.climbs = run_climbs(panel_, width, climb_te_->leader_ub(),
                           climb_te_->gap_normalizer(), kCampaignClimbEvals,
                           seed_, climb_bound, gate);
    return op;
  }

  Probes probe() override {
    const ScopedSpan span("probe");
    Probes p;
    te::DpConfig dp;
    dp.threshold = 50.0;
    const std::unique_ptr<ProbeModel> pm =
        build_probe_model(*climb_te_, &dp, nullptr, {});
    {
      const ScopedSpan s("probe.node_lp");
      p.node_lp_s = probe_node_lp(pm->model);
    }
    {
      const ScopedSpan s("probe.kkt_inner");
      p.inner_solve_s = probe_inner_solves(*pm, climb_te_->leader_ub(),
                                           util::derive_seed(seed_, 2));
    }
    {
      const ScopedSpan s("probe.oracle");
      p.oracle_eval_s =
          probe_oracle(*oracles_[static_cast<std::size_t>(climb_job_)],
                       climb_te_->leader_ub(), util::derive_seed(seed_, 3));
    }
    return p;
  }

 private:
  std::uint64_t seed_;
  std::vector<runner::JobSpec> jobs_;
  std::vector<std::unique_ptr<heur::HeuristicInstance>> instances_;
  std::vector<std::unique_ptr<heur::GapOracle>> oracles_;
  int climb_job_ = -1;
  const domains::TeInstanceBase* climb_te_ = nullptr;
  std::vector<bool> climb_include_;
  std::vector<std::unique_ptr<heur::GapOracle>> panel_bases_;
  std::vector<std::unique_ptr<heur::MaskedGapOracle>> panel_oracles_;
  std::vector<const heur::GapOracle*> panel_;
  double model_build_s_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "dp-b4") return std::make_unique<TeFindWorkload>(false, seed);
  if (name == "pop-b4") return std::make_unique<TeFindWorkload>(true, seed);
  if (name == "ffd-closed") return std::make_unique<FfdWorkload>(seed);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Wall of the op's white-box part: the find, or the whole sweep.
double op_main_wall(const OpRecord& op) {
  if (op.campaign) return op.campaign->wall;
  double s = 0.0;
  for (const FindRecord& f : op.finds) s += f.wall;
  return s;
}

/// The answers an op must repeat exactly on every repetition.
std::vector<double> op_answers(const OpRecord& op) {
  std::vector<double> a;
  for (const FindRecord& f : op.finds) {
    a.push_back(f.gap_norm);
    a.push_back(f.bound_norm);
    a.push_back(static_cast<double>(f.nodes));
  }
  if (op.campaign) {
    a.push_back(op.campaign->gap_norm);
    a.push_back(op.campaign->bound_norm);
  }
  if (op.climbs) {
    for (double g : op.climbs->gap_norms) a.push_back(g);
  }
  return a;
}

/// The deterministic work counts of the exact-count self-check.
std::vector<std::pair<std::string, double>> op_counts(const OpRecord& op) {
  const Delta& d = op.campaign ? op.campaign->delta : op.finds.front().delta;
  return {{"mip.nodes", d.count("bnb.nodes_explored")},
          {"lp.pivots", d.count("simplex.pivots") +
                            d.count("simplex.revised_pivots")},
          {"lp.refactorizations", d.count("simplex.refactorizations")},
          {"kkt.inner_solves", d.count("simplex.solves")}};
}

/// Wall of every white-box find; on campaign, the mean job wall of each
/// sweep (the job mix is fixed, and the median of single job walls sits
/// between the fast fig1 jobs and the slower FFD ones).
std::vector<double> find_samples(const std::vector<OpRecord>& ops) {
  std::vector<double> s;
  for (const OpRecord& op : ops) {
    if (op.campaign) {
      double sum = 0.0;
      for (double w : op.campaign->job_walls) sum += w;
      s.push_back(ratio(sum, static_cast<double>(op.campaign->job_walls.size())));
    }
    for (const FindRecord& f : op.finds) s.push_back(f.wall);
  }
  return s;
}

/// The highest percentile with at least ten samples beyond it, as
/// {percent, value}; nullopt below 20 samples.
std::optional<std::pair<int, double>> tail(std::vector<double> v) {
  const int n = static_cast<int>(v.size());
  if (n < 20) return std::nullopt;
  std::sort(v.begin(), v.end());
  const int beyond_ok = n - 10;  // index of the last admissible sample
  const int pct = static_cast<int>(100.0 * beyond_ok / n);
  const int idx = std::min(n - 1, static_cast<int>(std::ceil(pct / 100.0 * n)) - 1);
  return std::make_pair(pct, v[static_cast<std::size_t>(std::max(0, idx))]);
}

std::vector<Metric> end_to_end_metrics(const std::vector<OpRecord>& ops,
                                       double setup_s) {
  const std::vector<double> find_s = find_samples(ops);
  std::vector<double> jobs_per_s, evals_per_s;
  for (const OpRecord& op : ops) {
    if (op.campaign) {
      jobs_per_s.push_back(op.campaign->jobs / op.campaign->wall);
    } else {
      for (const FindRecord& f : op.finds) jobs_per_s.push_back(1.0 / f.wall);
    }
    evals_per_s.push_back(static_cast<double>(op.climbs->evals) /
                          op.climbs->wall);
  }
  const OpRecord& first = ops.front();
  double gap = 0.0, bound = 0.0;
  if (first.campaign) {
    gap = first.campaign->gap_norm;
    bound = first.campaign->bound_norm;
  } else {
    gap = first.finds.front().gap_norm;
    bound = first.finds.front().bound_norm;
  }
  return {
      {"find_s", median(find_s), "s"},
      {"gap_norm", gap, "fraction"},
      {"bound_norm", bound, "fraction"},
      {"search_evals_per_s", median(evals_per_s), "1/s"},
      {"search_gap_norm", *std::max_element(first.climbs->gap_norms.begin(), first.climbs->gap_norms.end()), "fraction"},
      {"jobs_per_s", median(jobs_per_s), "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<OpRecord>& traced,
                                      const std::vector<double>& untraced_walls,
                                      const Probes& probes,
                                      double model_build_s, long uncertified) {
  // Per op (one find, or one whole sweep), median over the traced ops.
  std::map<std::string, std::vector<double>> v;
  for (const OpRecord& op : traced) {
    const Delta& d = op.campaign ? op.campaign->delta : op.finds.front().delta;
    const double wall =
        op.campaign ? op.campaign->wall : op.finds.front().wall;
    const double nodes = d.count("bnb.nodes_explored");
    const double popped = d.count("bnb.nodes_popped");
    const double lp_solves = d.count("simplex.solves") +
                             d.count("simplex.warm_solves") +
                             d.count("simplex.cold_revised_solves");
    const double refactors = d.count("simplex.refactorizations");
    const double hits = d.count("simplex.factor_cache_hits");
    const double lp_s = d.hist_seconds("simplex.solve_ns");
    const double emit_s = d.hist_seconds("kkt.emit_ns");
    const double opt_s = d.hist_seconds("binpack.opt_ns");
    v["mip.nodes"].push_back(nodes);
    v["mip.node_s"].push_back(ratio(d.hist_seconds("bnb.node_ns"),
                                    d.hist_count("bnb.node_ns")));
    v["mip.pruned_ratio"].push_back(
        ratio(d.count("bnb.nodes_pruned_bound") +
                  d.count("bnb.nodes_pruned_infeasible"),
              popped));
    v["mip.nodes_failed"].push_back(d.count("bnb.nodes_failed"));
    v["lp.solves"].push_back(lp_solves);
    v["lp.node_lp_solves"].push_back(d.count("bnb.lp_solves"));
    v["lp.pivots"].push_back(d.count("simplex.pivots"));
    v["lp.revised_pivots"].push_back(d.count("simplex.revised_pivots"));
    v["lp.phase1_solves"].push_back(d.count("simplex.phase1_solves"));
    v["lp.refactorizations_per_node"].push_back(ratio(refactors, nodes));
    v["lp.factor_cache_hit_ratio"].push_back(ratio(hits, hits + refactors));
    v["lp.presolve_rounds_per_node"].push_back(
        ratio(d.count("presolve.rounds"), d.count("presolve.runs")));
    v["lp.warm_fallbacks"].push_back(d.count("simplex.warm_fallbacks"));
    v["lp.solve_s"].push_back(lp_s);
    v["kkt.inner_solves"].push_back(lp_solves - d.count("bnb.lp_solves"));
    v["kkt.emit_s"].push_back(emit_s);
    v["binpack.opt_solves"].push_back(d.count("binpack.opt_solves"));
    v["binpack.opt_s"].push_back(opt_s);
    const double unattributed = std::max(0.0, wall - lp_s - emit_s - opt_s);
    v["core.unattributed_s"].push_back(op.campaign ? 0.0 : unattributed);
    v["core.unattributed_frac"].push_back(
        op.campaign ? 0.0 : ratio(unattributed, wall));
    const Delta& s = op.climbs->delta;
    v["search.evaluations"].push_back(s.count("search.evaluations"));
    v["search.improvement_ratio"].push_back(
        ratio(s.count("search.improvements"), s.count("search.evaluations")));
    if (op.campaign) {
      const CampaignRecord& c = *op.campaign;
      double sum = 0.0;
      for (double w : c.job_walls) sum += w;
      v["runner.job_s"].push_back(median(c.job_walls));
      v["runner.job_overhead_s"].push_back(median(c.job_overheads));
      v["runner.utilization"].push_back(ratio(sum, c.width * c.wall));
      v["runner.steals"].push_back(d.count("sched.steals"));
    } else {
      for (const char* k : {"runner.job_s", "runner.job_overhead_s",
                            "runner.utilization", "runner.steals"}) {
        v[k].push_back(0.0);
      }
    }
  }
  std::vector<double> traced_walls;
  for (const OpRecord& op : traced) traced_walls.push_back(op_main_wall(op));
  const double overhead =
      median(traced_walls) / median(untraced_walls) - 1.0;

  auto med = [&](const std::string& k) { return median(v[k]); };
  return {
      {"mip.nodes", med("mip.nodes"), "count"},
      {"mip.node_s", med("mip.node_s"), "s"},
      {"mip.pruned_ratio", med("mip.pruned_ratio"), "fraction"},
      {"mip.nodes_failed", med("mip.nodes_failed"), "count"},
      {"lp.solves", med("lp.solves"), "count"},
      {"lp.node_lp_solves", med("lp.node_lp_solves"), "count"},
      {"lp.pivots", med("lp.pivots"), "count"},
      {"lp.revised_pivots", med("lp.revised_pivots"), "count"},
      {"lp.phase1_solves", med("lp.phase1_solves"), "count"},
      {"lp.refactorizations_per_node", med("lp.refactorizations_per_node"),
       "ratio"},
      {"lp.factor_cache_hit_ratio", med("lp.factor_cache_hit_ratio"),
       "fraction"},
      {"lp.presolve_rounds_per_node", med("lp.presolve_rounds_per_node"),
       "ratio"},
      {"lp.warm_fallbacks", med("lp.warm_fallbacks"), "count"},
      {"lp.solve_s", med("lp.solve_s"), "s"},
      {"lp.node_lp_s", probes.node_lp_s, "s"},
      {"kkt.inner_solves", med("kkt.inner_solves"), "count"},
      {"kkt.inner_solve_s", probes.inner_solve_s, "s"},
      {"kkt.emit_s", med("kkt.emit_s"), "s"},
      {"core.model_build_s", model_build_s, "s"},
      {"te.oracle_eval_s", probes.oracle_eval_s, "s"},
      {"search.evaluations", med("search.evaluations"), "count"},
      {"search.improvement_ratio", med("search.improvement_ratio"),
       "fraction"},
      {"binpack.opt_solves", med("binpack.opt_solves"), "count"},
      {"binpack.opt_s", med("binpack.opt_s"), "s"},
      {"check.uncertified", static_cast<double>(uncertified), "count"},
      {"runner.job_s", med("runner.job_s"), "s"},
      {"runner.job_overhead_s", med("runner.job_overhead_s"), "s"},
      {"runner.utilization", med("runner.utilization"), "fraction"},
      {"runner.steals", med("runner.steals"), "count"},
      {"core.unattributed_s", med("core.unattributed_s"), "s"},
      {"core.unattributed_frac", med("core.unattributed_frac"), "fraction"},
      {"obs.overhead_frac", overhead, "fraction"},
  };
}

std::string format_result(bool correct, long attempted, long failed,
                          const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val, &used);
      have_seed = used == val.size();
    } else if (key == "--seconds") {
      a.seconds = std::stod(val, &used);
      if (used != val.size()) a.seconds = 0.0;
    } else if (key == "--trace") {
      a.trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) || a.trace < 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1");
  }
  return a;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous CPU mask.
class ScopedCpu {
 public:
  explicit ScopedCpu(int cpu) {
    CPU_ZERO(&saved_);
    saved_ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (saved_ok_) (void)sched_setaffinity(0, sizeof(one), &one);
  }
  ~ScopedCpu() {
    if (saved_ok_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool saved_ok_ = false;
};

int run(const Args& args) {
  util::set_log_level(util::LogLevel::Warn);
  domains::register_builtin();
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) throw std::invalid_argument("unknown workload " + args.workload);
  const bool traced = args.trace == 1;
  if (traced) g_spans.enable();
  obs::set_enabled(false);

  Gate gate;
  w->setup();
  {
    // Warm-up op: caches, lazy scheduler threads; gated, not measured.
    const ScopedSpan span("warmup");
    (void)w->run_op(gate);
  }

  // One set-up takes 0.3-5 ms, so a burst of them samples a single
  // instant of host load. Timed set-ups therefore follow every measured
  // op and span the run like the ops do; setup_s is their median.
  std::vector<double> setups, builds;
  auto timed_setups = [&] {
    for (int r = 0; r < kSetupReps; ++r) {
      const util::Stopwatch watch;
      w->setup();
      setups.push_back(watch.seconds());
      builds.push_back(w->model_build_s());
    }
  };

  // Measured ops: at least three (two of each kind with --trace 1), then
  // as many as fit in --seconds: the loop stops before an op that the
  // last op's duration says would end past it, so a run measures for at
  // most --seconds once the minimum is met. With --trace 1 the ops
  // alternate obs off / obs on so the tracing overhead is measured on the
  // same machine state.
  //
  // A serial op runs pinned to the next allowed CPU in turn. Left alone,
  // the kernel keeps a busy thread on one virtual CPU for minutes, and on
  // a shared host the CPUs slow down independently of each other (a
  // cache-bound loop pinned to each of four ran up to 2.5x slower on some
  // for seconds at a time). Rotating makes every run average over all of
  // them: on dp-b4 it halved the spread of find_s between runs (0.16 to
  // 0.085 over six alternating pairs of 50 s runs) and made finds about
  // 12% slower. The campaign spreads its own threads.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<OpRecord> plain, traced_ops;
  const util::Stopwatch clock;
  for (int i = 0;; ++i) {
    const bool on = traced && i % 2 == 1;
    std::optional<ScopedCpu> pin;
    if (w->serial() && !cpus.empty()) {
      pin.emplace(cpus[static_cast<std::size_t>(i) % cpus.size()]);
    }
    obs::set_enabled(on);
    const ScopedSpan span(on ? "op.traced" : "op");
    const double op_start = clock.seconds();
    OpRecord op = w->run_op(gate);
    obs::set_enabled(false);
    (on ? traced_ops : plain).push_back(std::move(op));
    timed_setups();
    const double now = clock.seconds();
    const std::size_t need = traced ? 2 : 3;
    if (now + (now - op_start) > args.seconds && plain.size() >= need &&
        (!traced || traced_ops.size() >= need)) {
      break;
    }
  }

  // Exact repetition: every op's answers, and with --trace 1 the work
  // counts of two traced repetitions, must be identical.
  const long failed_before_repeat = gate.failed;
  const std::vector<double> answers = op_answers(plain.front());
  for (const std::vector<OpRecord>* set : {&plain, &traced_ops}) {
    for (const OpRecord& op : *set) {
      gate.check(op_answers(op) == answers,
                 "answers differ between repetitions of the same op");
    }
  }
  std::string self_check = "answers identical over " +
                           std::to_string(plain.size() + traced_ops.size()) +
                           " ops";
  if (traced) {
    const auto a = op_counts(traced_ops[0]);
    const auto b = op_counts(traced_ops[1]);
    for (std::size_t k = 0; k < a.size(); ++k) {
      gate.check(a[k].second == b[k].second,
                 "exact-count self-check: " + a[k].first + " " +
                     std::to_string(a[k].second) + " vs " +
                     std::to_string(b[k].second));
      self_check += "; " + a[k].first + "=" + std::to_string(static_cast<long>(a[k].second));
    }
  }

  std::vector<Metric> metrics;
  if (traced) {
    const Probes probes = w->probe();  // obs is off again here
    std::vector<double> plain_walls;
    for (const OpRecord& op : plain) plain_walls.push_back(op_main_wall(op));
    metrics = per_layer_metrics(traced_ops, plain_walls, probes,
                                median(builds), gate.uncertified);
    g_spans.write(args.spans);
  } else {
    metrics = end_to_end_metrics(plain, median(setups));
  }

  const bool correct = gate.failed == 0;
  const bool repeat_ok = gate.failed == failed_before_repeat;
  std::printf("workload %s seed %llu: %zu ops (%zu traced), %ld checks, "
              "%ld failed, failed_frac %.6g\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), plain.size(),
              traced_ops.size(), gate.attempted, gate.failed,
              ratio(static_cast<double>(gate.failed),
                    static_cast<double>(gate.attempted)));
  std::printf("exact-count self-check %s: %s\n", repeat_ok ? "pass" : "FAIL",
              self_check.c_str());
  const std::vector<double> finds = find_samples(plain);
  std::printf("find_s: %zu samples, median %.6g s", finds.size(), median(finds));
  if (const auto t = tail(finds)) std::printf(", p%d %.6g s", t->first, t->second);
  std::printf("\n");
  std::printf("op walls (s):");
  for (const OpRecord& op : plain) std::printf(" %.4f", op_main_wall(op));
  std::printf("\n");
  std::printf("panel rates (1/s):");
  for (const OpRecord& op : plain) {
    std::printf(" %.1f", static_cast<double>(op.climbs->evals) / op.climbs->wall);
  }
  std::printf("\n");
  std::printf("black-box panel gaps (normalized):");
  for (double g : plain.front().climbs->gap_norms) std::printf(" %.6g", g);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", format_result(correct, gate.attempted, gate.failed,
                                    metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
