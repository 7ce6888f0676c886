// metaopt — command-line front end.
//
//   metaopt topo <name|file>                       topology summary
//   metaopt find <heuristic> [options]             white-box adversarial search
//   metaopt bound dp|pop [options]                 primal-dual upper bound
//   metaopt search hill|anneal|random|quant <heuristic>
//                                                  black-box baselines
//   metaopt sweep key=value... [options]           parallel scenario sweep
//   metaopt merge-shards --out F shard...          recombine shard JSONL
//   metaopt explain <heuristic> [options]          minimal adversarial core
//   metaopt help | --help                          subcommand overview
//
// <heuristic> is a registry name (dp, pop, ffd, ff, ...); it can also be
// passed as --heuristic NAME. dp/pop are traffic engineering; ffd/ff are
// vector bin packing (first-fit-decreasing / first-fit).
//
// Sweep grammar (cartesian grid; comma lists, `lo..hi` integer ranges):
//   metaopt sweep topology=b4,swan heuristic=dp threshold=25,50,100
//       paths=2 seed=1..3 pairs=12 budget=20 --threads 8
//       --jsonl out/sweep.jsonl --csv out/sweep.csv
// Per-job RNG streams are derived from the spec (splitmix), jobs are
// aggregated by id, and wall-time fields sit last in each JSONL record,
// so output is byte-identical across thread counts and reruns.
// Sweep-only options:
//   --threads N        worker threads (default: all hardware threads)
//   --spec FILE        read key=value tokens (whitespace/newline
//                      separated, # comments) from FILE before argv ones
//   --jsonl FILE       write one JSON record per job
//   --quiet            suppress per-job progress lines
//   --shard i/N        run only jobs with id % N == i (partitioned after
//                      expansion: shard outputs merge byte-identically)
//   --checkpoint M     write a resume manifest to M (+ completed records
//                      to M.partial.jsonl) as the campaign progresses
//   --checkpoint-every K   manifest rewrite cadence (default 1 = every
//                      completed job)
//   --resume M         skip jobs a prior run's manifest M recorded done;
//                      their JSONL lines carry over byte-for-byte
// Sweep exit codes: 0 = ok (≥1 job finished with an incumbent), 1 = a
// job failed, 3 = no failures but every job timed out empty-handed.
//
// merge-shards recombines per-shard campaign files:
//   metaopt merge-shards --out merged.jsonl s0.jsonl s1.jsonl s2.jsonl
// Records are carried over verbatim and sorted by job id, so the merged
// file is byte-identical to the unsharded run (modulo wall-time fields,
// which differ per machine — strip them when diffing).
//
// Explain shrinks a gap witness to a minimal adversarial core: the
// smallest element subset (demand pairs / items) whose sub-instance
// still exhibits the gap, every probe an exact certified re-solve.
// Witness source: --jsonl FILE (a finished sweep campaign; --job N
// picks a record, default = the representative of the worst region) or
// a fresh `find` run with --budget. Explain-only options:
//   --jsonl FILE       read witnesses from a sweep campaign file
//   --job N            explain this campaign job id
//   --strategy S       core minimizer: greedy (default) | ddmin
//   --min-gap P        core must retain >= P% normalized gap
//                      (default: 95% of the witness's own gap)
//   --probe-budget S   seconds per embedded OPT solve    (default 10)
//   --bench-out FILE   also write a schema-v1 BENCH json report
// Explain exit codes: 0 = core found, 2 = usage, 3 = nothing to explain
// (no gap-inducing witness / gap below threshold), 1 = error.
//
// Common options:
//   --topology <b4|abilene|swan|fig1|file.topo>   (default b4)
//   --paths N          paths per pair              (default 2)
//   --budget SECONDS   solver budget               (default 30)
//   --threshold T      DP pinning threshold        (default 50)
//   --partitions C     POP partitions              (default 2)
//   --instances R      POP instantiations          (default 3)
//   --pairs N          restrict adversarial support to ~N pairs
//   --demand-ub U      leader box upper bound      (default: max link
//                      capacity for TE, bin capacity for bin packing)
//   --items N          bin packing: items          (default 6)
//   --dims D           bin packing: dimensions     (default 1)
//   --bins B           bin packing: bin budget     (default: one per item)
//   --seed S           RNG seed                    (default 1)
//   --mip-threads N    B&B worker threads (find/bound; default 1;
//                      sweep jobs take mip-threads= in the spec instead —
//                      helpers come from the shared scheduler, so a
//                      width-T sweep with M mip threads uses max(T, M)
//                      workers total, never T x M)
//   --pricing RULE     simplex pricing: partial (default) | dantzig |
//                      steepest (Devex reference weights)
//   --certify          independently certify every solve (find/bound)
//   --csv FILE         append a result row to FILE
//
// Observability (any command; enables the obs subsystem for the run):
//   --metrics          print the final metrics snapshot as one JSON line
//   --trace FILE       write a Chrome-trace/Perfetto JSON of all spans
//                      (load it at https://ui.perfetto.dev)
//   --trace-jsonl FILE write the same events as one JSON object per line
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "core/adversarial.h"
#include "core/gap_bound.h"
#include "domains/domains.h"
#include "domains/te_instances.h"
#include "explain/cluster.h"
#include "explain/core_minimizer.h"
#include "explain/explain.h"
#include "heur/instance.h"
#include "obs/obs.h"
#include "runner/jsonl_io.h"
#include "runner/sweep_runner.h"
#include "net/paths.h"
#include "search/search.h"
#include "te/demand.h"
#include "te/gap.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/logging.h"

using namespace metaopt;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  [[nodiscard]] double get_num(const std::string& key, double def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::atof(it->second.c_str());
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      // A following token that is itself a flag means this one is a
      // boolean switch (e.g. --certify), not a key/value pair.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "1";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

/// --pricing partial|dantzig|steepest (default partial). Unknown names
/// fall back to the default with a warning rather than failing the run.
lp::Pricing parse_pricing(const Args& args) {
  const std::string name = args.get("pricing", "partial");
  if (name == "partial") return lp::Pricing::Partial;
  if (name == "dantzig") return lp::Pricing::Dantzig;
  if (name == "steepest") return lp::Pricing::SteepestEdge;
  std::fprintf(stderr, "unknown --pricing '%s' (want partial|dantzig|steepest); using partial\n",
               name.c_str());
  return lp::Pricing::Partial;
}

void maybe_csv(const Args& args, const std::string& kind,
               const std::string& heuristic, double gap, double norm_gap,
               double seconds) {
  const std::string path = args.get("csv", "");
  if (path.empty()) return;
  util::CsvWriter out(path, "kind,heuristic,gap,norm_gap,seconds");
  out.row(kind, heuristic, gap, norm_gap, seconds);
}

int cmd_topo(const Args& args) {
  const net::Topology topo = domains::load_topology(
      args.positional.size() > 1 ? args.positional[1] : args.get("topology", "b4"));
  std::printf("name:             %s\n", topo.name().c_str());
  std::printf("nodes:            %d\n", topo.num_nodes());
  std::printf("directed edges:   %d\n", topo.num_edges());
  std::printf("total capacity:   %.1f\n", topo.total_capacity());
  std::printf("avg shortest path %.3f\n",
              net::average_shortest_path_length(topo));
  return 0;
}

/// The heuristic name: `--heuristic NAME` wins, else the positional
/// argument at `slot`; empty when neither is present.
std::string heuristic_arg(const Args& args, std::size_t slot) {
  const std::string flag = args.get("heuristic", "");
  if (!flag.empty()) return flag;
  return args.positional.size() > slot ? args.positional[slot] : "";
}

/// Fills the registry config from the common CLI flags. Domains ignore
/// the knobs that are not theirs.
heur::InstanceConfig instance_config(const Args& args,
                                     const std::string& heuristic) {
  heur::InstanceConfig config;
  config.heuristic = heuristic;
  config.leader_ub = args.get_num("demand-ub", 0.0);
  config.support = static_cast<int>(args.get_num("pairs", 0));
  config.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  config.stream_seed = config.seed;
  config.topology = args.get("topology", "b4");
  config.paths_per_pair = static_cast<int>(args.get_num("paths", 2));
  config.threshold = args.get_num("threshold", 50.0);
  config.partitions = static_cast<int>(args.get_num("partitions", 2));
  config.pop_instances = static_cast<int>(args.get_num("instances", 3));
  // Long-standing CLI behaviour: POP instantiation seeds are
  // seed, seed+1, ... (not the splitmix stream the sweep runner uses).
  for (int i = 0; i < config.pop_instances; ++i) {
    config.pop_seeds.push_back(config.seed + static_cast<std::uint64_t>(i));
  }
  config.items = static_cast<int>(args.get_num("items", 6));
  config.dims = static_cast<int>(args.get_num("dims", 1));
  config.bins = static_cast<int>(args.get_num("bins", 0));
  return config;
}

int cmd_find(const Args& args) {
  const std::string heuristic = heuristic_arg(args, 1);
  if (heuristic.empty()) {
    std::fprintf(stderr, "usage: metaopt find <heuristic> [options]\n");
    return 2;
  }
  std::unique_ptr<heur::HeuristicInstance> instance;
  try {
    instance = heur::make_instance(instance_config(args, heuristic));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  heur::FindOptions options;
  options.budget_seconds = args.get_num("budget", 30.0);
  options.mip_threads =
      std::max(1, static_cast<int>(args.get_num("mip-threads", 1)));
  options.pricing = parse_pricing(args);
  options.certify = args.flags.count("certify") > 0;
  options.seed_search_seconds = options.budget_seconds * 0.3;

  const heur::GapFindResult result = instance->find_gap(options);

  std::printf("status:      %s\n", lp::to_string(result.status));
  std::printf("gap:         %.3f (%.2f%% normalized)\n", result.gap,
              100.0 * result.normalized_gap);
  std::printf("opt / heur:  %.3f / %.3f\n", result.opt_value,
              result.heur_value);
  std::printf("bound:       %s\n",
              std::isfinite(result.bound)
                  ? util::format_double(result.bound).c_str()
                  : "open");
  std::printf("nodes:       %ld in %.1fs\n", result.nodes, result.seconds);
  if (args.flags.count("certify") > 0) {
    std::printf("certified:   %s\n", result.certified ? "yes" : "NO");
  }
  std::printf("model:       %d vars, %d rows, %d SOS, %d binaries\n",
              result.stats.num_vars, result.stats.num_constraints,
              result.stats.num_complementarities, result.stats.num_binaries);
  int shown = 0;
  for (std::size_t k = 0; k < result.volumes.size() && shown < 15; ++k) {
    if (result.volumes[k] > 1e-6) {
      std::printf("  %s = %.3f\n",
                  instance->leader_var_name(static_cast<int>(k)).c_str(),
                  result.volumes[k]);
      ++shown;
    }
  }
  maybe_csv(args, "find", heuristic, result.gap, result.normalized_gap,
            result.seconds);
  return 0;
}

int cmd_bound(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: metaopt bound dp|pop [options]\n");
    return 2;
  }
  const std::string heuristic = args.positional[1];
  const net::Topology topo = domains::load_topology(args.get("topology", "b4"));
  const te::PathSet paths(topo, te::all_pairs(topo),
                          static_cast<int>(args.get_num("paths", 2)));
  core::GapBounder bounder(topo, paths);
  core::AdversarialOptions options;
  options.mip.time_limit_seconds = args.get_num("budget", 30.0);
  options.mip.threads =
      std::max(1, static_cast<int>(args.get_num("mip-threads", 1)));
  options.mip.lp.pricing = parse_pricing(args);
  if (args.flags.count("certify") > 0) {
    options.mip.certify = true;
    options.mip.lp.certify = true;
  }
  options.demand_ub = args.get_num("demand-ub", 0.0);
  options.pair_mask =
      domains::make_support_mask(paths.num_pairs(),
                                 static_cast<int>(args.get_num("pairs", 0)));

  core::GapBoundResult result;
  if (heuristic == "dp") {
    te::DpConfig dp;
    dp.threshold = args.get_num("threshold", 50.0);
    result = bounder.bound_dp_gap(dp, options);
  } else if (heuristic == "pop") {
    te::PopConfig pop;
    pop.num_partitions = static_cast<int>(args.get_num("partitions", 2));
    std::vector<std::uint64_t> seeds;
    const int instances = static_cast<int>(args.get_num("instances", 3));
    for (int i = 0; i < instances; ++i) seeds.push_back(1 + i);
    result = bounder.bound_pop_gap(pop, seeds, options);
  } else {
    std::fprintf(stderr, "unknown heuristic '%s'\n", heuristic.c_str());
    return 2;
  }
  std::printf("status:       %s\n", lp::to_string(result.status));
  std::printf("upper bound:  %.3f (%.2f%% of total capacity)\n",
              result.upper_bound, 100.0 * result.normalized_upper_bound);
  std::printf("solve time:   %.2fs (model: %d vars, %d rows, 0 SOS)\n",
              result.seconds, result.stats.num_vars,
              result.stats.num_constraints);
  if (args.flags.count("certify") > 0) {
    std::printf("certified:    %s\n", result.certified ? "yes" : "NO");
  }
  maybe_csv(args, "bound", heuristic, result.upper_bound,
            result.normalized_upper_bound, result.seconds);
  return 0;
}

int cmd_search(const Args& args) {
  const std::string heuristic = heuristic_arg(args, 2);
  if (args.positional.size() < 2 || heuristic.empty()) {
    std::fprintf(
        stderr, "usage: metaopt search hill|anneal|random|quant <heuristic>\n");
    return 2;
  }
  const std::string method = args.positional[1];
  std::unique_ptr<heur::HeuristicInstance> instance;
  try {
    instance = heur::make_instance(instance_config(args, heuristic));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::unique_ptr<heur::GapOracle> base = instance->make_oracle();
  // Climb only the support (--pairs), as the find's seed search does;
  // pairs outside it stay at zero volume.
  std::vector<bool> support(base->num_leader_vars(), true);
  if (const auto* te =
          dynamic_cast<const domains::TeInstanceBase*>(instance.get());
      te != nullptr && !te->pair_mask().empty()) {
    support = te->pair_mask();
  }
  const heur::MaskedGapOracle oracle(*base, support);

  search::SearchOptions options;
  options.time_limit_seconds = args.get_num("budget", 30.0);
  options.demand_ub = instance->leader_ub();
  options.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  options.levels = instance->quantize_levels();

  search::SearchResult r;
  if (method == "hill") r = search::hill_climb(oracle, options);
  else if (method == "anneal") r = search::simulated_annealing(oracle, options);
  else if (method == "random") r = search::random_search(oracle, options);
  else if (method == "quant") r = search::quantized_climb(oracle, options);
  else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  const double normalizer = instance->gap_normalizer();
  std::printf("leader vars: %d of %d\n", oracle.num_leader_vars(),
              base->num_leader_vars());
  std::printf("best gap:    %.3f (%.2f%% normalized)\n", r.best.gap(),
              100.0 * r.best.gap() / normalizer);
  std::printf("evaluations: %ld in %.1fs (%ld restarts)\n", r.evaluations,
              r.seconds, r.restarts);
  maybe_csv(args, "search." + method, heuristic, r.best.gap(),
            r.best.gap() / normalizer, r.seconds);
  return 0;
}

int cmd_sweep(const Args& args) {
  // Spec tokens: everything after "sweep" that looks like key=value,
  // optionally preceded by the contents of --spec FILE.
  std::vector<std::string> tokens;
  const std::string spec_file = args.get("spec", "");
  if (!spec_file.empty()) {
    std::ifstream in(spec_file);
    if (!in) {
      std::fprintf(stderr, "cannot open spec file '%s'\n", spec_file.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
        line.erase(hash);
      }
      std::istringstream words(line);
      std::string word;
      while (words >> word) tokens.push_back(word);
    }
  }
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    tokens.push_back(args.positional[i]);
  }
  if (tokens.empty()) {
    std::fprintf(stderr,
                 "usage: metaopt sweep key=value... (see header comment)\n");
    return 2;
  }

  const runner::SweepSpec spec = runner::parse_sweep_spec(tokens);
  runner::SweepOptions options;
  options.threads = static_cast<int>(args.get_num("threads", 0));
  options.log_progress = false;
  // --shard i/N: run only the jobs with id % N == i (partitioned after
  // expansion, so shard output merges byte-identically — see
  // merge-shards).
  if (const std::string shard = args.get("shard", ""); !shard.empty()) {
    const std::size_t slash = shard.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= shard.size()) {
      std::fprintf(stderr, "--shard wants i/N (e.g. --shard 0/3), got '%s'\n",
                   shard.c_str());
      return 2;
    }
    options.shard_index = std::atoi(shard.substr(0, slash).c_str());
    options.shard_count = std::atoi(shard.substr(slash + 1).c_str());
    if (options.shard_count < 1 || options.shard_index < 0 ||
        options.shard_index >= options.shard_count) {
      std::fprintf(stderr, "--shard %s: index out of range\n", shard.c_str());
      return 2;
    }
  }
  options.checkpoint_path = args.get("checkpoint", "");
  options.checkpoint_every =
      static_cast<int>(args.get_num("checkpoint-every", 1));
  options.resume_manifest = args.get("resume", "");
  if (args.flags.count("quiet") == 0) {
    options.on_progress = [](const runner::JobResult& job, int done,
                             int total) {
      std::fprintf(stderr,
                   "[%3d/%3d] job %-3d %-3s %-8s x=%-6s %-7s gap=%-10.3f "
                   "(%.1fs)\n",
                   done, total, job.spec.id,
                   runner::to_string(job.spec.heuristic),
                   runner::is_binpack(job.spec.heuristic)
                       ? "-"
                       : job.spec.topology.c_str(),
                   util::format_double(job.spec.axis_value()).c_str(),
                   runner::to_string(job.status), job.result.gap,
                   job.wall_seconds);
    };
  }

  const runner::SweepReport report = runner::SweepRunner(options).run(spec);

  std::printf("jobs:      %zu (%d ok, %d timeout, %d failed",
              report.jobs.size(), report.num_ok, report.num_timeout,
              report.num_failed);
  if (report.num_resumed > 0) std::printf(", %d resumed", report.num_resumed);
  std::printf(")\n");
  if (options.shard_count > 1) {
    std::printf("shard:     %d/%d\n", options.shard_index,
                options.shard_count);
  }
  std::printf("threads:   %d\n", report.threads);
  std::printf("wall:      %.2fs\n", report.wall_seconds);
  double worst = 0.0;
  const runner::JobResult* worst_job = nullptr;
  for (const runner::JobResult& job : report.jobs) {
    if (job.status == runner::JobStatus::Ok &&
        job.result.normalized_gap >= worst) {
      worst = job.result.normalized_gap;
      worst_job = &job;
    }
  }
  if (worst_job != nullptr) {
    const bool binpack = runner::is_binpack(worst_job->spec.heuristic);
    const std::string where =
        binpack ? "d=" + std::to_string(worst_job->spec.dims)
                : worst_job->spec.topology;
    std::printf("worst gap: %.3f (%.2f%% of %s) at %s %s x=%s\n",
                worst_job->result.gap,
                100.0 * worst_job->result.normalized_gap,
                binpack ? "bin budget" : "capacity",
                runner::to_string(worst_job->spec.heuristic), where.c_str(),
                util::format_double(worst_job->spec.axis_value()).c_str());
  }
  for (const runner::JobResult& job : report.jobs) {
    if (job.status == runner::JobStatus::Failed) {
      std::printf("job %d FAILED: %s\n", job.spec.id, job.error.c_str());
    }
  }

  if (const std::string path = args.get("jsonl", ""); !path.empty()) {
    report.write_jsonl(path);
    std::printf("jsonl:     %s\n", path.c_str());
  }
  if (const std::string path = args.get("csv", ""); !path.empty()) {
    report.write_csv(path, "sweep");
    std::printf("csv:       %s\n", path.c_str());
  }
  // 0 = at least one job produced a gap and none threw; 1 = some job
  // failed; 3 = nothing failed but no job finished ok either (every job
  // timed out with no incumbent), so the campaign was unproductive.
  if (report.num_failed > 0) return 1;
  return report.num_ok > 0 ? 0 : 3;
}

int cmd_merge_shards(const Args& args) {
  // metaopt merge-shards --out merged.jsonl shard0.jsonl shard1.jsonl ...
  const std::string out_path = args.get("out", "");
  std::vector<std::string> inputs(args.positional.begin() + 1,
                                  args.positional.end());
  if (out_path.empty() || inputs.empty()) {
    std::fprintf(stderr,
                 "usage: metaopt merge-shards --out merged.jsonl "
                 "shard0.jsonl shard1.jsonl ...\n");
    return 2;
  }
  const std::string merged = runner::merge_shard_jsonl(inputs);
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
    return 1;
  }
  out << merged;
  out.close();
  std::size_t records = 0;
  for (char c : merged) records += c == '\n';
  std::printf("merged %zu records from %zu shards into %s\n", records,
              inputs.size(), out_path.c_str());
  return 0;
}

int cmd_explain(const Args& args) {
  const std::string jsonl = args.get("jsonl", "");
  std::string heuristic = heuristic_arg(args, 1);
  if (jsonl.empty() && heuristic.empty()) {
    std::fprintf(stderr,
                 "usage: metaopt explain <heuristic> [options], or "
                 "metaopt explain --jsonl FILE [--job N]\n");
    return 2;
  }

  // --bench-out implies obs so probe counters land in the report.
  const std::string bench_out = args.get("bench-out", "");
  if (!bench_out.empty()) obs::set_enabled(true);
  const obs::MetricsSnapshot obs_baseline = obs::snapshot();

  explain::ExplainOptions options;
  options.strategy = args.get("strategy", "greedy");
  options.min_gap_percent = args.get_num("min-gap", -1.0);
  options.seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  options.probe.opt_budget_seconds = args.get_num("probe-budget", 10.0);

  std::unique_ptr<heur::HeuristicInstance> instance;
  std::vector<double> witness;
  std::vector<explain::Region> regions;

  if (!jsonl.empty()) {
    // Witness from a finished campaign: cluster it into adversarial
    // regions, then explain --job N or the worst region's representative.
    std::vector<runner::JobRecord> records = runner::read_sweep_jsonl(jsonl);
    if (!heuristic.empty()) {
      std::erase_if(records, [&](const runner::JobRecord& r) {
        return r.heuristic != heuristic;
      });
    }
    regions = explain::cluster_regions(records, /*min_norm_gap=*/1e-9);
    const runner::JobRecord* record = nullptr;
    if (args.flags.count("job") > 0) {
      const int want = static_cast<int>(args.get_num("job", -1));
      for (const runner::JobRecord& r : records) {
        if (r.job == want) record = &r;
      }
      if (record == nullptr) {
        std::fprintf(stderr, "no job %d in %s\n", want, jsonl.c_str());
        return 2;
      }
      if (!record->ok() || record->volumes.empty()) {
        std::fprintf(stderr,
                     "job %d has no witness (status %s; pre-witness "
                     "campaign files record none)\n",
                     want, record->status.c_str());
        return 3;
      }
    } else {
      const int best = explain::best_region(regions);
      if (best < 0) {
        std::fprintf(stderr, "no gap-inducing job with a witness in %s\n",
                     jsonl.c_str());
        return 3;
      }
      record = &regions[static_cast<std::size_t>(best)].rep;
    }
    instance = heur::make_instance(runner::record_to_instance_config(*record));
    witness = record->volumes;
    options.source = jsonl + ":job=" + std::to_string(record->job);
  } else {
    try {
      instance = heur::make_instance(instance_config(args, heuristic));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    heur::FindOptions find;
    find.budget_seconds = args.get_num("budget", 30.0);
    find.mip_threads =
        std::max(1, static_cast<int>(args.get_num("mip-threads", 1)));
    find.certify = true;
    // No black-box seeding: keeps the witness (and hence the whole
    // explain run) machine-load independent.
    find.seed_search_seconds = 0.0;
    const heur::GapFindResult found = instance->find_gap(find);
    if (!found.has_solution() || found.gap <= 0.0) {
      std::fprintf(stderr, "find produced no gap witness (status %s)\n",
                   lp::to_string(found.status));
      return 3;
    }
    witness = found.volumes;
    options.source = "find";
  }

  explain::ExplainOutcome outcome =
      explain_witness(*instance, witness, options);
  outcome.report.regions = std::move(regions);
  std::fputs(explain::render_text(outcome.report).c_str(), stdout);
  if (!outcome.ok) {
    std::fprintf(stderr, "explain: %s\n", outcome.error.c_str());
  }

  if (!bench_out.empty()) {
    obs::BenchReport bench;
    bench.bench = "explain";
    bench.config = explain::bench_config(outcome.report);
    bench.wall_seconds = outcome.report.wall_seconds;
    bench.metrics = obs::diff(obs_baseline, obs::snapshot());
    for (const auto& [name, samples] :
         explain::bench_summaries(outcome.report)) {
      bench.add_summary(name, samples);
    }
    bench.write(bench_out);
    std::printf("bench:     %s\n", bench_out.c_str());
  }
  maybe_csv(args, "explain", instance->name(), outcome.report.core.gap,
            instance->gap_normalizer() > 0.0
                ? outcome.report.core.gap / instance->gap_normalizer()
                : 0.0,
            outcome.report.wall_seconds);
  return outcome.ok ? 0 : 3;
}

/// Full subcommand overview; `out` is stdout for help requests and
/// stderr for usage errors (same text either way).
void print_help(std::FILE* out) {
  std::fputs(
      "metaopt — adversarial gap analysis for fast heuristics\n"
      "\n"
      "subcommands:\n"
      "  topo <name|file>      topology summary\n"
      "  find <heuristic>      white-box adversarial search (Eq. 1)\n"
      "  bound dp|pop          primal-dual gap upper bound\n"
      "  search hill|anneal|random|quant <heuristic>\n"
      "                        black-box baselines\n"
      "  sweep key=value...    parallel scenario sweep\n"
      "                        (--shard i/N, --checkpoint M, --resume M\n"
      "                        for sharded / restartable campaigns)\n"
      "  merge-shards --out F  recombine per-shard sweep JSONL files\n"
      "                        (byte-identical to the unsharded run)\n"
      "  explain <heuristic>   minimal adversarial core of a gap witness\n"
      "                        (also: explain --jsonl FILE from a sweep)\n"
      "  help                  this overview\n"
      "\n",
      out);
  std::string names;
  for (const std::string& name : heur::registered_heuristics()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  std::fprintf(out, "registered heuristics: %s\n", names.c_str());
  std::string strategies;
  for (const std::string& name : explain::minimizer_names()) {
    if (!strategies.empty()) strategies += ", ";
    strategies += name;
  }
  std::fprintf(out, "core-minimizer strategies: %s\n", strategies.c_str());
  std::fputs(
      "\ncommon solver options:\n"
      "  --mip-threads N       B&B worker threads (answers are\n"
      "                        thread-count-invariant)\n"
      "  --pricing RULE        node-LP pricing: partial (default),\n"
      "                        dantzig, steepest\n"
      "  --certify             independently certify every solve\n"
      "\nsee the header of tools/metaopt_cli.cpp for all options\n", out);
}

/// Exports whatever the obs subsystem recorded (runs even when the
/// command failed, so a partial trace of a crash-adjacent run survives).
void export_obs(const Args& args) {
  if (!obs::enabled()) return;
  if (const std::string path = args.get("trace", ""); !path.empty()) {
    obs::write_chrome_trace(path);
    std::fprintf(stderr, "trace:      %s (%zu events, %llu dropped)\n",
                 path.c_str(), obs::trace_events().size(),
                 static_cast<unsigned long long>(obs::trace_dropped()));
  }
  if (const std::string path = args.get("trace-jsonl", ""); !path.empty()) {
    obs::write_trace_jsonl(path);
    std::fprintf(stderr, "trace-jsonl: %s\n", path.c_str());
  }
  if (args.flags.count("metrics") > 0) {
    std::printf("metrics:   %s\n", obs::snapshot().to_json().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Warn);
  domains::register_builtin();
  const Args args = parse_args(argc, argv);
  if (const auto it = args.flags.find("log"); it != args.flags.end()) {
    util::set_log_level(it->second);
  }
  if (args.flags.count("help") > 0) {
    print_help(stdout);
    return 0;
  }
  if (args.positional.empty()) {
    // Same overview as --help, but on stderr and failing: a bare
    // `metaopt` is a usage error, not a help request.
    print_help(stderr);
    return 2;
  }
  if (args.flags.count("metrics") > 0 || !args.get("trace", "").empty() ||
      !args.get("trace-jsonl", "").empty()) {
    obs::set_enabled(true);
  }
  const std::string& command = args.positional[0];
  int rc = 2;
  try {
    if (command == "topo") rc = cmd_topo(args);
    else if (command == "find") rc = cmd_find(args);
    else if (command == "bound") rc = cmd_bound(args);
    else if (command == "search") rc = cmd_search(args);
    else if (command == "sweep") rc = cmd_sweep(args);
    else if (command == "merge-shards") rc = cmd_merge_shards(args);
    else if (command == "explain") rc = cmd_explain(args);
    else if (command == "help") { print_help(stdout); rc = 0; }
    else {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      print_help(stderr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  export_obs(args);
  return rc;
}
