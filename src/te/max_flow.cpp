#include "te/max_flow.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "kkt/materialize.h"
#include "obs/obs.h"

namespace metaopt::te {

namespace {

const obs::Counter c_flow_solves = obs::counter("te.flow_solves");
// Included pairs with paths that solve_max_flow left out of its LP
// because their volume is exactly zero.
const obs::Counter c_pairs_skipped = obs::counter("te.flow_pairs_skipped");

}  // namespace

FlowEncoding build_max_flow(lp::Model& model, const net::Topology& topo,
                            const PathSet& paths,
                            const std::vector<lp::LinExpr>& demand,
                            const std::string& prefix,
                            const MaxFlowOptions& options) {
  if (demand.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("build_max_flow: demand size mismatch");
  }
  if (options.capacity_override &&
      options.capacity_override->size() !=
          static_cast<std::size_t>(topo.num_edges())) {
    throw std::invalid_argument("build_max_flow: capacity override size");
  }

  FlowEncoding enc;
  enc.path_flow.resize(paths.num_pairs());

  const double bound_dual =
      options.dual_bound_scale > 0.0
          ? options.dual_bound_scale * (paths.max_hops() + 1.0)
          : lp::kInf;
  const double row_dual =
      options.dual_bound_scale > 0.0 ? options.dual_bound_scale : lp::kInf;
  enc.inner.set_bound_dual_bound(bound_dual);

  // Flow variables + volume rows.
  std::vector<lp::LinExpr> edge_load(topo.num_edges());
  std::vector<bool> edge_used(topo.num_edges(), false);
  for (int k = 0; k < paths.num_pairs(); ++k) {
    if (options.include && !(*options.include)[k]) continue;
    const auto& plist = paths.paths(k);
    if (plist.empty()) continue;
    lp::LinExpr flow_k;
    enc.path_flow[k].reserve(plist.size());
    for (std::size_t p = 0; p < plist.size(); ++p) {
      const lp::Var f = model.add_var(
          prefix + "f[" + std::to_string(k) + "," + std::to_string(p) + "]");
      enc.inner.add_decision_var(f);
      enc.path_flow[k].push_back(f);
      flow_k += f;
      enc.total_flow += f;
      for (net::EdgeId e : plist[p].edges) {
        edge_load[e] += f;
        edge_used[e] = true;
      }
    }
    enc.inner.add_constraint(flow_k <= demand[k],
                             prefix + "vol[" + std::to_string(k) + "]",
                             row_dual);
  }

  // Capacity rows (only for edges actually carrying a path).
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    if (!edge_used[e]) continue;
    const double cap = options.capacity_override
                           ? (*options.capacity_override)[e]
                           : topo.edge(e).capacity;
    enc.inner.add_constraint(
        edge_load[e] <= lp::LinExpr(cap * options.capacity_scale),
        prefix + "cap[" + std::to_string(e) + "]", row_dual);
  }

  enc.inner.set_objective(enc.total_flow);
  return enc;
}

MaxFlowResult solve_max_flow(const net::Topology& topo, const PathSet& paths,
                             const std::vector<double>& volumes,
                             const MaxFlowOptions& options) {
  if (volumes.size() != static_cast<std::size_t>(paths.num_pairs())) {
    throw std::invalid_argument("solve_max_flow: volume size mismatch");
  }
  c_flow_solves.inc();
  // Zero-volume pairs leave the LP (see the header); `active` is the
  // caller's mask narrowed to the pairs that carry volume.
  std::vector<bool> active(volumes.size());
  std::vector<bool> zero(volumes.size(), false);
  std::uint64_t skipped = 0;
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    const bool included = !options.include || (*options.include)[k];
    zero[k] = included && volumes[k] == 0.0;
    active[k] = included && !zero[k];
    if (zero[k] && !paths.paths(static_cast<int>(k)).empty()) ++skipped;
  }
  c_pairs_skipped.add(skipped);
  MaxFlowOptions reduced = options;
  reduced.include = &active;

  lp::Model model;
  std::vector<lp::LinExpr> demand;
  demand.reserve(volumes.size());
  for (double v : volumes) demand.emplace_back(v);
  const FlowEncoding enc =
      build_max_flow(model, topo, paths, demand, "mf.", reduced);
  kkt::materialize(model, enc.inner);

  MaxFlowResult result;
  lp::SimplexOptions simplex;
  simplex.certify = options.certify;
  const lp::Solution sol = lp::SimplexSolver(simplex).solve(model);
  result.status = sol.status;
  if (sol.status != lp::SolveStatus::Optimal) return result;
  result.certified = sol.certified;
  result.total_flow = sol.objective;
  result.path_flow.resize(enc.path_flow.size());
  for (std::size_t k = 0; k < enc.path_flow.size(); ++k) {
    if (zero[k]) {
      result.path_flow[k].assign(paths.paths(static_cast<int>(k)).size(), 0.0);
      continue;
    }
    for (const lp::Var f : enc.path_flow[k]) {
      result.path_flow[k].push_back(sol.values[f.id]);
    }
  }
  return result;
}

std::vector<double> edge_loads(const net::Topology& topo, const PathSet& paths,
                               const std::vector<std::vector<double>>& flow) {
  std::vector<double> load(topo.num_edges(), 0.0);
  for (int k = 0; k < static_cast<int>(flow.size()); ++k) {
    const auto& plist = paths.paths(k);
    for (std::size_t p = 0; p < flow[k].size() && p < plist.size(); ++p) {
      for (net::EdgeId e : plist[p].edges) load[e] += flow[k][p];
    }
  }
  return load;
}

}  // namespace metaopt::te
