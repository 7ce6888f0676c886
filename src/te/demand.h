// Demands and synthetic demand generation for the TE problems (Table 1).
#pragma once

#include <utility>
#include <vector>

#include "net/topology.h"
#include "util/rng.h"

namespace metaopt::te {

/// One demand: (s_k, t_k, d_k) in the paper's notation.
struct Demand {
  net::NodeId src = -1;
  net::NodeId dst = -1;
  double volume = 0.0;
};

/// All ordered node pairs (s != t) of a topology, in deterministic
/// (src-major) order — the canonical demand-pair universe.
std::vector<std::pair<net::NodeId, net::NodeId>> all_pairs(
    const net::Topology& topo);

/// Extracts volumes in pair order.
std::vector<double> volumes_of(const std::vector<Demand>& demands);

/// Synthetic demand generators — the substitute for the paper's
/// historically observed demands (goalposts, §3.3). All are seeded.
class DemandGenerator {
 public:
  DemandGenerator(const net::Topology& topo, util::Rng rng)
      : topo_(topo), rng_(std::move(rng)) {}

  /// i.i.d. uniform volumes in [lo, hi] for every ordered pair.
  std::vector<Demand> uniform(double lo, double hi);

  /// Gravity model: node masses ~ U[0.5, 1.5]; volume(s,t) proportional
  /// to mass_s * mass_t, scaled so the mean volume equals `mean_volume`.
  std::vector<Demand> gravity(double mean_volume);

  /// Hose-bounded demands: draws uniform volumes, then rescales each
  /// node's total egress/ingress to at most `hose_cap`.
  std::vector<Demand> hose(double lo, double hi, double hose_cap);

 private:
  const net::Topology& topo_;
  util::Rng rng_;
};

}  // namespace metaopt::te
