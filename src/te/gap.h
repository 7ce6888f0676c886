// Direct gap evaluation: gap(d) = OPT(d) - Heuristic(d).
//
// These oracles are the shared ground truth of the whole system: the
// black-box searchers (§3.4) climb on them, the white-box search uses
// them as its branch-and-bound primal heuristic (so every incumbent is a
// genuine adversarial input), and the tests compare the convex encodings
// against them.
#pragma once

#include <cstdint>
#include <vector>

#include "heur/gap.h"
#include "te/client_split.h"
#include "te/demand_pinning.h"
#include "te/max_flow.h"
#include "te/pop.h"

namespace metaopt::te {

// The result/oracle core is domain-neutral now (heur/gap.h); these
// aliases keep the established te:: spellings working. TE oracles use
// the default Maximize sense: gap() = opt - heur.
using GapResult = heur::GapResult;
using GapOracle = heur::GapOracle;

/// OPT vs Demand Pinning.
class DpGapOracle final : public GapOracle {
 public:
  DpGapOracle(const net::Topology& topo, const PathSet& paths,
              DpConfig config)
      : topo_(topo), paths_(paths), config_(config) {}

  [[nodiscard]] int num_leader_vars() const override {
    return paths_.num_pairs();
  }
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& volumes) const override;

  [[nodiscard]] const DpConfig& config() const { return config_; }

 private:
  const net::Topology& topo_;
  const PathSet& paths_;
  DpConfig config_;
};

/// OPT vs POP, averaged over a fixed set of partition instantiations
/// (the §3.2 expectation surrogate). A single seed reproduces the
/// "1 random partition" column of Fig. 5a.
class PopGapOracle final : public GapOracle {
 public:
  PopGapOracle(const net::Topology& topo, const PathSet& paths,
               PopConfig config, std::vector<std::uint64_t> seeds)
      : topo_(topo), paths_(paths), config_(config), seeds_(std::move(seeds)) {}

  [[nodiscard]] int num_leader_vars() const override {
    return paths_.num_pairs();
  }
  /// heur = mean POP value across the instantiation seeds.
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& volumes) const override;

  /// Per-instantiation heuristic values (Fig. 5a generalization test).
  /// When `certified` is given it is ANDed with every instantiation's
  /// certification verdict.
  [[nodiscard]] std::vector<double> per_instance_heur(
      const std::vector<double>& volumes, bool* certified = nullptr) const;

  [[nodiscard]] const PopConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const {
    return seeds_;
  }

 private:
  const net::Topology& topo_;
  const PathSet& paths_;
  PopConfig config_;
  std::vector<std::uint64_t> seeds_;
};

/// OPT vs POP with client splitting (Appendix A), averaged over the
/// instantiation seeds like PopGapOracle.
class PopCsGapOracle final : public GapOracle {
 public:
  PopCsGapOracle(const net::Topology& topo, const PathSet& paths,
                 PopConfig config, ClientSplitConfig cs_config,
                 std::vector<std::uint64_t> seeds)
      : topo_(topo), paths_(paths), config_(config), cs_config_(cs_config),
        seeds_(std::move(seeds)) {}

  [[nodiscard]] int num_leader_vars() const override {
    return paths_.num_pairs();
  }
  [[nodiscard]] GapResult evaluate(
      const std::vector<double>& volumes) const override;

 private:
  const net::Topology& topo_;
  const PathSet& paths_;
  PopConfig config_;
  ClientSplitConfig cs_config_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace metaopt::te
