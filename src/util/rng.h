// Seeded random number generation helpers.
//
// All randomized components in the library (POP partitions, black-box
// searchers, demand generators) take an explicit Rng so experiments are
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace metaopt::util {

/// Advances `state` by one splitmix64 step (Steele, Lea & Flood 2014)
/// and returns the mixed output. The canonical way to spin up many
/// decorrelated streams from one root seed.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives the seed of stream `stream` from a root `base` seed: jobs or
/// instances indexed by `stream` get statistically independent RNGs that
/// depend only on (base, stream) — never on execution order.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// Deterministic PRNG wrapper with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Uniformly shuffles the vector in place.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Direct access for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace metaopt::util
