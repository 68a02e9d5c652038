// Deterministic random source for the simulator.
//
// One Rng per stochastic component, each seeded from the experiment seed and
// a component tag, so adding a component does not perturb the streams of the
// others.
//
// Every draw below consumes a fixed number of next_u64() calls, stated per
// method, so a consumer can skip a draw with discard() and replay it later
// from a copy of the generator taken at the same position.
#pragma once

#include <cstdint>
#include <string_view>

namespace gpucomm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed != 0 ? seed : 0x9e3779b97f4a7c15ull) {}

  /// Derive an independent stream for a named component.
  Rng fork(std::string_view tag) const;

  std::uint64_t next_u64();

  /// Advance the stream as n calls to next_u64() would, in O(1): splitmix64
  /// moves its state by a fixed increment per draw.
  void discard(std::uint64_t n);

  /// Uniform in [0, 1). One draw.
  double uniform();
  /// Uniform in [lo, hi). One draw.
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). One draw (none when n == 0).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Exponential with the given mean. One draw.
  double exponential(double mean);

  /// Lognormal: exp(N(mu, sigma^2)). Two draws.
  double lognormal(double mu, double sigma);

  /// Standard normal via Box-Muller (no cached spare; keeps state minimal).
  /// Two draws.
  double normal(double mean, double stddev);

  /// Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed delays). One
  /// draw.
  double bounded_pareto(double lo, double hi, double alpha);

  /// One draw.
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle of [0, n) indices written into out.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace gpucomm
