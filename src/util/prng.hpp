// Deterministic pseudo-random number generation for workload synthesis.
//
// Benchmarks and property tests must be reproducible run-to-run, so all
// randomness in the repository flows through Prng seeded explicitly by the
// caller. The generator is xoshiro256** seeded via SplitMix64, which is fast,
// has good statistical quality, and is trivially portable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hxrc::util {

/// SplitMix64 step; used for seeding and as a cheap standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Deterministic xoshiro256** generator.
///
/// Satisfies UniformRandomBitGenerator so it can also drive <random>
/// distributions, though the convenience members below cover typical use.
class Prng {
 public:
  using result_type = std::uint64_t;

  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept;

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) noexcept {
    return pick(std::span<const T>(items));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      auto j = static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Fork an independent stream; forked streams do not perturb the parent
  /// beyond one draw, so inserting a new consumer does not reshuffle others.
  Prng fork() noexcept { return Prng(next()); }

 private:
  std::uint64_t state_[4];
};

}  // namespace hxrc::util
