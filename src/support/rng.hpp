// Deterministic random number generation.
//
// xoshiro256** seeded through splitmix64: fast, high quality, and —
// unlike std::mt19937 + std::uniform_int_distribution — produces identical
// streams on every platform, which we rely on for reproducible experiments.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace pfsc {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample `k` distinct values from [0, n) uniformly (partial Fisher–Yates).
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n, std::uint32_t k);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace pfsc
