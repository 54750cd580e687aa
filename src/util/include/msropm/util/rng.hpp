#pragma once
// Deterministic, seedable pseudo-random number generation for all stochastic
// components of the MSROPM reproduction (initial oscillator phases, phase
// noise, annealing baselines, graph generators).
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed yields a well-mixed initial state.
// It satisfies the C++ UniformRandomBitGenerator concept, so it can be used
// with <random> distributions, but the common draws (uniform real, normal,
// integer range, Bernoulli) are provided as members for convenience and
// reproducibility across standard-library implementations.

#include <array>
#include <cstdint>
#include <vector>

namespace msropm::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG. Fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed. Two Rng objects with the same seed
  /// produce identical streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Fill out[0, n) with n uniform() draws in stream order: the bulk form
  /// for hot loops (one call, generator state kept in registers).
  void uniform_array(double* out, std::size_t n) noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal draw (Box-Muller with caching of the second value).
  /// This is the cold scalar path (initial perturbations, per-machine
  /// detune); the phase kernel's per-step noise draws its normals in bulk
  /// (phase/simd_kernels.hpp euler_step_l), one vectorised pass per chunk.
  [[nodiscard]] double normal() noexcept;

  /// Normal draw with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with probability p of true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Uniform phase in [0, 2*pi).
  [[nodiscard]] double uniform_phase() noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// Derive an independent child generator (for per-iteration streams).
  /// Advances this generator by one draw.
  [[nodiscard]] Rng split() noexcept;

  /// Derive the child generator for a numbered stream WITHOUT advancing this
  /// generator: split(i) is a pure function of (current state, i), so a
  /// master Rng seeded once can hand reproducible, decorrelated streams to
  /// any number of workers in any call order. This is how the portfolio
  /// derives per-(instance, strategy) RNGs from one master seed.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const noexcept;

  /// Expose state for checkpoint tests.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept { return s_; }
  /// Restore a state() snapshot (the phase kernel's lane-vectorised draws
  /// hand each stream back this way). Leaves the cached normal untouched.
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept { s_ = s; }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace msropm::util
