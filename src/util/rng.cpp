#include "msropm/util/rng.hpp"

#include <cmath>
#include <numbers>

namespace msropm::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform on [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

void Rng::uniform_array(double* out, std::size_t n) noexcept {
  Rng local = *this;
  for (std::size_t i = 0; i < n; ++i) out[i] = local.uniform();
  s_ = local.s_;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(angle);
  has_cached_normal_ = true;
  return r * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::uniform_phase() noexcept {
  return uniform() * 2.0 * std::numbers::pi;
}

Rng Rng::split() noexcept {
  return Rng{(*this)() ^ 0xd1b54a32d192ed03ull};
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Hash (state, stream_id) down to a child seed through three splitmix64
  // steps; the Rng constructor re-expands it into a full 256-bit state. The
  // parent is untouched, so stream derivation commutes with parent draws.
  std::uint64_t x = stream_id + 0x9e3779b97f4a7c15ull;
  std::uint64_t h = splitmix64(x);
  x = h ^ s_[0] ^ rotl(s_[1], 17);
  h = splitmix64(x);
  x = h ^ s_[2] ^ rotl(s_[3], 29);
  h = splitmix64(x);
  return Rng{h};
}

}  // namespace msropm::util
