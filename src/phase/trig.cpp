#include "trig.hpp"

#include <array>
#include <atomic>
#include <stdexcept>

#include "simd_kernels.hpp"

namespace msropm::phase::detail {

#if defined(MSROPM_PHASE_SIMD)
// Defined in simd_avx512.cpp / simd_avx2.cpp, built for those ISAs.
const SimdKernels& simd_avx512();
const SimdKernels& simd_avx2();
#endif

namespace {

constexpr SimdKernels kScalar = kernels_of<1>();

std::size_t native_width() noexcept {
  static const std::size_t width = [] {
#if defined(MSROPM_PHASE_SIMD)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return std::size_t{8};
    }
    if (__builtin_cpu_supports("avx2")) return std::size_t{4};
#endif
    return std::size_t{1};
  }();
  return width;
}

std::atomic<std::size_t> forced_width{0};

}  // namespace

const SimdKernels& simd(std::size_t width) {
  if (width == 1) return kScalar;
#if defined(MSROPM_PHASE_SIMD)
  // A wider host runs every narrower ISA (AVX-512F implies AVX2).
  if (width == 8 && native_width() >= 8) return simd_avx512();
  if (width == 4 && native_width() >= 4) return simd_avx2();
#endif
  throw std::invalid_argument("phase simd: width not runnable on this host");
}

std::size_t simd_width() noexcept {
  const std::size_t forced = forced_width.load(std::memory_order_relaxed);
  return forced != 0 ? forced : native_width();
}

ScopedSimdWidth::ScopedSimdWidth(std::size_t width) {
  (void)simd(width);  // throws for an unrunnable width
  forced_width.store(width, std::memory_order_relaxed);
}

ScopedSimdWidth::~ScopedSimdWidth() {
  forced_width.store(0, std::memory_order_relaxed);
}

void pack_states(std::span<const util::Rng> rngs, std::uint64_t* state) {
  const std::size_t lanes = rngs.size();
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::array<std::uint64_t, 4> s = rngs[l].state();
    for (std::size_t k = 0; k < 4; ++k) state[k * lanes + l] = s[k];
  }
}

void unpack_states(const std::uint64_t* state, std::span<util::Rng> rngs) {
  const std::size_t lanes = rngs.size();
  for (std::size_t l = 0; l < lanes; ++l) {
    rngs[l].set_state({state[l], state[lanes + l], state[2 * lanes + l],
                       state[3 * lanes + l]});
  }
}

void uniform_lanes(std::span<util::Rng> rngs, double* u, double* v,
                   std::size_t pairs) {
  std::uint64_t state[4 * kMaxLanes] = {};
  pack_states(rngs, state);
  simd(rngs.size()).uniform_lanes(state, u, v, pairs);
  unpack_states(state, rngs);
}

}  // namespace msropm::phase::detail
