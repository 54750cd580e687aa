#include "trig.hpp"

#include <cmath>
#include <numbers>

// libmvec's vector sin/cos quadruple the trig throughput of the batched
// step kernel, whose per-node sin/cos refresh and per-oscillator Box-Muller
// noise dominate on ablation-sized fabrics; the vector log completes the
// Box-Muller set. The AVX2 bodies are gated behind a target attribute plus
// a runtime CPU check so the library still runs on baseline x86-64;
// MSROPM_HAVE_LIBMVEC is only defined when CMake actually found the library
// to link against (it ships with glibc -- no new dependency).
#if defined(MSROPM_HAVE_LIBMVEC) && defined(__x86_64__) && \
    defined(__GLIBC__) && defined(__GNUC__)
#define MSROPM_TRIG_MVEC 1
#include <immintrin.h>

extern "C" {
// x86-64 vector-math ABI names for the AVX2 (ymm, 4-lane double) variants.
__m256d _ZGVdN4v_sin(__m256d);
__m256d _ZGVdN4v_cos(__m256d);
__m256d _ZGVdN4v_log(__m256d);
}
#endif

namespace msropm::phase::detail {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void sincos_scalar(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GLIBC__)
    // One fused argument reduction for both outputs.
    ::sincos(x[i], &s[i], &c[i]);
#else
    s[i] = std::sin(x[i]);
    c[i] = std::cos(x[i]);
#endif
  }
}

// Box-Muller in place over interleaved uniform pairs (n even): (z[2k],
// z[2k+1]) = (u, v) in [0, 1)^2 becomes (r cos a, r sin a) with
// r = sqrt(-2 log(1 - u)), a = 2 pi v.
void box_muller_scalar(double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 2) {
    const double r = std::sqrt(-2.0 * std::log(1.0 - z[i]));
    const double a = kTwoPi * z[i + 1];
    double s = 0.0;
    double c = 0.0;
    sincos_scalar(&a, &s, &c, 1);
    z[i] = r * c;
    z[i + 1] = r * s;
  }
}

#if defined(MSROPM_TRIG_MVEC)
__attribute__((target("avx2"))) void sincos_avx2(const double* x, double* s,
                                                 double* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x4 = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(s + i, _ZGVdN4v_sin(x4));
    _mm256_storeu_pd(c + i, _ZGVdN4v_cos(x4));
  }
  // Tail lanes take the scalar kernel; the split is a pure function of the
  // index, so it is identical for every replica and batch width.
  sincos_scalar(x + i, s + i, c + i, n - i);
}

__attribute__((target("avx2"))) void box_muller_avx2(double* z,
                                                     std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m256d two_pi = _mm256_set1_pd(kTwoPi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Four interleaved pairs [u v u v | u v u v] -> one lane vector each.
    const __m256d x = _mm256_loadu_pd(z + i);
    const __m256d y = _mm256_loadu_pd(z + i + 4);
    const __m256d lo = _mm256_permute2f128_pd(x, y, 0x20);
    const __m256d hi = _mm256_permute2f128_pd(x, y, 0x31);
    const __m256d u = _mm256_sub_pd(one, _mm256_unpacklo_pd(lo, hi));
    const __m256d a = _mm256_mul_pd(two_pi, _mm256_unpackhi_pd(lo, hi));
    const __m256d r =
        _mm256_sqrt_pd(_mm256_mul_pd(minus_two, _ZGVdN4v_log(u)));
    const __m256d zc = _mm256_mul_pd(r, _ZGVdN4v_cos(a));
    const __m256d zs = _mm256_mul_pd(r, _ZGVdN4v_sin(a));
    // Re-interleave [c s c s | c s c s] in pair order.
    const __m256d even = _mm256_unpacklo_pd(zc, zs);
    const __m256d odd = _mm256_unpackhi_pd(zc, zs);
    _mm256_storeu_pd(z + i, _mm256_permute2f128_pd(even, odd, 0x20));
    _mm256_storeu_pd(z + i + 4, _mm256_permute2f128_pd(even, odd, 0x31));
  }
  box_muller_scalar(z + i, n - i);
}

bool use_avx2() {
  static const bool yes = __builtin_cpu_supports("avx2");
  return yes;
}
#endif

void box_muller(double* z, std::size_t n) {
#if defined(MSROPM_TRIG_MVEC)
  if (use_avx2()) {
    box_muller_avx2(z, n);
    return;
  }
#endif
  box_muller_scalar(z, n);
}

}  // namespace

void sincos_array(const double* x, double* s, double* c, std::size_t n) {
#if defined(MSROPM_TRIG_MVEC)
  if (use_avx2()) {
    sincos_avx2(x, s, c, n);
    return;
  }
#endif
  sincos_scalar(x, s, c, n);
}

void normal_array(util::Rng& rng, double* z, std::size_t n) {
  // Uniforms first, serially from the one stream, then the transform in
  // place; an odd n's last pair goes through a two-slot stack buffer.
  const std::size_t even = n & ~std::size_t{1};
  rng.uniform_array(z, even);
  box_muller(z, even);
  if (even != n) {
    double pair[2] = {rng.uniform(), rng.uniform()};
    box_muller_scalar(pair, 2);
    z[even] = pair[0];
  }
}

}  // namespace msropm::phase::detail
