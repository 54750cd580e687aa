// Width-templated bodies of the phase module's SIMD kernel tables (see
// trig.hpp for the tables and the numerics contract). Included by exactly
// one translation unit per ISA -- trig.cpp (width 1), simd_avx2.cpp
// (width 4, built with -mavx2) and simd_avx512.cpp (width 8, built with
// -mavx512f -mavx512dq) -- and everything here has internal linkage, so no
// ISA-specific code can leak into another unit through the linker.
//
// Vectors are GCC vector extensions: plain +, -, * are element-wise IEEE
// operations, identical per element to the scalar ones (FMA contraction is
// off for the module), and `mask ? a : b` blends per lane.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "trig.hpp"

#if defined(MSROPM_PHASE_SIMD)
#include <immintrin.h>

extern "C" {
// x86-64 vector-math ABI names of glibc's libmvec double variants.
__m256d _ZGVdN4v_sin(__m256d);
__m256d _ZGVdN4v_cos(__m256d);
__m256d _ZGVdN4v_log(__m256d);
__m512d _ZGVeN8v_sin(__m512d);
__m512d _ZGVeN8v_cos(__m512d);
__m512d _ZGVeN8v_log(__m512d);
}
#endif

namespace msropm::phase::detail {
namespace {

/// Lane types: D doubles, U xoshiro words, L of each.
template <std::size_t L>
struct Lanes {
  typedef double D __attribute__((vector_size(8 * L)));
  typedef std::uint64_t U __attribute__((vector_size(8 * L)));
};
template <>
struct Lanes<1> {
  using D = double;
  using U = std::uint64_t;
};

template <class T>
inline T load(const void* p) {
  T v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
inline void store(void* p, const T& v) {
  std::memcpy(p, &v, sizeof v);
}

template <std::size_t L>
inline typename Lanes<L>::D splat(double x) {
  if constexpr (L == 1) {
    return x;
  } else {
    typename Lanes<L>::D v{};
    for (std::size_t l = 0; l < L; ++l) v[l] = x;
    return v;
  }
}

template <class M, class T>
inline T select(M m, T a, T b) {
  return m ? a : b;
}

/// Lane l gets kcj where bit l of `bits` is set, else 0.0.
template <std::size_t L>
inline typename Lanes<L>::D weights_of(unsigned bits, double kcj) {
  if constexpr (L == 1) {
    return (bits & 1u) != 0 ? kcj : 0.0;
  } else {
    typename Lanes<L>::D v{};
    for (std::size_t l = 0; l < L; ++l) v[l] = (bits >> l & 1u) != 0 ? kcj : 0.0;
    return v;
  }
}

// --- transcendentals, W at a time ------------------------------------------

template <std::size_t W>
struct Math;

template <>
struct Math<1> {
  static void sincos(double x, double& s, double& c) {
#if defined(__GLIBC__)
    // One fused argument reduction for both outputs.
    ::sincos(x, &s, &c);
#else
    s = std::sin(x);
    c = std::cos(x);
#endif
  }
  static double log(double x) { return std::log(x); }
  static double sqrt(double x) { return std::sqrt(x); }
};

#if defined(MSROPM_PHASE_SIMD) && defined(__AVX2__)
template <>
struct Math<4> {
  using D = Lanes<4>::D;
  static void sincos(D x, D& s, D& c) {
    s = reinterpret_cast<D>(_ZGVdN4v_sin(reinterpret_cast<__m256d>(x)));
    c = reinterpret_cast<D>(_ZGVdN4v_cos(reinterpret_cast<__m256d>(x)));
  }
  static D log(D x) {
    return reinterpret_cast<D>(_ZGVdN4v_log(reinterpret_cast<__m256d>(x)));
  }
  static D sqrt(D x) {
    return reinterpret_cast<D>(_mm256_sqrt_pd(reinterpret_cast<__m256d>(x)));
  }
};
#endif

#if defined(MSROPM_PHASE_SIMD) && defined(__AVX512F__)
template <>
struct Math<8> {
  using D = Lanes<8>::D;
  static void sincos(D x, D& s, D& c) {
    s = reinterpret_cast<D>(_ZGVeN8v_sin(reinterpret_cast<__m512d>(x)));
    c = reinterpret_cast<D>(_ZGVeN8v_cos(reinterpret_cast<__m512d>(x)));
  }
  static D log(D x) {
    return reinterpret_cast<D>(_ZGVeN8v_log(reinterpret_cast<__m512d>(x)));
  }
  static D sqrt(D x) {
    const auto v = reinterpret_cast<__m512d>(x);
    return reinterpret_cast<D>(_mm512_mask_sqrt_pd(v, 0xff, v));
  }
};
#endif

// The array passes run W elements at a time; a final partial block is
// staged through zero-padded W-element copies so it takes the same vector
// call as every other element. In-place use (an output array equal to an
// input) is fine: each block is loaded before it is stored.

template <std::size_t W>
void sincos_w(const double* x, double* s, double* c, std::size_t n) {
  using D = typename Lanes<W>::D;
  const auto block = [](const double* xb, double* sb, double* cb) {
    D sv{};
    D cv{};
    Math<W>::sincos(load<D>(xb), sv, cv);
    store(sb, sv);
    store(cb, cv);
  };
  std::size_t i = 0;
  for (; i + W <= n; i += W) block(x + i, s + i, c + i);
  if (i < n) {
    double xb[W] = {};
    double sb[W] = {};
    double cb[W] = {};
    std::memcpy(xb, x + i, (n - i) * sizeof(double));
    block(xb, sb, cb);
    std::memcpy(s + i, sb, (n - i) * sizeof(double));
    std::memcpy(c + i, cb, (n - i) * sizeof(double));
  }
}

/// s = sin(2 pi v), c = cos(2 pi v) for v in [0, 1), within 2 ulp. As
/// v = k * 2^-53 is dyadic, the reduction to the nearest quarter turn is
/// exact, which leaves |x| <= pi/4 for fdlibm's __kernel_sin/__kernel_cos
/// polynomials -- plain element-wise arithmetic, about a tenth the cost of
/// the libmvec calls it replaces in the Box-Muller pass.
template <std::size_t W>
inline void sincos_2pi(typename Lanes<W>::D v, typename Lanes<W>::D& s,
                       typename Lanes<W>::D& c) {
  using D = typename Lanes<W>::D;
  using U = typename Lanes<W>::U;
  constexpr double kHalfPi = 1.57079632679489655800e+00;
  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;
  // q = 4v rounded to the nearest integer (the 1.5 * 2^52 shift leaves it
  // in the low mantissa bits); x = (4v - q) * pi/2.
  const D t = v * 4.0;
  const D shifted = t + 0x1.8p52;
  const U q = load<U>(&shifted);
  const D x = (t - (shifted - 0x1.8p52)) * kHalfPi;
  const D z = x * x;
  const D sin_x =
      x + (z * x) * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
  const D w = z * z;
  const D r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
  const D hz = z * 0.5;
  const D one_hz = 1.0 - hz;
  const D cos_x = one_hz + (((1.0 - one_hz) - hz) + z * r);
  // Quarter turn q: (sin, cos)(x + q pi/2) rotates (sin x, cos x).
  const auto odd = (q & 1) != 0;
  const D sin_base = select(odd, cos_x, sin_x);
  const D cos_base = select(odd, sin_x, cos_x);
  s = select((q & 2) != 0, -sin_base, sin_base);
  c = select(((q + 1) & 2) != 0, -cos_base, cos_base);
}

template <std::size_t W>
void box_muller_w(double* u, double* v, std::size_t n) {
  using D = typename Lanes<W>::D;
  const auto block = [](double* ub, double* vb) {
    const D r = Math<W>::sqrt(splat<W>(-2.0) *
                              Math<W>::log(splat<W>(1.0) - load<D>(ub)));
    D sv{};
    D cv{};
    sincos_2pi<W>(load<D>(vb), sv, cv);
    store(ub, r * cv);
    store(vb, r * sv);
  };
  std::size_t i = 0;
  for (; i + W <= n; i += W) block(u + i, v + i);
  if (i < n) {
    // Zero padding is a valid pair: log(1 - 0) = 0.
    double ub[W] = {};
    double vb[W] = {};
    std::memcpy(ub, u + i, (n - i) * sizeof(double));
    std::memcpy(vb, v + i, (n - i) * sizeof(double));
    block(ub, vb);
    std::memcpy(u + i, ub, (n - i) * sizeof(double));
    std::memcpy(v + i, vb, (n - i) * sizeof(double));
  }
}

// --- xoshiro256**, L lanes ---------------------------------------------------

template <class U>
inline U rotl(U x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// (x >> 11) * 2^-53 per lane, exactly as Rng::uniform converts.
template <std::size_t L>
inline typename Lanes<L>::D unit_interval(typename Lanes<L>::U x) {
  using D = typename Lanes<L>::D;
  if constexpr (L == 1) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  } else {
#if defined(__AVX512DQ__)
    return __builtin_convertvector(x >> 11, D) * 0x1.0p-53;
#else
    // No packed u64 -> double before AVX-512DQ: convert the two halves of
    // the 53-bit value through the 2^52 exponent trick. Both halves and
    // their sum are exact, so this equals the scalar conversion bit for bit.
    using U = typename Lanes<L>::U;
    const U v = x >> 11;
    const U exp52 = U{} + 0x4330000000000000ull;
    const D hi = reinterpret_cast<D>((v >> 32) | exp52) - 0x1.0p52;
    const D lo = reinterpret_cast<D>((v & 0xffffffffull) | exp52) - 0x1.0p52;
    return (hi * 0x1.0p32 + lo) * 0x1.0p-53;
#endif
  }
}

template <std::size_t L>
void uniform_lanes_l(std::uint64_t* state, double* u, double* v,
                     std::size_t pairs) {
  using U = typename Lanes<L>::U;
  using D = typename Lanes<L>::D;
  U s0 = load<U>(state);
  U s1 = load<U>(state + L);
  U s2 = load<U>(state + 2 * L);
  U s3 = load<U>(state + 3 * L);
  const auto next = [&]() -> D {
    const U result = rotl(s1 * 5, 7) * 9;
    const U t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return unit_interval<L>(result);
  };
  for (std::size_t p = 0; p < pairs; ++p) {
    store(u + p * L, next());
    store(v + p * L, next());
  }
  store(state, s0);
  store(state + L, s1);
  store(state + 2 * L, s2);
  store(state + 3 * L, s3);
}

// --- the Euler-Maruyama lane kernel -----------------------------------------

/// One step of an L-lane group. Every lane runs the same floating-point
/// sequence a lone replica does (L = 1 is the lone replica): the gather
/// reads only the pre-step sin/cos snapshot, so x advances in place, and a
/// term that is off (couple / shil) is skipped in every lane, never added as
/// a zero. Term order, per node i:
///   d  = detune_i
///   d -= sin_i * (sum_k kcj cos_j) - cos_i * (sum_k kcj sin_j)  [CSR order,
///        only the entries k whose edge bit is set in the lane]
///   d -= ks * sin(order * (theta_i - psi_i))                     [SHIL]
///   x += d * dt, then x += noise_scale * z_i.
///
/// The gather has two forms, chosen per L. At L = 8 each product is added
/// only in the lanes whose edge bit is set (a masked add). Narrower groups
/// look the entry's weight vector up in a 2^L-entry table built per step,
/// w = lut[bits] (kcj or 0.0 per lane), and add w * cos_j in every lane; the
/// masked add measured slower at L = 4. Both give the same sums for finite
/// phases. A masked-off term w * cos_j is 0 * cos_j = +-0, and the
/// accumulator, which starts at +0, is never -0 under round-to-nearest
/// (+0 + -0 = +0 and x + -x = +0), so adding +-0 leaves it unchanged.
template <std::size_t L>
void euler_step_l(const LaneStep& s) {
  using D = typename Lanes<L>::D;
  using U = typename Lanes<L>::U;
  const D ks = splat<L>(s.ks);
  const bool order2 = s.shil_order == 2;
  const std::size_t n = s.n;
  const std::size_t nl = n * L;

  if (s.couple || (s.shil && order2)) {
    s.trig->sincos(s.x, s.sin, s.cos, nl);
  }
  if (s.shil && !order2) {
    const double order = static_cast<double>(s.shil_order);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        s.gsin[i * L + l] = order * (s.x[i * L + l] - s.psi[l][i]);
      }
    }
    s.trig->sincos(s.gsin, s.gsin, s.gcos, nl);
  }

  constexpr bool kMaskedAdd = L == 8;
  const D kcj = splat<L>(s.kcj);
  U lane_bit{};
  D lut[kMaskedAdd ? 1 : std::size_t{1} << L] = {};
  if constexpr (kMaskedAdd) {
    for (std::size_t l = 0; l < L; ++l) lane_bit[l] = std::uint64_t{1} << l;
  } else if (s.couple) {
    for (unsigned b = 0; b < (1u << L); ++b) lut[b] = weights_of<L>(b, s.kcj);
  }

  const D dt = splat<L>(s.dt);
  const D noise_scale = splat<L>(s.noise_scale);
  const D two = splat<L>(2.0);
  const bool noisy = s.rng_state != nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (noisy && i % kNoiseChunk == 0) {
      // The next chunk's normals, drawn just before use so they stay in L1.
      // Every chunk but the last has even length, so the pairs run on in
      // stream order and a step draws ceil(n/2) pairs in all.
      const std::size_t nodes = n - i < kNoiseChunk ? n - i : kNoiseChunk;
      const std::size_t pairs = (nodes + 1) / 2;
      uniform_lanes_l<L>(s.rng_state, s.zc, s.zs, pairs);
      s.trig->box_muller(s.zc, s.zs, pairs * L);
    }
    const std::size_t at = i * L;
    D d = load<D>(s.detune + at);
    if (s.couple) {
      // sum_j w_ij sin(theta_i - theta_j)
      //   = sin_i * sum_j w_ij cos_j - cos_i * sum_j w_ij sin_j,
      // one L-wide load of cos_j and of sin_j and one edge-bit byte per entry.
      D acc_cos = splat<L>(0.0);
      D acc_sin = splat<L>(0.0);
      const std::size_t end = s.csr_offsets[i + 1];
      for (std::size_t k = s.csr_offsets[i]; k != end; ++k) {
        const std::size_t j = s.csr_neighbor[k];
        const D cj = load<D>(s.cos + j * L);
        const D sj = load<D>(s.sin + j * L);
        if constexpr (kMaskedAdd) {
          const auto on = ((U{} + s.edge_bits[k]) & lane_bit) != 0;
          acc_cos = select(on, acc_cos + kcj * cj, acc_cos);
          acc_sin = select(on, acc_sin + kcj * sj, acc_sin);
        } else {
          const D w = lut[s.edge_bits[k]];
          acc_cos += w * cj;
          acc_sin += w * sj;
        }
      }
      d = d - (load<D>(s.sin + at) * acc_cos - load<D>(s.cos + at) * acc_sin);
    }
    if (s.shil) {
      D term{};
      if (order2) {
        // sin(2(theta - psi)) from the snapshot through the double-angle
        // identities; sin/cos(2 psi) are cached per replica.
        const D sn = load<D>(s.sin + at);
        const D cs = load<D>(s.cos + at);
        const D s2 = two * sn * cs;
        const D c2 = cs * cs - sn * sn;
        term = s2 * load<D>(s.shil_cos + at) - c2 * load<D>(s.shil_sin + at);
      } else {
        term = load<D>(s.gsin + at);
      }
      d = d - ks * term;
    }
    D x = load<D>(s.x + at);
    x += d * dt;
    if (noisy) {
      const double* z =
          ((i & 1) != 0 ? s.zs : s.zc) + ((i % kNoiseChunk) >> 1) * L;
      x += noise_scale * load<D>(z);
    }
    store(s.x + at, x);
  }
}

template <std::size_t W>
constexpr SimdKernels kernels_of() {
  return {W, &sincos_w<W>, &box_muller_w<W>, &uniform_lanes_l<W>,
          &euler_step_l<W>};
}

}  // namespace
}  // namespace msropm::phase::detail
