// Internal (non-installed) SIMD layer of the phase module: the per-width
// kernel tables behind PhaseBatch's Euler-Maruyama step, bulk sin/cos and
// Box-Muller over contiguous arrays, and the lane-vectorised xoshiro256**.
//
// Widths. A table of width W runs every transcendental W elements at a time:
// glibc's libmvec AVX-512 (W = 8) or AVX2 (W = 4) sin/cos/log, or scalar
// libm (W = 1). The process-wide width is the widest the host and the build
// support, fixed once per process (simd_width()); PhaseBatch captures it at
// construction and groups its replicas into lane groups of L = W lanes plus
// single-lane replicas (see batch.hpp).
//
// Numerics contract. Every element of every array, at every lane count,
// goes through the same W-wide operations: a tail shorter than W is copied
// into a zero-padded W-element block and run through the same vector call,
// never through a scalar path. libmvec is within 4 ulp of correctly rounded,
// so widths differ from each other by a few ulps, but at one width lane l of
// a group and a lone replica perform the identical floating-point operations.
// That also needs -ffp-contract=off (set on msropm_phase in CMakeLists.txt):
// GCC's C++ front end defaults to -ffp-contract=fast, and in AVX-512 code it
// would fuse the kernel's plain vector mul + add into FMAs that a scalar
// lane does not get.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "msropm/util/rng.hpp"

// The vector widths need glibc's libmvec (CMake defines MSROPM_HAVE_LIBMVEC
// when it links it) on x86-64; otherwise only width 1 exists.
#if defined(MSROPM_HAVE_LIBMVEC) && defined(__x86_64__) && \
    defined(__GLIBC__) && defined(__GNUC__)
#define MSROPM_PHASE_SIMD 1
#endif

namespace msropm::phase::detail {

inline constexpr std::size_t kMaxLanes = 8;
/// Nodes per noise chunk: the Euler kernel draws a chunk's normals right
/// before stepping it, into zc/zs of kNoiseChunk / 2 * L doubles each.
inline constexpr std::size_t kNoiseChunk = 64;

struct SimdKernels;

/// One Euler-Maruyama step of one lane group of L replicas, as raw views.
/// Per-node arrays are node-major with the lanes innermost: element
/// (node i, lane l) lives at [i*L + l]. The coupling of CSR entry k in lane l
/// is kcj where bit l of edge_bits[k] is set, else none. The switches, the
/// SHIL gain and kcj are the same in every lane.
struct LaneStep {
  const SimdKernels* trig = nullptr;  ///< W-wide transcendentals
  std::size_t n = 0;                  ///< oscillators
  const std::uint32_t* csr_offsets = nullptr;   ///< n+1
  const std::uint32_t* csr_neighbor = nullptr;  ///< 2m
  double* x = nullptr;                ///< n*L phases, advanced in place
  const std::uint8_t* edge_bits = nullptr;  ///< 2m: bit l = lane l's P_EN mask
  const double* detune = nullptr;     ///< n*L
  const double* shil_sin = nullptr;   ///< n*L sin(order * psi)
  const double* shil_cos = nullptr;   ///< n*L cos(order * psi)
  const double* psi[kMaxLanes] = {};  ///< per lane, n each (order != 2 only)
  double* sin = nullptr;              ///< n*L scratch
  double* cos = nullptr;              ///< n*L scratch
  double* gsin = nullptr;             ///< n*L scratch (order != 2 only)
  double* gcos = nullptr;             ///< n*L scratch (order != 2 only)
  /// xoshiro256** states, word k of lane l at [k*L + l] (null = no noise),
  /// advanced by ceil(n/2) pairs per step.
  std::uint64_t* rng_state = nullptr;
  double* zc = nullptr;  ///< kNoiseChunk/2*L scratch: normals of even nodes
  double* zs = nullptr;  ///< kNoiseChunk/2*L scratch: normals of odd nodes
  double dt = 0.0;
  double noise_scale = 0.0;
  unsigned shil_order = 2;
  bool couple = false;  ///< coupling term on (G_EN)
  bool shil = false;    ///< SHIL term on (SHIL_EN and level > 0)
  double ks = 0.0;      ///< SHIL gain * level
  double kcj = 0.0;     ///< coupling gain * J
};

/// The kernels of one vector width W. Array lengths are arbitrary: tails
/// run through a zero-padded W block.
struct SimdKernels {
  std::size_t width;
  /// s[i] = sin(x[i]), c[i] = cos(x[i]) for i in [0, n).
  void (*sincos)(const double* x, double* s, double* c, std::size_t n);
  /// In place over n pairs: (u, v) in [0, 1)^2 becomes (r cos a, r sin a)
  /// with r = sqrt(-2 log(1 - u)), a = 2 pi v (v a multiple of 2^-53, as
  /// Rng::uniform draws, for the exact angle reduction).
  void (*box_muller)(double* u, double* v, std::size_t n);
  /// L = width lanes of xoshiro256**: state[k*L + l] is word k of lane l.
  /// Pair p takes lane l's draws 2p and 2p+1 into u[p*L + l] and v[p*L + l].
  void (*uniform_lanes)(std::uint64_t* state, double* u, double* v,
                        std::size_t pairs);
  /// One step of an L = width lane group.
  void (*euler_step)(const LaneStep& step);
};

/// Kernel table of width 8, 4 or 1; throws std::invalid_argument for a width
/// this build or host cannot run. The width-1 table's uniform_lanes and
/// euler_step are the single-lane kernels every width uses for replicas
/// outside a lane group.
[[nodiscard]] const SimdKernels& simd(std::size_t width);

/// The process-wide width: 8 with AVX-512F+DQ, 4 with AVX2, else 1 (and 1
/// when libmvec is absent), unless a ScopedSimdWidth is alive.
[[nodiscard]] std::size_t simd_width() noexcept;

/// Test seam: while alive, simd_width() returns `width` (8, 4 or 1, and
/// runnable here), so PhaseBatch objects constructed meanwhile run that
/// width. Not for production code; scopes must not overlap.
class ScopedSimdWidth {
 public:
  explicit ScopedSimdWidth(std::size_t width);
  ~ScopedSimdWidth();
  ScopedSimdWidth(const ScopedSimdWidth&) = delete;
  ScopedSimdWidth& operator=(const ScopedSimdWidth&) = delete;
};

/// Rng states to and from the kernels' word-major lane layout: word k of
/// rngs[l] at state[k*L + l], L = rngs.size() <= kMaxLanes.
void pack_states(std::span<const util::Rng> rngs, std::uint64_t* state);
void unpack_states(const std::uint64_t* state, std::span<util::Rng> rngs);

/// Lane-vectorised uniforms: lane l of rngs draws exactly what
/// rngs[l].uniform_array would, pair p into (u[p*L + l], v[p*L + l]) with
/// L = rngs.size() (1 or a kernel width), and rngs[l] advances by 2*pairs.
void uniform_lanes(std::span<util::Rng> rngs, double* u, double* v,
                   std::size_t pairs);

}  // namespace msropm::phase::detail
