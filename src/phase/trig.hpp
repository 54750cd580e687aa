// Internal (non-installed) helpers for the phase module: bulk sin/cos over a
// contiguous angle array and bulk standard-normal draws, dispatching to
// glibc's libmvec SIMD kernels when the build and host support them.
//
// Numerics contract: libmvec documents <= 4 ulp error versus the correctly
// rounded result for its vector sin, cos and log, so vector and scalar paths
// are NOT bit-identical to each other. That is fine for the engine's
// determinism guarantees, which are per-machine: the dispatch decision is
// fixed for the lifetime of the process, and every caller (PhaseBatch, and
// PhaseNetwork through its batch-of-one facade) funnels through these
// helpers, so batch-of-R stays bit-identical to R serial runs on any given
// host.
#pragma once

#include <cstddef>

#include "msropm/util/rng.hpp"

namespace msropm::phase::detail {

/// s[i] = sin(x[i]), c[i] = cos(x[i]) for i in [0, n).
void sincos_array(const double* x, double* s, double* c, std::size_t n);

/// Fill z[0, n) with standard normals from rng by Box-Muller. Draws
/// ceil(n/2) uniform pairs (u1, u2) serially, u1 = 1 - uniform() in (0, 1]
/// so log never sees 0; pair k yields z[2k] = r cos(a), z[2k+1] = r sin(a)
/// with r = sqrt(-2 log u1), a = 2 pi u2 (the sine of an odd n's last pair
/// is dropped). The draw count depends only on n.
void normal_array(util::Rng& rng, double* z, std::size_t n);

}  // namespace msropm::phase::detail
