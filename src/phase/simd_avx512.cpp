// Width-8 kernel table: AVX-512F+DQ lane groups of 8 replicas and libmvec's
// 8-wide sin/cos/log. Built with -mavx512f -mavx512dq (CMakeLists.txt) and
// only entered after trig.cpp's runtime CPU check.
#include "simd_kernels.hpp"

#if defined(MSROPM_PHASE_SIMD) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)
namespace msropm::phase::detail {

const SimdKernels& simd_avx512() {
  static constexpr SimdKernels kKernels = kernels_of<8>();
  return kKernels;
}

}  // namespace msropm::phase::detail
#endif
