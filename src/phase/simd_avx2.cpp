// Width-4 kernel table: AVX2 lane groups of 4 replicas and libmvec's 4-wide
// sin/cos/log. Built with -mavx2 (CMakeLists.txt) and only entered after
// trig.cpp's runtime CPU check.
#include "simd_kernels.hpp"

#if defined(MSROPM_PHASE_SIMD) && defined(__AVX2__)
namespace msropm::phase::detail {

const SimdKernels& simd_avx2() {
  static constexpr SimdKernels kKernels = kernels_of<4>();
  return kKernels;
}

}  // namespace msropm::phase::detail
#endif
