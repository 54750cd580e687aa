// Fixture: triggers msropm-lint rule `hot-path-alloc` and nothing else.
// Staged at src/phase/ — euler_step_l is the SIMD lane kernel template, a
// configured hot function with internal linkage (an anonymous namespace), so
// the rule must match it by its bare name.
#include <cstddef>
#include <vector>

namespace msropm::phase::detail {
namespace {

template <std::size_t L>
void euler_step_l(double* x, std::size_t n) {
  std::vector<double> acc(n * L);  // BAD: per-step allocation in the kernel
  for (std::size_t i = 0; i < n * L; ++i) x[i] += acc[i];
}

}  // namespace
}  // namespace msropm::phase::detail
