// Fixture: triggers msropm-lint rule `hot-path-alloc` and nothing else.
// Staged at src/phase/ — detail::normal_lanes is a configured hot function
// defined inside a C++17 nested namespace, so the rule only fires if the
// whole `msropm::phase::detail` scope qualifies the name.
#include <cstddef>
#include <vector>

namespace msropm::phase::detail {

void normal_lanes(double* z, std::size_t n) {
  std::vector<double> pairs(n + 1);  // BAD: per-call allocation on a hot path
  for (std::size_t i = 0; i < n; ++i) z[i] = pairs[i];
}

}  // namespace msropm::phase::detail
