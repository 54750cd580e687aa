// Fixture: triggers msropm-lint rule `hot-path-alloc` and nothing else.
// Staged at src/phase/ — detail::uniform_lanes is a configured hot function
// defined inside a C++17 nested namespace, so the rule only fires if the
// whole `msropm::phase::detail` scope qualifies the name.
#include <cstddef>
#include <vector>

namespace msropm::phase::detail {

void uniform_lanes(double* u, std::size_t pairs) {
  std::vector<double> draws(pairs + 1);  // BAD: per-call allocation on a hot path
  for (std::size_t p = 0; p < pairs; ++p) u[p] = draws[p];
}

}  // namespace msropm::phase::detail
