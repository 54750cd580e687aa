#pragma once
// Read the msropm::obs registry as flat Sums so a traced request's share of
// every counter, timer and histogram is a plain difference of two reads.

#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Current totals of every registered obs counter ("c:"), timer ("t:" total
/// ns, "n:" count) and non-empty histogram bucket ("h:<name>:<bucket>").
[[nodiscard]] Sums obs_totals();

/// after - before, keeping only the keys that moved.
[[nodiscard]] Sums minus(const Sums& after, const Sums& before);

/// Median of the histogram `name` held in `sums` (0 when it is empty).
[[nodiscard]] double histogram_p50(const Sums& sums, const std::string& name);

}  // namespace perfbench
