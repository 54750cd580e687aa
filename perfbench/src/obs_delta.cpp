#include "obs_delta.hpp"

#include <algorithm>
#include <vector>

#include "msropm/obs/obs.hpp"

namespace perfbench {

Sums obs_totals() {
  const msropm::obs::MetricsSnapshot snap = msropm::obs::snapshot_metrics();
  Sums out;
  for (const auto& [name, value] : snap.counters) {
    out["c:" + name] = static_cast<double>(value);
  }
  for (const auto& t : snap.timers) {
    out["t:" + t.name] = t.stats.sum();
    out["n:" + t.name] = static_cast<double>(t.stats.count());
  }
  for (const auto& h : snap.histograms) {
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) {
        out["h:" + h.name + ":" + std::to_string(b)] =
            static_cast<double>(h.buckets[b]);
      }
    }
  }
  return out;
}

Sums minus(const Sums& after, const Sums& before) {
  Sums out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    const double d = value - (it == before.end() ? 0.0 : it->second);
    if (d != 0.0) out[key] = d;
  }
  return out;
}

double histogram_p50(const Sums& sums, const std::string& name) {
  // Same interpolation as obs::HistogramSnapshot::percentile, on counts that
  // may be per-pass averages (fractional).
  using H = msropm::obs::HistogramSnapshot;
  std::vector<double> buckets(msropm::obs::kHistogramBuckets, 0.0);
  double count = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const auto it = sums.find("h:" + name + ":" + std::to_string(b));
    if (it == sums.end()) continue;
    buckets[b] = it->second;
    count += it->second;
  }
  if (count <= 0.0) return 0.0;
  const double rank = 0.5 * count;
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] <= 0.0) continue;
    if (seen + buckets[b] >= rank) {
      const double lo = static_cast<double>(H::bucket_lo(b));
      const double hi = static_cast<double>(H::bucket_hi(b));
      return lo + (hi - lo) * std::max(0.0, (rank - seen) / buckets[b]);
    }
    seen += buckets[b];
  }
  return static_cast<double>(H::bucket_hi(buckets.size() - 1));
}

}  // namespace perfbench
