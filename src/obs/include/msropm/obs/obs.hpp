#pragma once
// msropm::obs — cross-cutting observability for the solver stack.
//
// Two facilities share one dynamic gate word:
//
//  * Metrics registry: named monotonic counters, gauges, and timers. Counters
//    accumulate into lock-free thread-local cells (relaxed atomics); timers
//    feed util::RunningStats plus a capped util::SampleSet per thread (for
//    p50/p90/p99). snapshot_metrics() merges live cells with the totals of
//    already-exited threads into one consistent view.
//
//  * Span tracer: scoped RAII spans recorded into per-lane ring buffers and
//    exported as Chrome trace-event JSON (write_chrome_trace(); the file
//    loads in Perfetto / chrome://tracing). Lanes are keyed by name, so a
//    portfolio worker slot keeps one lane across waves; threads that never
//    call set_thread_lane() get an auto lane. Rings drop the oldest events
//    when full, so tracing a long run costs bounded memory.
//
// Overhead contract (enforced by BM_ObsSpanOverhead in bench_micro_perf and
// the CHECK_OBS=1 gate in scripts/check.sh):
//
//  * Compile time: configuring with -DMSROPM_OBS=OFF defines
//    MSROPM_OBS_DISABLED and every entry point below becomes an inline no-op;
//    spans vanish from the binary entirely.
//  * Run time: both facilities are DISABLED by default. A span, counter add,
//    or instant marker in a disabled run costs one relaxed atomic load and a
//    predicted branch (single-digit ns). Enabling metrics adds two steady-
//    clock reads per span; enabling tracing adds a bounded ring append under
//    the lane's mutex (uncontended — one lane per thread).
//
// Thread safety: everything here may be called from any thread at any time,
// including concurrently with snapshot_metrics()/snapshot_trace()/
// write_chrome_trace(). Snapshots taken while writers are active are a
// monotonic point-in-time view; join writers first for exact totals.

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "msropm/util/stats.hpp"

namespace msropm::obs {

/// Index into one of the registry's three id spaces (counter/gauge/timer).
using MetricId = std::uint32_t;

/// Sentinel for "span has no timer metric attached".
inline constexpr MetricId kNoMetric = 0xFFFFFFFFu;

/// Gate bits (see gate()).
inline constexpr std::uint32_t kMetricsBit = 1u;
inline constexpr std::uint32_t kTracingBit = 2u;

/// Per-kind registry capacity; counter()/gauge()/timer() beyond this return
/// kNoMetric and the metric is silently dropped.
inline constexpr std::size_t kMaxMetricsPerKind = 256;

/// Histogram registry capacity (smaller: each histogram costs 65 buckets of
/// thread-local storage per thread).
inline constexpr std::size_t kMaxHistograms = 64;

/// Log-bucket count: bucket 0 holds the value 0, bucket b (1..64) holds
/// [2^(b-1), 2^b - 1] — i.e. bucket index == std::bit_width(value).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Events retained per lane before the ring drops the oldest.
inline constexpr std::size_t kTraceLaneCapacity = 1u << 15;

/// One merged timer in a metrics snapshot. `samples` holds up to
/// kMaxMetricsPerKind * a few thousand retained durations (ns) for
/// percentile queries; `stats` always covers every recorded duration.
struct TimerSnapshot {
  std::string name;
  util::RunningStats stats;  // durations in ns
  util::SampleSet samples;   // retained durations in ns (capped)
};

/// One merged log-bucketed histogram. Buckets are exact (cross-thread merge
/// sums per-thread cells, including threads that have exited); percentiles
/// interpolate linearly within the winning bucket, so they are accurate to
/// within one power of two.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Lowest value landing in bucket b.
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Highest value landing in bucket b (UINT64_MAX for the top bucket).
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= kHistogramBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
  /// Bucket index a value lands in (== bit_width).
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Percentile in [0, 100], linearly interpolated inside the target bucket.
  [[nodiscard]] double percentile(double p) const noexcept {
    if (count == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    const double rank = p / 100.0 * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (buckets[b] == 0) continue;
      const std::uint64_t next = seen + buckets[b];
      if (static_cast<double>(next) >= rank) {
        const double lo = static_cast<double>(bucket_lo(b));
        const double hi = static_cast<double>(bucket_hi(b));
        const double within =
            (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
        return lo + (hi - lo) * (within < 0.0 ? 0.0 : within);
      }
      seen = next;
    }
    return static_cast<double>(bucket_hi(kHistogramBuckets - 1));
  }
};

/// Point-in-time merged view of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;           // name-sorted
  std::vector<TimerSnapshot> timers;                            // name-sorted
  std::vector<HistogramSnapshot> histograms;                    // name-sorted

  /// Value of a counter by name; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Timer by name; nullptr when absent.
  [[nodiscard]] const TimerSnapshot* find_timer(std::string_view name) const noexcept;
  /// Histogram by name; nullptr when absent.
  [[nodiscard]] const HistogramSnapshot* find_histogram(std::string_view name) const noexcept;
  /// Gauge by name; 0.0 when absent.
  [[nodiscard]] double gauge_value(std::string_view name) const noexcept;
};

inline std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

inline const TimerSnapshot* MetricsSnapshot::find_timer(std::string_view name) const noexcept {
  for (const auto& t : timers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

inline const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

inline double MetricsSnapshot::gauge_value(std::string_view name) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

/// One recorded trace event, as exposed by snapshot_trace() for tests.
/// dur_ns < 0 marks an instant event ("i" phase in the Chrome export);
/// is_counter != 0 marks a counter-track sample ("C" phase) whose double
/// value is bit-cast into arg_vals[0].
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = -1;
  std::uint8_t num_args = 0;
  std::uint8_t is_counter = 0;
  const char* arg_keys[4] = {nullptr, nullptr, nullptr, nullptr};
  std::uint64_t arg_vals[4] = {0, 0, 0, 0};

  /// Counter-sample value (only meaningful when is_counter != 0).
  [[nodiscard]] double counter_value() const noexcept {
    return std::bit_cast<double>(arg_vals[0]);
  }
};

/// One lane (Chrome "thread") of the trace, in chronological record order.
struct LaneSnapshot {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;  // events overwritten by ring wrap
  std::vector<TraceEvent> events;
};

#if defined(MSROPM_OBS_DISABLED)

// ---------------------------------------------------------------------------
// Compiled-out variant: every call is an inline no-op the optimizer deletes.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t gate() noexcept { return 0; }
inline constexpr bool metrics_enabled() noexcept { return false; }
inline constexpr bool tracing_enabled() noexcept { return false; }
inline void set_metrics_enabled(bool) noexcept {}
inline void set_tracing_enabled(bool) noexcept {}

inline MetricId counter(std::string_view) noexcept { return kNoMetric; }
inline MetricId gauge(std::string_view) noexcept { return kNoMetric; }
inline MetricId timer(std::string_view) noexcept { return kNoMetric; }
inline MetricId histogram(std::string_view) noexcept { return kNoMetric; }
inline void add(MetricId, std::uint64_t) noexcept {}
inline void set_gauge(MetricId, double) noexcept {}
inline void record_time(MetricId, std::int64_t) noexcept {}
inline void observe(MetricId, std::uint64_t) noexcept {}

inline MetricsSnapshot snapshot_metrics() { return {}; }
inline std::string render_metrics_report(const MetricsSnapshot&) { return {}; }
inline std::string export_metrics_json(const MetricsSnapshot&) { return "{}\n"; }
inline std::string export_metrics_prometheus(const MetricsSnapshot&) { return {}; }

inline void set_thread_lane(std::string_view) {}
inline void trace_instant(const char*) noexcept {}
inline void trace_instant(const char*, const char*, std::uint64_t) noexcept {}
inline void trace_counter(const char*, double) noexcept {}
inline std::vector<LaneSnapshot> snapshot_trace() { return {}; }
inline bool write_chrome_trace(const std::string&) { return false; }
inline void reset() {}

class Span {
 public:
  explicit Span(const char*, MetricId = kNoMetric) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void arg(const char*, std::uint64_t) noexcept {}
};

#else  // observability compiled in

namespace detail {
// The gate word lives out-of-line so every translation unit shares it; the
// load itself stays inline (one relaxed read on the disabled fast path).
[[nodiscard]] std::uint32_t load_gate() noexcept;
[[nodiscard]] std::int64_t now_ns() noexcept;
void span_finish(const char* name, std::int64_t t0, MetricId timer_id,
                 std::uint32_t flags, std::uint8_t num_args,
                 const char* const* keys, const std::uint64_t* vals) noexcept;
}  // namespace detail

/// Current gate bits: 0 when fully disabled, else OR of kMetricsBit /
/// kTracingBit. One relaxed load — safe on any hot path.
[[nodiscard]] inline std::uint32_t gate() noexcept { return detail::load_gate(); }
[[nodiscard]] inline bool metrics_enabled() noexcept { return (gate() & kMetricsBit) != 0; }
[[nodiscard]] inline bool tracing_enabled() noexcept { return (gate() & kTracingBit) != 0; }
void set_metrics_enabled(bool on) noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Intern a metric by name; the same name always yields the same id.
/// Call once per site (e.g. a function-local static) — interning takes a lock.
[[nodiscard]] MetricId counter(std::string_view name);
[[nodiscard]] MetricId gauge(std::string_view name);
[[nodiscard]] MetricId timer(std::string_view name);
/// Intern a log-bucketed histogram (capacity kMaxHistograms).
[[nodiscard]] MetricId histogram(std::string_view name);

/// Bump a monotonic counter. No-op unless metrics are enabled.
void add(MetricId counter_id, std::uint64_t delta) noexcept;
/// Set a gauge (last write wins across threads). No-op unless enabled.
void set_gauge(MetricId gauge_id, double value) noexcept;
/// Record one duration (ns) into a timer. No-op unless metrics are enabled.
void record_time(MetricId timer_id, std::int64_t ns) noexcept;
/// Record one value into a histogram: a relaxed fetch_add on two thread-local
/// atomics (lock-free, wait-free). No-op unless metrics are enabled.
void observe(MetricId histogram_id, std::uint64_t value) noexcept;

[[nodiscard]] MetricsSnapshot snapshot_metrics();
/// Render the snapshot as a util::TextTable report (counters, gauges,
/// per-timer count/total/mean/p50/p90/p99 in ms, per-histogram percentiles
/// plus a non-empty-bucket dump).
[[nodiscard]] std::string render_metrics_report(const MetricsSnapshot& snap);
/// Serialize the snapshot as a single JSON document (counters/gauges/timers/
/// histograms). Snapshot-consistent with render_metrics_report when fed the
/// same snapshot.
[[nodiscard]] std::string export_metrics_json(const MetricsSnapshot& snap);
/// Serialize the snapshot in Prometheus text exposition format (counters,
/// gauges, timers as summaries with quantiles, histograms with cumulative
/// `le` buckets). Names are sanitized to [a-zA-Z0-9_] and prefixed msropm_.
[[nodiscard]] std::string export_metrics_prometheus(const MetricsSnapshot& snap);

/// Attach the calling thread to the lane named `name`, creating it on first
/// use. Lanes are keyed by name: a later thread passing the same name appends
/// to the same lane (how portfolio worker slots keep one lane across waves).
void set_thread_lane(std::string_view name);
/// Record an instant marker in the current thread's lane (tracing only).
void trace_instant(const char* name) noexcept;
void trace_instant(const char* name, const char* key, std::uint64_t value) noexcept;
/// Record one counter-track sample ("C" phase) in the current thread's lane.
/// The exporter prefixes the name with the lane name, so Perfetto renders one
/// counter track per lane. Tracing only; `name` must outlive the tracer.
void trace_counter(const char* name, double value) noexcept;

[[nodiscard]] std::vector<LaneSnapshot> snapshot_trace();
/// Write the whole trace as Chrome trace-event JSON. Returns false on I/O
/// failure (and always in MSROPM_OBS=OFF builds).
[[nodiscard]] bool write_chrome_trace(const std::string& path);

/// Zero every metric value and clear every lane's events. Registered metric
/// names, ids, and lane identities survive (thread-local handles stay valid).
void reset();

/// Scoped span: captures the gate at construction; on destruction records a
/// trace event into the current lane (tracing bit) and/or the elapsed ns into
/// `timer_id` (metrics bit). When the gate is 0 the whole object is inert —
/// one load and one branch. `name` and arg keys must outlive the tracer
/// (in practice, string literals).
class Span {
 public:
  explicit Span(const char* name, MetricId timer_id = kNoMetric) noexcept
      : name_(name), timer_(timer_id), flags_(gate()) {
    if (flags_ != 0) t0_ = detail::now_ns();
  }
  ~Span() {
    if (flags_ != 0) {
      detail::span_finish(name_, t0_, timer_, flags_, num_args_, arg_keys_, arg_vals_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach up to 4 integer args shown in the trace viewer. Dropped when the
  /// span is inert or full.
  void arg(const char* key, std::uint64_t value) noexcept {
    if (flags_ != 0 && num_args_ < 4) {
      arg_keys_[num_args_] = key;
      arg_vals_[num_args_] = value;
      ++num_args_;
    }
  }

 private:
  const char* name_;
  std::int64_t t0_ = 0;
  MetricId timer_;
  std::uint32_t flags_;
  std::uint8_t num_args_ = 0;
  const char* arg_keys_[4] = {nullptr, nullptr, nullptr, nullptr};
  std::uint64_t arg_vals_[4] = {0, 0, 0, 0};
};

#endif  // MSROPM_OBS_DISABLED

}  // namespace msropm::obs
