#include "msropm/obs/obs.hpp"

#ifndef MSROPM_OBS_DISABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>

#include "msropm/util/table.hpp"

namespace msropm::obs {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxSamplesPerTimer = 8192;

std::atomic<std::uint32_t> g_gate{0};

/// One thread's metric storage. Counters are relaxed atomics (lock-free adds;
/// snapshot reads them live). Timers are guarded by `mu`, which a writer only
/// contends when a snapshot or thread-exit merge is in flight.
struct ThreadCells {
  std::mutex mu;
  std::array<std::atomic<std::uint64_t>, kMaxMetricsPerKind> counters{};
  std::vector<TimerSnapshot> timers;  // name left empty; index == MetricId
  // Histogram cells: 65 buckets + a sum per histogram, relaxed atomics so
  // observe() is wait-free. Snapshot reads them live; exact totals come from
  // the merge being a plain sum.
  std::array<std::atomic<std::uint64_t>, kMaxHistograms * kHistogramBuckets> hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_sums{};

  ThreadCells();
  ~ThreadCells();
};

/// One trace lane: a drop-oldest ring of events plus its Chrome tid.
struct Lane {
  std::mutex mu;
  std::string name;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> ring;  // grows to kTraceLaneCapacity, then wraps
  std::size_t head = 0;          // next overwrite index once full
  std::uint64_t dropped = 0;

  void push(const TraceEvent& ev) {
    std::lock_guard<std::mutex> lock(mu);
    if (ring.size() < kTraceLaneCapacity) {
      ring.push_back(ev);
    } else {
      ring[head] = ev;
      head = (head + 1) % kTraceLaneCapacity;
      ++dropped;
    }
  }
};

/// Process-wide registry + tracer state. A function-local singleton so any
/// thread_local that registers with it (ThreadCells, lane handles) is
/// guaranteed to be constructed after — and thus destroyed before — it.
struct Global {
  std::mutex mu;  // guards everything below

  // Metric name tables; index in the vector is the MetricId.
  std::vector<std::string> counter_names, gauge_names, timer_names, hist_names;
  std::map<std::string, MetricId, std::less<>> counter_ids, gauge_ids, timer_ids,
      hist_ids;

  // Gauges are process-global (last write wins), not per-thread.
  std::array<std::atomic<double>, kMaxMetricsPerKind> gauges{};

  std::vector<ThreadCells*> live_cells;
  std::array<std::uint64_t, kMaxMetricsPerKind> retired_counters{};
  std::vector<TimerSnapshot> retired_timers = std::vector<TimerSnapshot>(kMaxMetricsPerKind);
  std::vector<std::uint64_t> retired_hist_buckets =
      std::vector<std::uint64_t>(kMaxHistograms * kHistogramBuckets, 0);
  std::array<std::uint64_t, kMaxHistograms> retired_hist_sums{};

  std::deque<Lane> lanes;  // deque: lane addresses must stay stable
  std::map<std::string, Lane*, std::less<>> lanes_by_name;

  static Global& instance() {
    static Global g;
    return g;
  }

  MetricId intern_metric(std::string_view name, std::vector<std::string>& names,
                         std::map<std::string, MetricId, std::less<>>& ids,
                         std::size_t cap = kMaxMetricsPerKind) {
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = ids.find(name); it != ids.end()) return it->second;
    if (names.size() >= cap) return kNoMetric;
    const MetricId id = static_cast<MetricId>(names.size());
    names.emplace_back(name);
    ids.emplace(std::string(name), id);
    return id;
  }

  // Requires mu held.
  Lane* lane_by_name_locked(std::string_view name) {
    if (auto it = lanes_by_name.find(name); it != lanes_by_name.end()) return it->second;
    Lane& lane = lanes.emplace_back();
    lane.name = std::string(name);
    lane.tid = static_cast<std::uint32_t>(lanes.size() - 1);
    lane.ring.reserve(256);
    lanes_by_name.emplace(lane.name, &lane);
    return &lane;
  }
};

void merge_timer(TimerSnapshot& into, const TimerSnapshot& from) {
  into.stats.merge(from.stats);
  for (double v : from.samples.values()) {
    if (into.samples.size() >= kMaxSamplesPerTimer) break;
    into.samples.add(v);
  }
}

ThreadCells::ThreadCells() : timers(kMaxMetricsPerKind) {
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  g.live_cells.push_back(this);
}

ThreadCells::~ThreadCells() {
  // Thread exit: fold this thread's totals into the retired accumulators so
  // they survive the thread (portfolio pools are created per batch).
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  for (std::size_t i = 0; i < kMaxMetricsPerKind; ++i) {
    g.retired_counters[i] += counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < timers.size(); ++i) {
    merge_timer(g.retired_timers[i], timers[i]);
  }
  for (std::size_t i = 0; i < hist_buckets.size(); ++i) {
    g.retired_hist_buckets[i] += hist_buckets[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    g.retired_hist_sums[i] += hist_sums[i].load(std::memory_order_relaxed);
  }
  g.live_cells.erase(std::find(g.live_cells.begin(), g.live_cells.end(), this));
}

ThreadCells& cells() {
  thread_local ThreadCells tc;
  return tc;
}

Lane*& lane_slot() {
  thread_local Lane* lane = nullptr;
  return lane;
}

Lane& current_lane() {
  Lane*& slot = lane_slot();
  if (slot == nullptr) {
    Global& g = Global::instance();
    std::lock_guard<std::mutex> lock(g.mu);
    slot = g.lane_by_name_locked("thread-" + std::to_string(g.lanes.size()));
  }
  return *slot;
}

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Format a double for JSON: finite, no trailing-zero noise, never NaN/Inf
/// (which are not valid JSON).
void append_json_number(std::string& out, double v) {
  if (!(v == v) || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    out += '0';
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_event_json(std::string& out, const TraceEvent& ev, std::uint32_t tid,
                       std::string_view lane_name) {
  char buf[96];
  if (ev.is_counter != 0) {
    // Counter track: name is prefixed with the lane so Perfetto renders one
    // track per lane ("C" counters are keyed by (pid, name) only, not tid).
    out += "{\"ph\":\"C\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"";
    json_escape(out, lane_name);
    out += '/';
    json_escape(out, ev.name != nullptr ? ev.name : "?");
    out += "\",\"ts\":";
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ev.start_ns) / 1000.0);
    out += buf;
    out += ",\"args\":{\"value\":";
    append_json_number(out, ev.counter_value());
    out += "}}";
    return;
  }
  out += "{\"ph\":\"";
  out += ev.dur_ns < 0 ? 'i' : 'X';
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"name\":\"";
  json_escape(out, ev.name != nullptr ? ev.name : "?");
  out += "\",\"ts\":";
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ev.start_ns) / 1000.0);
  out += buf;
  if (ev.dur_ns < 0) {
    out += ",\"s\":\"t\"";
  } else {
    out += ",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ev.dur_ns) / 1000.0);
    out += buf;
  }
  if (ev.num_args > 0) {
    out += ",\"args\":{";
    for (std::uint8_t a = 0; a < ev.num_args; ++a) {
      if (a > 0) out += ',';
      out += '"';
      json_escape(out, ev.arg_keys[a] != nullptr ? ev.arg_keys[a] : "?");
      out += "\":";
      out += std::to_string(ev.arg_vals[a]);
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

namespace detail {

std::uint32_t load_gate() noexcept { return g_gate.load(std::memory_order_relaxed); }

std::int64_t now_ns() noexcept {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

void span_finish(const char* name, std::int64_t t0, MetricId timer_id,
                 std::uint32_t flags, std::uint8_t num_args,
                 const char* const* keys, const std::uint64_t* vals) noexcept {
  const std::int64_t t1 = now_ns();
  if ((flags & kMetricsBit) != 0 && timer_id < kMaxMetricsPerKind) {
    record_time(timer_id, t1 - t0);
  }
  if ((flags & kTracingBit) != 0) {
    TraceEvent ev;
    ev.name = name;
    ev.start_ns = t0;
    ev.dur_ns = t1 - t0;
    ev.num_args = num_args;
    for (std::uint8_t a = 0; a < num_args; ++a) {
      ev.arg_keys[a] = keys[a];
      ev.arg_vals[a] = vals[a];
    }
    current_lane().push(ev);
  }
}

}  // namespace detail

void set_metrics_enabled(bool on) noexcept {
  if (on) {
    g_gate.fetch_or(kMetricsBit, std::memory_order_relaxed);
  } else {
    g_gate.fetch_and(~kMetricsBit, std::memory_order_relaxed);
  }
}

void set_tracing_enabled(bool on) noexcept {
  if (on) {
    g_gate.fetch_or(kTracingBit, std::memory_order_relaxed);
  } else {
    g_gate.fetch_and(~kTracingBit, std::memory_order_relaxed);
  }
}

MetricId counter(std::string_view name) {
  Global& g = Global::instance();
  return g.intern_metric(name, g.counter_names, g.counter_ids);
}

MetricId gauge(std::string_view name) {
  Global& g = Global::instance();
  return g.intern_metric(name, g.gauge_names, g.gauge_ids);
}

MetricId timer(std::string_view name) {
  Global& g = Global::instance();
  return g.intern_metric(name, g.timer_names, g.timer_ids);
}

MetricId histogram(std::string_view name) {
  Global& g = Global::instance();
  return g.intern_metric(name, g.hist_names, g.hist_ids, kMaxHistograms);
}

void add(MetricId counter_id, std::uint64_t delta) noexcept {
  if (!metrics_enabled() || counter_id >= kMaxMetricsPerKind) return;
  cells().counters[counter_id].fetch_add(delta, std::memory_order_relaxed);
}

void set_gauge(MetricId gauge_id, double value) noexcept {
  if (!metrics_enabled() || gauge_id >= kMaxMetricsPerKind) return;
  Global::instance().gauges[gauge_id].store(value, std::memory_order_relaxed);
}

void record_time(MetricId timer_id, std::int64_t ns) noexcept {
  if (!metrics_enabled() || timer_id >= kMaxMetricsPerKind) return;
  ThreadCells& tc = cells();
  std::lock_guard<std::mutex> lock(tc.mu);
  TimerSnapshot& cell = tc.timers[timer_id];
  cell.stats.add(static_cast<double>(ns));
  if (cell.samples.size() < kMaxSamplesPerTimer) {
    cell.samples.add(static_cast<double>(ns));
  }
}

void observe(MetricId histogram_id, std::uint64_t value) noexcept {
  if (!metrics_enabled() || histogram_id >= kMaxHistograms) return;
  ThreadCells& tc = cells();
  const std::size_t bucket = HistogramSnapshot::bucket_of(value);
  tc.hist_buckets[histogram_id * kHistogramBuckets + bucket].fetch_add(
      1, std::memory_order_relaxed);
  tc.hist_sums[histogram_id].fetch_add(value, std::memory_order_relaxed);
}

MetricsSnapshot snapshot_metrics() {
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  MetricsSnapshot snap;

  std::array<std::uint64_t, kMaxMetricsPerKind> counter_totals = g.retired_counters;
  std::vector<TimerSnapshot> timer_totals = g.retired_timers;
  std::vector<std::uint64_t> hist_bucket_totals = g.retired_hist_buckets;
  std::array<std::uint64_t, kMaxHistograms> hist_sum_totals = g.retired_hist_sums;
  for (ThreadCells* tc : g.live_cells) {
    for (std::size_t i = 0; i < g.counter_names.size(); ++i) {
      counter_totals[i] += tc->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < g.hist_names.size(); ++h) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        hist_bucket_totals[h * kHistogramBuckets + b] +=
            tc->hist_buckets[h * kHistogramBuckets + b].load(std::memory_order_relaxed);
      }
      hist_sum_totals[h] += tc->hist_sums[h].load(std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> cell_lock(tc->mu);
    for (std::size_t i = 0; i < g.timer_names.size(); ++i) {
      merge_timer(timer_totals[i], tc->timers[i]);
    }
  }

  for (const auto& [name, id] : g.counter_ids) {
    snap.counters.emplace_back(name, counter_totals[id]);
  }
  for (const auto& [name, id] : g.gauge_ids) {
    snap.gauges.emplace_back(name, g.gauges[id].load(std::memory_order_relaxed));
  }
  for (const auto& [name, id] : g.timer_ids) {
    TimerSnapshot t = std::move(timer_totals[id]);
    t.name = name;
    snap.timers.push_back(std::move(t));
  }
  for (const auto& [name, id] : g.hist_ids) {
    HistogramSnapshot h;
    h.name = name;
    h.sum = hist_sum_totals[id];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] = hist_bucket_totals[id * kHistogramBuckets + b];
      h.count += h.buckets[b];
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::string render_metrics_report(const MetricsSnapshot& snap) {
  util::TextTable table({"metric", "type", "count", "value", "total_ms", "mean_ms",
                         "p50_ms", "p90_ms", "p99_ms"});
  const auto ms = [](double ns) { return util::format_double(ns / 1e6, 3); };
  for (const auto& t : snap.timers) {
    if (t.stats.count() == 0) continue;
    const double p50 = t.samples.empty() ? 0.0 : t.samples.percentile(50.0);
    const double p90 = t.samples.empty() ? 0.0 : t.samples.percentile(90.0);
    const double p99 = t.samples.empty() ? 0.0 : t.samples.percentile(99.0);
    table.add_row({t.name, "timer", std::to_string(t.stats.count()), "-",
                   ms(t.stats.sum()), ms(t.stats.mean()), ms(p50), ms(p90), ms(p99)});
  }
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    table.add_row({name, "counter", "-", std::to_string(value), "-", "-", "-", "-", "-"});
  }
  for (const auto& [name, value] : snap.gauges) {
    if (value == 0.0) continue;
    table.add_row({name, "gauge", "-", util::format_double(value, 0), "-", "-", "-", "-",
                   "-"});
  }
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    table.add_row({h.name, "histogram", std::to_string(h.count),
                   util::format_double(h.mean(), 2),
                   "-", "-", util::format_double(h.percentile(50.0), 2),
                   util::format_double(h.percentile(90.0), 2),
                   util::format_double(h.percentile(99.0), 2)});
  }
  std::string out = table.render();
  // Bucket dump: one line per non-empty histogram, raw-value units.
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    out += h.name;
    out += " buckets:";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      out += " [";
      out += std::to_string(HistogramSnapshot::bucket_lo(b));
      out += "..";
      if (b == kHistogramBuckets - 1) {
        out += "max";
      } else {
        out += std::to_string(HistogramSnapshot::bucket_hi(b));
      }
      out += "]=";
      out += std::to_string(h.buckets[b]);
    }
    out += '\n';
  }
  return out;
}

std::string export_metrics_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(1 << 12);
  const auto pct = [](const util::SampleSet& s, double p) {
    return s.empty() ? 0.0 : s.percentile(p);
  };
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json_escape(out, name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json_escape(out, name);
    out += "\": ";
    append_json_number(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"timers\": {";
  first = true;
  for (const auto& t : snap.timers) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json_escape(out, t.name);
    out += "\": {\"count\": ";
    out += std::to_string(t.stats.count());
    out += ", \"total_ns\": ";
    append_json_number(out, t.stats.sum());
    out += ", \"mean_ns\": ";
    append_json_number(out, t.stats.count() == 0 ? 0.0 : t.stats.mean());
    out += ", \"p50_ns\": ";
    append_json_number(out, pct(t.samples, 50.0));
    out += ", \"p90_ns\": ";
    append_json_number(out, pct(t.samples, 90.0));
    out += ", \"p99_ns\": ";
    append_json_number(out, pct(t.samples, 99.0));
    out += '}';
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json_escape(out, h.name);
    out += "\": {\"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    out += std::to_string(h.sum);
    out += ", \"mean\": ";
    append_json_number(out, h.mean());
    out += ", \"p50\": ";
    append_json_number(out, h.percentile(50.0));
    out += ", \"p90\": ";
    append_json_number(out, h.percentile(90.0));
    out += ", \"p99\": ";
    append_json_number(out, h.percentile(99.0));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += '[';
      out += std::to_string(HistogramSnapshot::bucket_lo(b));
      out += ", ";
      out += std::to_string(HistogramSnapshot::bucket_hi(b));
      out += ", ";
      out += std::to_string(h.buckets[b]);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Prometheus metric name: [a-zA-Z_][a-zA-Z0-9_]*; we sanitize and prefix.
std::string prom_name(std::string_view name) {
  std::string out = "msropm_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void append_prom_number(std::string& out, double v) {
  if (!(v == v)) {
    out += "NaN";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string export_metrics_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(1 << 12);
  const auto pct = [](const util::SampleSet& s, double p) {
    return s.empty() ? 0.0 : s.percentile(p);
  };
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " ";
    append_prom_number(out, value);
    out += '\n';
  }
  // Timers as summaries: quantiles over the retained samples, in ns.
  for (const auto& t : snap.timers) {
    const std::string n = prom_name(t.name) + "_ns";
    out += "# TYPE " + n + " summary\n";
    for (const auto& [q, p] : {std::pair{"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}}) {
      out += n + "{quantile=\"" + q + "\"} ";
      append_prom_number(out, pct(t.samples, p));
      out += '\n';
    }
    out += n + "_sum ";
    append_prom_number(out, t.stats.sum());
    out += '\n';
    out += n + "_count " + std::to_string(t.stats.count()) + "\n";
  }
  // Histograms with cumulative le buckets; bucket upper bounds are the
  // log-bucket highs, plus the mandatory +Inf.
  for (const auto& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      out += n + "_bucket{le=\"" +
             std::to_string(HistogramSnapshot::bucket_hi(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + std::to_string(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void set_thread_lane(std::string_view name) {
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  lane_slot() = g.lane_by_name_locked(name);
}

void trace_instant(const char* name) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = detail::now_ns();
  current_lane().push(ev);
}

void trace_instant(const char* name, const char* key, std::uint64_t value) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = detail::now_ns();
  ev.num_args = 1;
  ev.arg_keys[0] = key;
  ev.arg_vals[0] = value;
  current_lane().push(ev);
}

void trace_counter(const char* name, double value) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = detail::now_ns();
  ev.is_counter = 1;
  ev.num_args = 1;
  ev.arg_keys[0] = "value";
  ev.arg_vals[0] = std::bit_cast<std::uint64_t>(value);
  current_lane().push(ev);
}

std::vector<LaneSnapshot> snapshot_trace() {
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  std::vector<LaneSnapshot> out;
  out.reserve(g.lanes.size());
  for (Lane& lane : g.lanes) {
    std::lock_guard<std::mutex> lane_lock(lane.mu);
    LaneSnapshot snap;
    snap.name = lane.name;
    snap.tid = lane.tid;
    snap.dropped = lane.dropped;
    snap.events.reserve(lane.ring.size());
    // Oldest-first: once the ring has wrapped, `head` points at the oldest.
    for (std::size_t i = 0; i < lane.ring.size(); ++i) {
      snap.events.push_back(lane.ring[(lane.head + i) % lane.ring.size()]);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<LaneSnapshot> lanes = snapshot_trace();
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"msropm\"}}";
  for (const LaneSnapshot& lane : lanes) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(lane.tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape(out, lane.name);
    out += "\"}}";
  }
  for (const LaneSnapshot& lane : lanes) {
    for (const TraceEvent& ev : lane.events) {
      out += ",\n";
      append_event_json(out, ev, lane.tid, lane.name);
    }
  }
  out += "\n]}\n";

  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << out;
  return static_cast<bool>(file.flush());
}

void reset() {
  Global& g = Global::instance();
  std::lock_guard<std::mutex> lock(g.mu);
  g.retired_counters.fill(0);
  for (auto& t : g.retired_timers) t = TimerSnapshot{};
  std::fill(g.retired_hist_buckets.begin(), g.retired_hist_buckets.end(), 0);
  g.retired_hist_sums.fill(0);
  for (auto& gv : g.gauges) gv.store(0.0, std::memory_order_relaxed);
  for (ThreadCells* tc : g.live_cells) {
    std::lock_guard<std::mutex> cell_lock(tc->mu);
    for (auto& c : tc->counters) c.store(0, std::memory_order_relaxed);
    for (auto& t : tc->timers) t = TimerSnapshot{};
    for (auto& b : tc->hist_buckets) b.store(0, std::memory_order_relaxed);
    for (auto& s : tc->hist_sums) s.store(0, std::memory_order_relaxed);
  }
  for (Lane& lane : g.lanes) {
    std::lock_guard<std::mutex> lane_lock(lane.mu);
    lane.ring.clear();
    lane.head = 0;
    lane.dropped = 0;
  }
}

}  // namespace msropm::obs

#endif  // MSROPM_OBS_DISABLED
