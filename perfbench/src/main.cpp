// perfbench: run one workload of the repository benchmark and print its
// metrics (see ../README.md for the workloads and the metric definitions).
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corpus main|heldout] [--trace-out FILE]
//
// One client submits the corpus' requests one after another (a closed loop:
// the next request goes out when the previous one returned), pass after
// pass, for about S seconds. Every answer is checked against its known
// value. --trace 0 measures with observability off and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced passes (the
// obs registry and span tracer on, plus the benchmark's own spans around
// every library call), reports the per-layer metrics of the traced passes,
// and writes their Chrome trace to --trace-out.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: value}}
// Exit status: 0 after a run (even one with failed answers), 2 on bad usage.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "msropm/obs/obs.hpp"
#include "obs_delta.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Host noise only ever adds time, and on a shared host it comes in spells of
// seconds. So the loop is cut into kWindows equal time windows; a window's
// pass time is the sum of its per-request median latencies, and wall_s is the
// quietest window's. A run too short to give every request a sample in
// kMinWindows windows (table1 makes one pass) reports whole-run medians.
constexpr std::size_t kWindows = 10;
constexpr std::size_t kMinWindows = 3;

// A process on a shared host tends to stay on one vCPU for a whole run, and
// a vCPU whose physical core a busy neighbour shares runs the same pass up
// to half again slower. So each window of an untraced run pins the client
// (and the threads it starts) to the next CPUs in turn, and the quietest
// window is the one on the quietest CPUs.
//
// Set-up follows the same rule. It is repeated before the loop until both
// floors are met, then once after every complete pass while that costs under
// kSetupShare of the loop's time; setup_s is the lowest median among the
// groups (before the loop, then each window) of at least kMinGroup reps.
constexpr std::size_t kMinSetups = 15;
constexpr double kMinSetupSeconds = 0.5;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMinGroup = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  Corpus corpus = Corpus::kMain;
  std::string trace_out;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the process that
/// exec'ed us (e.g. the Python launcher).
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The CPUs this process may run on (empty when the host does not say).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pin the calling thread, and the threads it starts from now on, to
/// `count` of `cpus` starting at index `first` (wrapping around). A host
/// that refuses leaves the thread where it was.
void pin(const std::vector<int>& cpus, std::size_t first, std::size_t count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t k = 0; k < count; ++k) CPU_SET(cpus[(first + k) % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--corpus") {
      if (value != "main" && value != "heldout") return false;
      args.corpus = value == "main" ? Corpus::kMain : Corpus::kHeldout;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: --workload must be one of:");
    for (const auto& n : names) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return false;
  }
  return true;
}

/// What a complete pass did: the figures that must repeat exactly in every
/// pass of a deterministic workload, traced or not. decided_frac and
/// mean_accuracy come from complete passes only, so a run's partial last
/// pass cannot change the mix of requests they average over.
struct PassWork {
  Sums work;
  std::size_t attempted = 0;
  std::size_t decided = 0;
  std::size_t accuracy_count = 0;
  double accuracy_sum = 0.0;

  bool operator==(const PassWork&) const = default;
};

std::string describe(const PassWork& w) {
  std::string s;
  char buf[96];
  for (const auto& [key, value] : w.work) {
    std::snprintf(buf, sizeof buf, " %s=%.17g", key.c_str(), value);
    s += buf;
  }
  std::snprintf(buf, sizeof buf, " decided=%zu accuracy_sum=%.17g", w.decided,
                w.accuracy_sum);
  return s + buf;
}

int run(const Args& args) {
  // --- set-up: build the inputs and library objects, several times ---------
  // setups[0]: before the loop; setups[1 + w]: during window w.
  std::vector<std::vector<double>> setups(1 + kWindows);
  double loop_setup_s = 0.0;  // set-up time spent inside the loop
  const auto set_up = [&](std::size_t group) {
    const auto t0 = Clock::now();
    auto built = make_workload(args.workload, args.seed, args.corpus);
    const double s = seconds_since(t0);
    setups[group].push_back(s);
    if (group != 0) loop_setup_s += s;
    return built;
  };
  std::unique_ptr<Workload> workload;
  const auto setup_start = Clock::now();
  while (setups[0].size() < kMinSetups || (seconds_since(setup_start) < kMinSetupSeconds &&
                                            setups[0].size() < kMaxSetups)) {
    workload.reset();  // tear-down is not set-up
    workload = set_up(0);
  }
  const std::size_t n = workload->size();

  std::size_t attempted = 0, failed = 0;
  double top_gap = 0.0;
  const auto tally = [&](std::size_t i, const Outcome& o) {
    if (o.failed != 0) {
      std::fprintf(stderr, "oracle: %s: %zu of %zu answers wrong\n",
                   workload->request_name(i).c_str(), o.failed, o.attempted);
    }
    attempted += o.attempted;
    failed += o.failed;
    top_gap = std::max(top_gap, o.top_accuracy_gap);
  };
  if (workload->warm_up()) {
    for (std::size_t i = 0; i < n; ++i) tally(i, workload->run(i));
  }

  // --- the closed loop ------------------------------------------------------
  std::vector<std::vector<double>> untraced(n), traced(n);
  std::vector<std::vector<std::vector<double>>> windowed(
      kWindows, std::vector<std::vector<double>>(n));
  std::vector<double> estimate(n, 0.0);
  std::vector<PassWork> passes;
  Sums traced_sums;  // summed over complete traced passes
  std::size_t traced_passes = 0;
  bool consistent = true;
  if (args.trace) msropm::obs::set_thread_lane("client");
  const auto loop_start = Clock::now();
  const auto window_now = [&] {
    const auto w = static_cast<std::size_t>(seconds_since(loop_start) / args.seconds *
                                            static_cast<double>(kWindows));
    return std::min(w, kWindows - 1);
  };
  const auto deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(args.seconds));
  const std::vector<int> cpus = allowed_cpus();
  std::size_t pinned_window = kWindows;  // none yet
  bool stop = false;
  for (std::size_t pass = 0; !stop; ++pass) {
    // Traced runs alternate untraced/traced whole passes (at least one of
    // each); untraced runs stop before a request that would overrun.
    const bool traced_pass = args.trace && pass % 2 == 1;
    if (pass >= (args.trace ? 2u : 1u) && Clock::now() >= deadline) break;
    msropm::obs::set_metrics_enabled(traced_pass);
    msropm::obs::set_tracing_enabled(traced_pass);
    PassWork work;
    Sums pass_sums;
    bool complete = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!args.trace && pass >= 1 &&
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(estimate[i])) > deadline) {
        complete = false;
        stop = true;
        break;
      }
      if (!args.trace && window_now() != pinned_window) {
        pinned_window = window_now();
        pin(cpus, pinned_window, workload->threads());
      }
      Sums before;
      if (traced_pass) before = obs_totals();
      const Outcome o = workload->run(i);
      if (traced_pass) {
        workload->add_traced(i, minus(obs_totals(), before), pass_sums);
        add_into(pass_sums, o.layers);
      }
      (traced_pass ? traced : untraced)[i].push_back(o.latency_s);
      if (!traced_pass) windowed[window_now()][i].push_back(o.latency_s);
      estimate[i] = o.latency_s;
      tally(i, o);
      add_into(work.work, o.work);
      work.attempted += o.attempted;
      work.decided += o.decided;
      work.accuracy_count += o.accuracy_count;
      work.accuracy_sum += o.accuracy_sum;
    }
    if (!complete) break;
    if (!args.trace && loop_setup_s < kSetupShare * seconds_since(loop_start)) {
      (void)set_up(1 + window_now());
    }
    if (traced_pass) {
      // obs must count the work the library's own results report.
      for (const auto& [key, obs_key] :
           {std::pair<const char*, const char*>{"sat.conflicts", "c:sat.conflicts"},
            {"phase.osc_steps", "phase.osc_steps"}}) {
        const auto it = work.work.find(key);
        const auto obs_it = pass_sums.find(obs_key);
        const double observed = obs_it == pass_sums.end() ? 0.0 : obs_it->second;
        if (it != work.work.end() && it->second != observed) {
          std::fprintf(stderr, "consistency: %s is %.17g by results, %.17g by obs\n",
                       key, it->second, observed);
          consistent = false;
        }
      }
      add_into(traced_sums, pass_sums);
      ++traced_passes;
    }
    if (!passes.empty() && !(work == passes.front())) {
      std::fprintf(stderr, "consistency: pass %zu did other work:%s\n  than pass 0:%s\n",
                   pass, describe(work).c_str(), describe(passes.front()).c_str());
      consistent = false;
    }
    passes.push_back(std::move(work));
  }
  msropm::obs::set_metrics_enabled(false);

  const auto summed_median = [&](const std::vector<std::vector<double>>& lat) {
    double sum = 0.0;
    for (const auto& samples : lat) sum += median(samples);
    return sum;
  };
  std::vector<double> window_walls;
  for (const auto& window : windowed) {
    if (std::all_of(window.begin(), window.end(),
                    [](const auto& samples) { return !samples.empty(); })) {
      window_walls.push_back(summed_median(window));
    }
  }
  const double wall_s = window_walls.size() >= kMinWindows
                            ? *std::min_element(window_walls.begin(), window_walls.end())
                            : summed_median(untraced);
  double setup_s = median(setups[0]);
  for (const auto& group : setups) {
    if (group.size() >= kMinGroup) setup_s = std::min(setup_s, median(group));
  }
  std::size_t samples = 0;
  for (const auto& s : untraced) samples += s.size();
  std::printf("workload %s: seed %llu, %zu requests per pass, %zu untraced samples, "
              "%zu complete passes (%zu traced), %zu of %zu windows complete\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), n,
              samples, passes.size(), traced_passes, window_walls.size(), kWindows);
  for (std::size_t i = 0; i < n; ++i) {
    // The highest percentile with at least ten samples above it.
    std::vector<double> s = untraced[i];
    std::sort(s.begin(), s.end());
    const std::size_t hi = s.size() > 10 ? s.size() - 11 : s.size() - 1;
    std::printf("  %-22s %5zu samples  p50 %10.4f ms  p%-5.1f %10.4f ms\n",
                workload->request_name(i).c_str(), s.size(), 1e3 * median(s),
                s.size() > 10 ? 100.0 * static_cast<double>(hi + 1) / s.size() : 100.0,
                1e3 * s[hi]);
  }
  if (!window_walls.empty()) {
    std::printf("window pass times (ms):");
    for (const double w : window_walls) std::printf(" %.3f", 1e3 * w);
    std::printf("\n");
  }
  if (!passes.empty()) std::printf("work:%s\n", describe(passes.front()).c_str());
  std::printf("fail_frac = %.6g\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  if (args.workload == "table1") std::printf("top_accuracy_gap = %.6g\n", top_gap);

  Sums metrics;
  if (!args.trace) {
    metrics["wall_s"] = wall_s;
    metrics["setup_s"] = setup_s;
    metrics["max_rss_mb"] = max_rss_mb();
    // Every complete pass did the same work (checked above), so the first
    // one stands for all of them.
    const PassWork& pass = passes.front();
    metrics["decided_frac"] =
        static_cast<double>(pass.decided) / static_cast<double>(pass.attempted);
    metrics["mean_accuracy"] =
        pass.accuracy_count ? pass.accuracy_sum / static_cast<double>(pass.accuracy_count)
                            : 0.0;
  } else {
    Sums per_pass;
    for (const auto& [key, value] : traced_sums) {
      per_pass[key] = value / static_cast<double>(traced_passes);
    }
    msropm::obs::set_tracing_enabled(false);
    workload->probe(per_pass);
    metrics = layer_metrics(per_pass);
    double traced_wall = 0.0;
    for (const auto& s : traced) {
      for (const double x : s) traced_wall += x;
    }
    const double traced_pass_ms = 1e3 * traced_wall / static_cast<double>(traced_passes);
    metrics["obs.overhead_frac"] = summed_median(traced) / summed_median(untraced) - 1.0;
    metrics["unattributed_frac"] = 1.0 - workload->covered_ms(metrics) / traced_pass_ms;
    if (!args.trace_out.empty()) {
      if (msropm::obs::write_chrome_trace(args.trace_out)) {
        std::printf("trace: wrote %s (open in https://ui.perfetto.dev)\n",
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "trace: could not write %s\n", args.trace_out.c_str());
        consistent = false;
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 && consistent ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--corpus main|heldout] [--trace-out FILE]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 3;
  }
}
