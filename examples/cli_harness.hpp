#pragma once
// The harness shared by the command-line tools (dimacs_solver,
// portfolio_sweep):
//
//   - the observability flags --trace FILE, --metrics, --metrics-json FILE
//     and --metrics-prom FILE (the exports imply --metrics); repeating one
//     is allowed, the last value wins, with one warning per flag;
//   - fault injection: MSROPM_FAULT first, then --fault-spec, so an
//     explicit flag wins over the environment;
//   - the exit path: once the flags parsed, every exit emits the metrics
//     report, both exports and the trace, all from ONE metrics snapshot so
//     every surface agrees;
//   - the top-level catch: an escaped exception (std::bad_alloc included)
//     exits 3 with a diagnostic instead of std::terminate;
//   - the bound on a machine iteration count (kMaxIterations).
//
// Header-only: every examples/*.cpp is its own executable, so a shared
// .cpp here would become a program.

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <new>
#include <string>
#include <utility>

#include "msropm/core/runner.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/util/fault_injector.hpp"

namespace msropm::cli {

/// Largest machine iteration count either CLI accepts: core::kMaxIterations,
/// checked at the command line so a larger count is a usage error (exit 2).
inline constexpr long long kMaxIterations =
    static_cast<long long>(core::kMaxIterations);

inline bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << content;
  return static_cast<bool>(file.flush());
}

class ObsHarness {
 public:
  /// Runs on the shared snapshot right after the metrics report is printed.
  using ReportHook = std::function<void(const obs::MetricsSnapshot&)>;

  enum class Arg {
    kNotShared,  ///< not a harness flag; the CLI parses it
    kConsumed,   ///< a harness flag (and its value) was consumed
    kError,      ///< diagnostic printed; the CLI exits 2
  };

  explicit ObsHarness(ReportHook after_report = {})
      : after_report_(std::move(after_report)) {}

  /// Install MSROPM_FAULT; call before parsing. False (with a diagnostic)
  /// on a malformed spec.
  [[nodiscard]] static bool configure_fault_env() {
    if (util::fault::configure_from_env()) return true;
    std::fprintf(stderr, "error: malformed MSROPM_FAULT spec\n");
    return false;
  }

  /// Consume argv[i] when it is a harness flag, advancing i past its value.
  [[nodiscard]] Arg consume(int argc, char** argv, int& i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--metrics") == 0) {
      note_repeat(flag, seen_metrics_);
      metrics_ = true;
      return Arg::kConsumed;
    }
    std::string* path = nullptr;
    int* seen = nullptr;
    if (std::strcmp(flag, "--trace") == 0) {
      path = &trace_path_;
      seen = &seen_trace_;
    } else if (std::strcmp(flag, "--metrics-json") == 0) {
      path = &json_path_;
      seen = &seen_json_;
    } else if (std::strcmp(flag, "--metrics-prom") == 0) {
      path = &prom_path_;
      seen = &seen_prom_;
    } else if (std::strcmp(flag, "--fault-spec") != 0) {
      return Arg::kNotShared;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      return Arg::kError;
    }
    const char* value = argv[++i];
    if (path == nullptr) {  // --fault-spec
      if (util::fault::configure(value)) return Arg::kConsumed;
      std::fprintf(stderr, "error: malformed --fault-spec '%s'\n", value);
      return Arg::kError;
    }
    note_repeat(flag, *seen);
    *path = value;
    return Arg::kConsumed;
  }

  /// Enable what the flags asked for. Call after parsing and before any
  /// work, so even an input error leaves a report behind. False (with a
  /// diagnostic) when an export was requested from an MSROPM_OBS=OFF build.
  [[nodiscard]] bool start() {
    metrics_ = metrics_ || exporting();
    if (metrics_) obs::set_metrics_enabled(true);
    if (!trace_path_.empty()) {
      obs::set_tracing_enabled(true);
      obs::set_thread_lane("main");
    }
    if (exporting() && !obs::metrics_enabled()) {
      std::fprintf(stderr,
                   "--metrics-json/--metrics-prom need observability compiled "
                   "in (this binary was built with MSROPM_OBS=OFF)\n");
      return false;
    }
    return true;
  }

  /// The exit path after start(): emit every requested output and return
  /// `status`, or 2 when an output could not be written.
  [[nodiscard]] int finish(int status) const {
    if (metrics_) {
      const obs::MetricsSnapshot snap = obs::snapshot_metrics();
      std::printf("%s", obs::render_metrics_report(snap).c_str());
      if (after_report_) after_report_(snap);
      if (!export_to(json_path_, obs::export_metrics_json(snap))) status = 2;
      if (!export_to(prom_path_, obs::export_metrics_prometheus(snap))) {
        status = 2;
      }
    }
    if (!trace_path_.empty()) {
      if (obs::write_chrome_trace(trace_path_)) {
        std::printf("trace: wrote %s (open in Perfetto or chrome://tracing)\n",
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr,
                     "trace: could not write %s (I/O error, or msropm built "
                     "with MSROPM_OBS=OFF)\n",
                     trace_path_.c_str());
        status = 2;
      }
    }
    return status;
  }

 private:
  [[nodiscard]] bool exporting() const {
    return !json_path_.empty() || !prom_path_.empty();
  }

  static void note_repeat(const char* flag, int& seen) {
    if (++seen == 2) {
      std::fprintf(stderr, "warning: %s given more than once; last value wins\n",
                   flag);
    }
  }

  /// Write one export; an empty path means it was not requested.
  static bool export_to(const std::string& path, const std::string& content) {
    if (path.empty() || write_text_file(path, content)) return true;
    std::fprintf(stderr, "metrics: could not write %s\n", path.c_str());
    return false;
  }

  ReportHook after_report_;
  bool metrics_ = false;
  std::string trace_path_;
  std::string json_path_;
  std::string prom_path_;
  int seen_metrics_ = 0, seen_trace_ = 0, seen_json_ = 0, seen_prom_ = 0;
};

/// Run a CLI body. Nothing below a CLI should let an exception escape, but
/// if one does (or the process genuinely runs out of memory), a diagnostic
/// plus exit 3 -- disjoint from every verdict and usage code -- beats
/// std::terminate for scripted sweeps.
inline int guarded_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "fatal: out of memory\n");
    return 3;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "fatal: unhandled exception: %s\n", ex.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "fatal: unhandled non-standard exception\n");
    return 3;
  }
}

}  // namespace msropm::cli
