#pragma once
// Machine-readable bench output: every bench_* binary renders its human
// table AND drops a bench_results/<name>.json next to the working directory
// so the perf trajectory across PRs is diffable/plottable instead of living
// in commit-message prose.
//
// Schema (stable, append-only):
//   {
//     "bench": "<bench name>",
//     "meta": { "git_rev": "...", "timestamp": "...", "compiler": "...",
//               "build_type": "...", "obs": "on|off", ... },
//     "rows": [ {"name": "<row>", "<metric>": <number|string>, ...}, ... ]
//   }
// Metrics are flat key/value pairs per row; numbers are emitted as-is,
// strings JSON-escaped. The "meta" object carries provenance stamped
// automatically at write() time (git rev from configure time — a "-dirty"
// suffix marks working-tree builds — plus UTC timestamp, compiler, build
// type, and whether msropm::obs was compiled in), so every committed result
// is attributable; benches can append their own pairs with meta().
// Header-only, no dependencies beyond <filesystem>.

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace msropm::util {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Start a new result row; subsequent metric() calls attach to it.
  void begin_row(const std::string& name) {
    rows_.emplace_back();
    metric("name", name);
  }

  void metric(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    rows_.back().emplace_back(key, buf);
  }
  void metric(const std::string& key, std::uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void metric(const std::string& key, std::int64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void metric(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, quoted(value));
  }
  void metric(const std::string& key, const char* value) {
    metric(key, std::string(value));
  }

  /// Append a bench-specific provenance pair to the "meta" object (e.g. the
  /// baseline a ratio gate compared against).
  void meta(const std::string& key, const std::string& value) {
    extra_meta_.emplace_back(key, quoted(value));
  }
  void meta(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    extra_meta_.emplace_back(key, buf);
  }

  /// Serialize to bench_results/<bench>.json under `dir` (default: CWD).
  /// Returns the path written, or an empty string when the filesystem said
  /// no (benches must keep running on read-only checkouts).
  std::string write(const std::string& dir = "bench_results") const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return {};
    const std::string path = dir + "/" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) return {};
    out << "{\n  \"bench\": \"" << escape(bench_name_) << "\",\n  \"meta\": {";
    bool first_meta = true;
    for (const auto& [key, json_value] : provenance_meta()) {
      out << (first_meta ? "\n" : ",\n") << "    \"" << escape(key)
          << "\": " << json_value;
      first_meta = false;
    }
    for (const auto& [key, json_value] : extra_meta_) {
      out << (first_meta ? "\n" : ",\n") << "    \"" << escape(key)
          << "\": " << json_value;
      first_meta = false;
    }
    out << "\n  },\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    {";
      for (std::size_t m = 0; m < rows_[r].size(); ++m) {
        if (m > 0) out << ", ";
        out << '"' << escape(rows_[r][m].first) << "\": " << rows_[r][m].second;
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    return out ? path : std::string{};
  }

 private:
  /// Automatic provenance pairs (values pre-serialized as JSON).
  static std::vector<std::pair<std::string, std::string>> provenance_meta() {
#if defined(MSROPM_GIT_REV)
    const std::string git_rev = MSROPM_GIT_REV;
#else
    const std::string git_rev = "unknown";
#endif
#if defined(MSROPM_BUILD_TYPE)
    const std::string build_type = MSROPM_BUILD_TYPE;
#else
    const std::string build_type = "unknown";
#endif
#if defined(__clang__)
    const std::string compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#if defined(MSROPM_OBS_DISABLED)
    const std::string obs = "off";
#else
    const std::string obs = "on";
#endif
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm_utc{}; gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    }
    return {{"git_rev", quoted(git_rev)},
            {"timestamp", quoted(stamp)},
            {"compiler", quoted(compiler)},
            {"build_type", quoted(build_type)},
            {"obs", quoted(obs)}};
  }

  /// `s` escaped, in double quotes. Built by += because GCC 12 warns
  /// (-Wrestrict, -Wstringop-overread) on an inlined operator+ chain.
  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    out += escape(s);
    out += '"';
    return out;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += "?";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  // Pre-serialized (key, json-value) pairs per row / for the meta object.
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  std::vector<std::pair<std::string, std::string>> extra_meta_;
};

}  // namespace msropm::util
