#pragma once
// Batch sweep engine on top of the solver portfolio: take a grid of coloring
// instances (King's-graph generator parameters or DIMACS .col files), run the
// portfolio for every instance across one shared worker pool, and emit a
// per-instance winner/verdict/time/quality report. First cut of the ROADMAP
// "scenario sweep service".

#include <cstddef>
#include <string>
#include <vector>

#include "msropm/graph/graph.hpp"
#include "msropm/portfolio/portfolio.hpp"
#include "msropm/util/table.hpp"

namespace msropm::portfolio {

/// One sweep instance: a named graph plus the palette size to decide.
struct InstanceSpec {
  std::string name;
  graph::Graph graph;
  unsigned num_colors = 4;
};

/// side x side King's graph instance (the paper's grid), named
/// "kings_<side>x<side>_K<num_colors>".
[[nodiscard]] InstanceSpec kings_instance(std::size_t side, unsigned num_colors);

/// Instance read from a DIMACS .col file; name is the path. Throws on
/// unreadable or malformed input (graph::read_dimacs_file semantics).
[[nodiscard]] InstanceSpec dimacs_instance(const std::string& path,
                                           unsigned num_colors);

struct SweepOptions {
  PortfolioOptions portfolio = {};
  Schedule schedule = Schedule::kStrategyMajor;
};

struct SweepResult {
  std::vector<PortfolioResult> instances;  ///< parallel to the spec list
  double wall_ms = 0.0;                    ///< whole-sweep wall clock

  /// Number of instances with a definitive verdict (colored or UNSAT).
  [[nodiscard]] std::size_t decided() const noexcept;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(std::move(options)) {}

  /// Run the portfolio over every instance on one shared pool.
  [[nodiscard]] SweepResult run(const std::vector<InstanceSpec>& instances) const;

  /// Per-instance report: winner strategy, time-to-verdict, and quality (the
  /// paper's accuracy metric of the best coloring seen; 1.0 means proper).
  [[nodiscard]] util::TextTable report(
      const std::vector<InstanceSpec>& instances, const SweepResult& result) const;

  /// Per-strategy summary across the whole sweep: attempts, wins, mean
  /// quality of the colorings each strategy produced, and mean attempt time.
  /// This is the machine-vs-SAT comparison row set — an `msropm` slot next
  /// to the SAT-side strategies shows solution quality against time on the
  /// same instances.
  [[nodiscard]] util::TextTable strategy_summary(const SweepResult& result) const;

 private:
  SweepOptions options_;
};

}  // namespace msropm::portfolio
