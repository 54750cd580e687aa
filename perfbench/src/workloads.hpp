#pragma once
// perfbench workloads: the corpus of each named workload, the request a
// closed-loop client submits for each corpus entry, and the oracle that
// checks every answer. The benchmark generates every input itself (from the
// workload seed and the corpus' generator seeds); the library only ever sees
// the generated graphs or their DIMACS text.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Named sums: work counts, per-layer figures and obs deltas. Keys are
/// either metric-style names ("sat.conflicts") or obs deltas prefixed by
/// kind ("t:" timer total ns, "n:" timer count, "c:" counter, "h:<name>:<b>"
/// histogram bucket).
using Sums = std::map<std::string, double>;

void add_into(Sums& into, const Sums& from);

/// Which generator seeds build the random graphs: the corpus the benchmark
/// is tuned on, or the held-out one later changes confirm their claims on.
enum class Corpus { kMain, kHeldout };

/// What one request did, as the oracle saw it.
struct Outcome {
  double latency_s = 0.0;      ///< host time of the library calls only
  std::size_t attempted = 0;   ///< operations (instances) in the request
  std::size_t failed = 0;      ///< operations whose answer the oracle rejected
  std::size_t decided = 0;     ///< operations with a verified definitive answer
  double accuracy_sum = 0.0;   ///< summed accuracy of returned colorings
  std::size_t accuracy_count = 0;
  double top_accuracy_gap = 0.0;  ///< table1: paper shortfall of this row
  /// Work identity counted through the library's results, never through
  /// obs, so traced and untraced passes can be compared.
  Sums work;
  /// Per-layer figures that only the request's results carry.
  Sums layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Requests per pass over the corpus.
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::string request_name(std::size_t i) const = 0;
  /// Submit request i and wait for it; check the answer.
  [[nodiscard]] virtual Outcome run(std::size_t i) = 0;
  /// Fold the obs delta of a traced request into the pass' layer sums.
  virtual void add_traced(std::size_t i, const Sums& obs_delta,
                          Sums& layers) const;
  /// Extra traced-only measurement after the loop (per-pass layer sums).
  virtual void probe(Sums& /*layers*/) {}
  /// Layer time (ms per pass) that attributes the wall time of a pass.
  [[nodiscard]] virtual double covered_ms(const Sums& metrics) const = 0;
  /// Whether a pass is cheap enough to run once, untimed, before the clock
  /// starts.
  [[nodiscard]] virtual bool warm_up() const { return true; }
  /// Threads that compute at the same time (the CPUs a window pins).
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's inputs and library objects. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Corpus corpus);

/// Every per-layer metric from the sums of one traced pass (a layer the
/// workload does not exercise reads 0).
[[nodiscard]] Sums layer_metrics(const Sums& pass);

}  // namespace perfbench
