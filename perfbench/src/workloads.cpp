#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/builders.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/io.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/portfolio/sweep.hpp"
#include "msropm/sat/coloring_encoder.hpp"
#include "msropm/sat/incremental_coloring.hpp"
#include "msropm/sat/solver.hpp"
#include "msropm/solvers/dsatur.hpp"
#include "msropm/util/rng.hpp"
#include "obs_delta.hpp"

namespace perfbench {

void add_into(Sums& into, const Sums& from) {
  for (const auto& [key, value] : from) into[key] += value;
}

void Workload::add_traced(std::size_t /*i*/, const Sums& obs_delta,
                          Sums& layers) const {
  add_into(layers, obs_delta);
}

namespace {

using namespace msropm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double get(const Sums& sums, const std::string& key) {
  const auto it = sums.find(key);
  return it == sums.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Timers behind the benchmark's own spans around each library call. The
// spans are inert (one relaxed load) unless the obs gate is open, so the
// untraced passes run the calls bare.
struct BenchTimers {
  obs::MetricId run_iterations = obs::timer("bench.run_iterations");
  obs::MetricId parse = obs::timer("bench.parse");
  obs::MetricId dsatur = obs::timer("bench.dsatur");
  obs::MetricId encode = obs::timer("bench.encode");
  obs::MetricId construct = obs::timer("bench.construct");
  obs::MetricId solve = obs::timer("bench.solve");
  obs::MetricId decode = obs::timer("bench.decode");
  obs::MetricId verify = obs::timer("bench.verify");
  obs::MetricId chromatic = obs::timer("bench.chromatic_search");
  obs::MetricId sweep = obs::timer("bench.sweep");
};

const BenchTimers& timers() {
  static const BenchTimers t;
  return t;
}

template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

// ---------------------------------------------------------------------------
// Corpus generators and their recorded answers.
// ---------------------------------------------------------------------------

/// Random simple graph with exactly m edges: the conflict-heavy coloring
/// instances of bench_sat_preprocess ("randgraph_90" at n=90, m=378).
graph::Graph random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphBuilder builder(n);
  std::size_t added = 0;
  while (added < m) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(n));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    if (u == v) continue;
    if (builder.add_edge(u, v)) ++added;
  }
  return builder.build();
}

struct GnpRow {
  std::string name;
  graph::Graph graph;
  unsigned chromatic;  ///< recorded answer
};

struct CorpusSeeds {
  std::vector<std::uint64_t> randgraph;  ///< randgraph_90 generator seeds
  std::uint64_t gnp;                     ///< one stream for all G(n,p) rows
  std::vector<unsigned> gnp_chromatic;   ///< recorded chi per G(n,p) row
};

// The answers were recorded once with the exact solver and are the oracle's
// from then on. No randgraph_90 instance of either corpus has a proper
// 4-coloring: the main seeds 2..6 extend bench_sat_preprocess' 2 and 3, and
// the held-out seeds are the first five after 6 whose instance is not
// 4-colorable (10 and 11 are). Every G(n,p) row has chromatic number 6.
CorpusSeeds corpus_seeds(Corpus corpus) {
  if (corpus == Corpus::kMain) return {{2, 3, 4, 5, 6}, 1234, {6, 6, 6, 6}};
  return {{7, 8, 9, 12, 13}, 4321, {6, 6, 6, 6}};
}

/// The bench_chromatic G(n, p) rows, drawn in order from one stream.
std::vector<GnpRow> gnp_rows(const CorpusSeeds& seeds) {
  const std::pair<std::size_t, double> shapes[] = {
      {40, 0.30}, {50, 0.25}, {60, 0.22}, {70, 0.20}};
  util::Rng rng(seeds.gnp);
  std::vector<GnpRow> rows;
  for (std::size_t r = 0; r < std::size(shapes); ++r) {
    const auto [n, p] = shapes[r];
    rows.push_back({"gnp_" + std::to_string(n), graph::erdos_renyi(n, p, rng),
                    seeds.gnp_chromatic[r]});
  }
  return rows;
}

std::string kings_name(std::size_t side, unsigned k) {
  return "kings_" + std::to_string(side) + "x" + std::to_string(side) + "_K" +
         std::to_string(k);
}

// ---------------------------------------------------------------------------
// table1: the paper's Table 1 runs on the machine.
// ---------------------------------------------------------------------------

constexpr std::size_t kIterations = 40;
constexpr std::size_t kBatch = 8;

std::size_t window_steps(double duration_s, double dt) {
  // Same rounding as phase::PhaseBatch::run.
  const auto steps = static_cast<std::size_t>(std::ceil(duration_s / dt - 1e-9));
  return steps == 0 ? 1 : steps;
}

class Table1 final : public Workload {
 public:
  explicit Table1(std::uint64_t seed)
      : seed_(seed), config_(analysis::default_machine_config()) {
    const double paper_top[] = {1.00, 0.98, 0.97, 0.97};
    std::size_t r = 0;
    for (const auto& problem : analysis::paper_problems()) {
      rows_.push_back({problem.name, analysis::build_paper_graph(problem),
                       paper_top[r++]});
    }
    // A machine keeps a pointer to its graph; rows_ is a deque, so the
    // graphs stay put.
    for (const Row& row : rows_) machines_.emplace_back(row.graph, config_);
    const auto& s = config_.schedule;
    const double dt = config_.network.dt;
    const unsigned stages = config_.num_stages();
    steps_per_solve_ = window_steps(s.init_s, dt) +
                       stages * (window_steps(s.anneal_s, dt) +
                                 window_steps(s.discretize_s, dt)) +
                       (stages - 1) * window_steps(s.reinit_s, dt);
  }

  std::size_t size() const override { return rows_.size(); }
  std::string request_name(std::size_t i) const override { return rows_[i].name; }
  bool warm_up() const override { return false; }

  Outcome run(std::size_t i) override {
    const Row& row = rows_[i];
    core::RunnerOptions opts;
    opts.iterations = kIterations;
    opts.seed = seed_;
    opts.num_threads = 1;
    opts.batch_size = kBatch;
    Outcome out;
    core::RunSummary summary;
    {
      obs::Span span("bench.run_iterations", timers().run_iterations);
      const auto t0 = Clock::now();
      summary = core::run_iterations(machines_[i], opts);
      out.latency_s = seconds_since(t0);
    }

    // Oracle: every iteration ran, every accuracy re-scores to the value the
    // runner reported, and the best row is the runner's best coloring.
    out.attempted = 1;
    bool ok = summary.completed == kIterations &&
              summary.iterations.size() == kIterations;
    double best = 0.0;
    for (const auto& it : summary.iterations) {
      const double acc = graph::coloring_accuracy(row.graph, it.result.colors);
      ok = ok && acc == it.coloring_accuracy &&
           it.result.colors.size() == row.graph.num_nodes() &&
           std::all_of(it.result.colors.begin(), it.result.colors.end(),
                       [&](graph::Color c) { return c < config_.num_colors; });
      best = std::max(best, acc);
      out.accuracy_sum += acc;
      ++out.accuracy_count;
      if (!it.result.stages.empty()) {
        out.layers["msropm.stage1_cut"] += it.result.stages.front().cut_edges;
        out.layers["msropm.stage1_edges"] += it.result.stages.front().active_edges;
      }
      for (const auto& stage : it.result.stages) {
        out.layers["msropm.lock_residual_sum"] += stage.max_lock_residual;
        out.layers["msropm.lock_residual_n"] += 1.0;
      }
    }
    ok = ok && !summary.iterations.empty() && best == summary.best_accuracy &&
         graph::coloring_accuracy(row.graph, summary.best_coloring()) == best;
    out.top_accuracy_gap = std::max(0.0, (row.paper_top - 0.005) - best);
    // A row more than a hundredth below the paper's top accuracy is a
    // regression of the reproduction, not noise.
    ok = ok && best >= row.paper_top - 0.01;
    out.failed = ok ? 0 : 1;
    out.decided = ok && out.top_accuracy_gap == 0.0 ? 1 : 0;
    out.layers["msropm.exact_solutions"] += static_cast<double>(summary.exact_solutions);
    out.work["phase.osc_steps"] = static_cast<double>(
        kIterations * steps_per_solve_ * row.graph.num_nodes());
    return out;
  }

  void add_traced(std::size_t i, const Sums& obs_delta, Sums& layers) const override {
    Workload::add_traced(i, obs_delta, layers);
    layers["phase.osc_steps"] += get(obs_delta, "c:phase.replica_steps") *
                                 static_cast<double>(rows_[i].graph.num_nodes());
  }

  // Stage split: one 8-replica batch per row through the public
  // solve_batch, timestamped at every stage-boundary callback and scaled to
  // the 40 iterations of a pass.
  void probe(Sums& layers) override {
    // A callback closes the stage it names; the time from "lock" to the next
    // "reinit" (or to the return) is the readout plus the reinit window.
    const auto key_of = [](const std::string& stage) {
      if (stage == "init") return "msropm.init_ns";
      if (stage == "anneal") return "msropm.anneal_ns";
      if (stage == "lock") return "msropm.lock_ns";
      return "msropm.readout_reinit_ns";
    };
    const double scale = static_cast<double>(kIterations) / kBatch;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::vector<util::Rng> rngs;
      for (std::size_t r = 0; r < kBatch; ++r) rngs.push_back(util::Rng(seed_).split(r));
      Clock::time_point last = Clock::now();
      const auto charge = [&](const char* key) {
        const Clock::time_point now = Clock::now();
        layers[key] += scale * std::chrono::duration<double, std::nano>(now - last).count();
        last = now;
      };
      const auto results = machines_[i].solve_batch(
          rngs, [&](unsigned, const char* label, const phase::PhaseBatch&) {
            charge(key_of(label));
          });
      charge("msropm.readout_reinit_ns");
      if (results.size() != kBatch) throw std::runtime_error("probe: short batch");
    }
  }

  double covered_ms(const Sums& m) const override { return get(m, "phase.window_ms"); }

 private:
  struct Row {
    std::string name;
    graph::Graph graph;
    double paper_top;
  };
  std::uint64_t seed_;
  core::MsropmConfig config_;
  std::deque<Row> rows_;
  std::deque<core::MultiStagePottsMachine> machines_;
  std::size_t steps_per_solve_ = 0;
};

// ---------------------------------------------------------------------------
// exact_kings / exact_hard: the dimacs_solver exact path, call by call.
// ---------------------------------------------------------------------------

struct ExactEntry {
  std::string name;
  std::string dimacs;        ///< the input, parsed inside the timed path
  bool chromatic = false;    ///< chromatic_search row instead of one K query
  unsigned colors = 4;       ///< K to decide, or max_k of the search
  bool symmetry_breaking = true;
  bool colorable = true;     ///< recorded answer of a K query
  unsigned chi = 0;          ///< recorded answer of a chromatic row
};

class ExactPath final : public Workload {
 public:
  ExactPath(std::vector<ExactEntry> entries, std::uint64_t seed)
      : entries_(std::move(entries)) {
    shuffle(entries_, seed);
  }

  std::size_t size() const override { return entries_.size(); }
  std::string request_name(std::size_t i) const override { return entries_[i].name; }

  Outcome run(std::size_t i) override {
    const ExactEntry& e = entries_[i];
    return e.chromatic ? run_chromatic(e) : run_decide(e);
  }

  double covered_ms(const Sums& m) const override {
    double sum = 0.0;
    for (const char* key : {"graph.parse_ms", "graph.verify_ms", "solvers.dsatur_ms",
                            "sat.encode_ms", "sat.presimplify_ms", "sat.ingest_ms",
                            "sat.search_ms", "sat.decode_ms"}) {
      sum += get(m, key);
    }
    return sum;
  }

 private:
  static graph::Graph parse(const std::string& text) {
    obs::Span span("bench.parse", timers().parse);
    return graph::read_dimacs_string(text);
  }

  Outcome run_decide(const ExactEntry& e) {
    Outcome out;
    const auto t0 = Clock::now();
    const graph::Graph g = parse(e.dimacs);
    solvers::DsaturResult greedy;
    {
      obs::Span span("bench.dsatur", timers().dsatur);
      greedy = solvers::solve_dsatur(g);
    }
    sat::ColoringEncoding enc;
    {
      obs::Span span("bench.encode", timers().encode);
      sat::ColoringEncodeOptions options;
      options.symmetry_breaking = e.symmetry_breaking;
      enc = sat::encode_coloring(g, e.colors, options);
    }
    std::optional<sat::Solver> solver;
    {
      obs::Span span("bench.construct", timers().construct);
      solver.emplace(enc.cnf, sat::exact_coloring_solver_options());
    }
    sat::SolveResult result;
    {
      obs::Span span("bench.solve", timers().solve);
      result = solver->solve();
    }
    graph::Coloring coloring;
    std::size_t conflicts = 0;
    if (result == sat::SolveResult::kSat) {
      {
        obs::Span span("bench.decode", timers().decode);
        coloring = enc.decode(solver->model());
      }
      obs::Span span("bench.verify", timers().verify);
      conflicts = graph::count_conflicts(g, coloring);
    }
    out.latency_s = seconds_since(t0);

    out.attempted = 1;
    bool ok = graph::count_conflicts(g, greedy.colors) == 0 &&
              greedy.colors.size() == g.num_nodes();
    if (e.colorable) {
      ok = ok && result == sat::SolveResult::kSat &&
           enc.cnf.satisfied_by(solver->model()) && conflicts == 0 &&
           graph::is_proper_coloring(g, coloring, e.colors);
    } else {
      ok = ok && result == sat::SolveResult::kUnsat;
    }
    out.failed = ok ? 0 : 1;
    out.decided = ok ? 1 : 0;
    if (result == sat::SolveResult::kSat) {
      out.accuracy_sum = graph::coloring_accuracy(g, coloring);
      out.accuracy_count = 1;
    }
    const sat::SolverStats& stats = solver->stats();
    out.work["sat.conflicts"] = static_cast<double>(stats.conflicts);
    out.layers["graph.parse_bytes"] = static_cast<double>(e.dimacs.size());
    out.layers["solvers.dsatur_colors"] = greedy.colors_used;
    out.layers["sat.arena_words"] = static_cast<double>(stats.arena_peak_words);
    if (const auto& pre = solver->preprocess_stats()) {
      out.layers["sat.clauses_in"] = static_cast<double>(pre->original_clauses);
      out.layers["sat.clauses_out"] = static_cast<double>(pre->simplified_clauses);
    }
    return out;
  }

  Outcome run_chromatic(const ExactEntry& e) {
    Outcome out;
    const auto t0 = Clock::now();
    const graph::Graph g = parse(e.dimacs);
    sat::ChromaticSearchOutcome search;
    {
      obs::Span span("bench.chromatic_search", timers().chromatic);
      search = sat::chromatic_search(g, e.colors);
    }
    std::size_t conflicts = 0;
    if (search.chromatic) {
      obs::Span span("bench.verify", timers().verify);
      conflicts = graph::count_conflicts(g, search.coloring);
    }
    out.latency_s = seconds_since(t0);

    out.attempted = 1;
    const bool ok = !search.incomplete && search.chromatic == e.chi &&
                    conflicts == 0 &&
                    graph::is_proper_coloring(g, search.coloring, e.chi);
    out.failed = ok ? 0 : 1;
    out.decided = ok ? 1 : 0;
    if (search.chromatic) {
      out.accuracy_sum = graph::coloring_accuracy(g, search.coloring);
      out.accuracy_count = 1;
    }
    out.work["sat.conflicts"] = static_cast<double>(search.stats.conflicts);
    out.layers["graph.parse_bytes"] = static_cast<double>(e.dimacs.size());
    out.layers["sat.arena_words"] = static_cast<double>(search.stats.arena_peak_words);
    return out;
  }

  std::vector<ExactEntry> entries_;
};

std::vector<ExactEntry> kings_entries() {
  std::vector<ExactEntry> entries;
  for (const std::size_t side : {7, 16, 20, 24, 32, 46}) {
    entries.push_back({kings_name(side, 4),
                       graph::write_dimacs_string(graph::kings_graph_square(side)),
                       false, 4, true, true, 0});
  }
  // K=3 is UNSAT: every 2x2 block of a King's graph is a 4-clique.
  for (const std::size_t side : {7, 10, 14}) {
    entries.push_back({kings_name(side, 3),
                       graph::write_dimacs_string(graph::kings_graph_square(side)),
                       false, 3, true, false, 0});
  }
  return entries;
}

std::vector<ExactEntry> hard_entries(Corpus corpus) {
  const CorpusSeeds seeds = corpus_seeds(corpus);
  std::vector<ExactEntry> entries;
  for (const std::uint64_t s : seeds.randgraph) {
    entries.push_back({"randgraph_90_s" + std::to_string(s),
                       graph::write_dimacs_string(random_graph(90, 378, s)),
                       false, 4, false, false, 0});
  }
  for (GnpRow& row : gnp_rows(seeds)) {
    entries.push_back({row.name, graph::write_dimacs_string(row.graph), true, 10,
                       true, true, row.chromatic});
  }
  return entries;
}

// ---------------------------------------------------------------------------
// portfolio_mixed: one SweepRunner sweep over a mixed corpus per request.
// ---------------------------------------------------------------------------

constexpr std::size_t kPortfolioWorkers = 2;

class PortfolioMixed final : public Workload {
 public:
  PortfolioMixed(std::uint64_t seed, Corpus corpus) : runner_(sweep_options(seed)) {
    // A fixed instance order: the order decides which worker gets which
    // instance, so shuffling it would change the work of a sweep.
    for (const std::size_t side : {46, 32, 20, 16, 10}) {
      add(portfolio::kings_instance(side, 4), true);
    }
    for (const std::size_t side : {14, 10, 7}) {
      add(portfolio::kings_instance(side, 3), false);
    }
    const CorpusSeeds seeds = corpus_seeds(corpus);
    for (std::size_t r = 0; r < 2; ++r) {
      const std::uint64_t s = seeds.randgraph[r];
      add({"randgraph_90_s" + std::to_string(s) + "_K4", random_graph(90, 378, s), 4},
          false);
    }
    for (GnpRow& row : gnp_rows(seeds)) {
      if (row.name != "gnp_50" && row.name != "gnp_70") continue;
      add({row.name + "_K5", std::move(row.graph), 5}, row.chromatic <= 5);
    }
  }

  std::size_t size() const override { return 1; }
  std::string request_name(std::size_t) const override { return "sweep"; }
  std::size_t threads() const override { return kPortfolioWorkers; }

  Outcome run(std::size_t) override {
    Outcome out;
    portfolio::SweepResult result;
    {
      obs::Span span("bench.sweep", timers().sweep);
      const auto t0 = Clock::now();
      result = runner_.run(specs_);
      out.latency_s = seconds_since(t0);
    }
    out.attempted = specs_.size();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const auto& spec = specs_[i];
      const portfolio::PortfolioResult* r =
          i < result.instances.size() ? &result.instances[i] : nullptr;
      bool ok = r != nullptr;
      if (ok && colorable_[i]) {
        ok = r->verdict == portfolio::Verdict::kColored && r->coloring &&
             graph::is_proper_coloring(spec.graph, *r->coloring, spec.num_colors);
        if (r->coloring) {
          out.accuracy_sum += graph::coloring_accuracy(spec.graph, *r->coloring);
          ++out.accuracy_count;
        }
      } else if (ok) {
        ok = r->verdict == portfolio::Verdict::kUnsat;
      }
      out.failed += ok ? 0 : 1;
      out.decided += ok ? 1 : 0;
      if (r == nullptr) continue;
      for (const auto& o : r->outcomes) {
        if (!o.ran) continue;
        out.layers[std::string("portfolio.attempt_ns.") + portfolio::to_string(o.kind)] +=
            o.millis * 1e6;
      }
    }
    return out;
  }

  double covered_ms(const Sums& m) const override {
    double attempts = 0.0;
    for (const auto& [key, value] : m) {
      if (key.rfind("portfolio.attempt_ms.", 0) == 0) attempts += value;
    }
    return attempts / static_cast<double>(kPortfolioWorkers);
  }

 private:
  static portfolio::SweepOptions sweep_options(std::uint64_t seed) {
    portfolio::SweepOptions options;
    options.portfolio.num_workers = kPortfolioWorkers;
    // The seed feeds the randomized strategies' streams (tabucol, sa).
    options.portfolio.master_seed = seed;
    options.schedule = portfolio::Schedule::kStrategyMajor;
    return options;
  }

  void add(portfolio::InstanceSpec spec, bool colorable) {
    specs_.push_back(std::move(spec));
    colorable_.push_back(colorable);
  }

  std::vector<portfolio::InstanceSpec> specs_;
  std::vector<bool> colorable_;  ///< recorded answer per instance
  portfolio::SweepRunner runner_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1", "exact_kings", "exact_hard",
                                                 "portfolio_mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Corpus corpus) {
  if (name == "table1") return std::make_unique<Table1>(seed);
  if (name == "exact_kings") return std::make_unique<ExactPath>(kings_entries(), seed);
  if (name == "exact_hard") {
    return std::make_unique<ExactPath>(hard_entries(corpus), seed);
  }
  if (name == "portfolio_mixed") return std::make_unique<PortfolioMixed>(seed, corpus);
  throw std::invalid_argument("unknown workload: " + name);
}

Sums layer_metrics(const Sums& pass) {
  const auto ms = [&](const std::string& key) { return get(pass, key) / 1e6; };
  Sums m;
  // phase
  m["phase.window_ms"] = ms("t:phase.batch_step");
  m["phase.osc_steps"] = get(pass, "phase.osc_steps");
  m["phase.ns_per_osc_step"] =
      ratio(get(pass, "t:phase.batch_step"), get(pass, "phase.osc_steps"));
  // msropm
  m["msropm.init_ms"] = ms("msropm.init_ns");
  m["msropm.anneal_ms"] = ms("msropm.anneal_ns");
  m["msropm.lock_ms"] = ms("msropm.lock_ns");
  m["msropm.readout_reinit_ms"] = ms("msropm.readout_reinit_ns");
  m["msropm.runner_other_ms"] =
      get(pass, "t:bench.run_iterations") > 0.0
          ? ms("t:bench.run_iterations") - m["phase.window_ms"]
          : 0.0;
  m["msropm.stage1_cut_frac"] =
      ratio(get(pass, "msropm.stage1_cut"), get(pass, "msropm.stage1_edges"));
  m["msropm.lock_residual_mrad"] =
      1e3 * ratio(get(pass, "msropm.lock_residual_sum"),
                  get(pass, "msropm.lock_residual_n"));
  m["msropm.exact_solutions"] = get(pass, "msropm.exact_solutions");
  // graph + solvers
  m["graph.parse_ms"] = ms("t:bench.parse");
  m["graph.parse_mb_per_s"] =
      ratio(get(pass, "graph.parse_bytes") / 1e6, get(pass, "t:bench.parse") / 1e9);
  m["graph.verify_ms"] = ms("t:bench.verify");
  m["solvers.dsatur_ms"] = ms("t:bench.dsatur");
  m["solvers.dsatur_colors"] = get(pass, "solvers.dsatur_colors");
  // sat: the solver's own obs timers cover the solvers chromatic_search and
  // the portfolio build internally as well as the benchmark's direct ones.
  m["sat.encode_ms"] = ms("t:bench.encode");
  m["sat.presimplify_ms"] = ms("t:sat.presimplify");
  m["sat.ingest_ms"] = ms("t:sat.ingest") - m["sat.presimplify_ms"];
  m["sat.search_ms"] = ms("t:sat.solve");
  m["sat.decode_ms"] = ms("t:bench.decode");
  m["sat.conflicts"] = get(pass, "c:sat.conflicts");
  m["sat.decisions"] = get(pass, "c:sat.decisions");
  m["sat.propagations"] = get(pass, "c:sat.propagations");
  m["sat.props_per_s"] =
      ratio(get(pass, "c:sat.propagations"), get(pass, "t:sat.solve") / 1e9);
  m["sat.learnts"] = get(pass, "c:sat.learnt_clauses");
  m["sat.arena_words"] = get(pass, "sat.arena_words");
  m["sat.solve_calls"] = get(pass, "n:sat.solve");
  m["sat.clause_reduction"] =
      get(pass, "sat.clauses_in") > 0.0
          ? 1.0 - get(pass, "sat.clauses_out") / get(pass, "sat.clauses_in")
          : 0.0;
  // portfolio
  m["portfolio.attempts"] = get(pass, "c:portfolio.attempts");
  m["portfolio.wins"] = get(pass, "c:portfolio.wins");
  m["portfolio.skipped"] = get(pass, "c:portfolio.skipped");
  m["portfolio.cancelled"] = get(pass, "c:portfolio.cancelled");
  m["portfolio.win_rate"] =
      ratio(get(pass, "c:portfolio.wins"), get(pass, "c:portfolio.attempts"));
  for (const char* kind : {"dsatur", "cdcl", "cdcl-pre", "tabucol", "sa"}) {
    m[std::string("portfolio.attempt_ms.") + kind] =
        ms(std::string("portfolio.attempt_ns.") + kind);
  }
  m["portfolio.cancel_latency_us_p50"] =
      histogram_p50(pass, "portfolio.cancel_latency_us");
  return m;
}

}  // namespace perfbench
