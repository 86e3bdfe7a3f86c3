// Shared pieces of sbg_perfbench: the result sink, the answer
// tally, the per-run context and the phase entry points.
//
// One run = set-up (repeated, see main.cpp) followed by three measured
// phases that every workload runs, on its own graphs and in its own
// proportions:
//   matrix   Table I passes through sched prepare_job -> execute_job ->
//            verify_job, plus budgeted out-of-core MM (sweep.cpp);
//   traffic  closed-loop HTTP clients against an in-process serve::Server
//            (traffic.cpp);
//   direct   traced runs only: the same served jobs and update batches
//            replayed in-process, to split serving cost from solving cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "sched/sched.hpp"

namespace perfbench {

using NamedGraph = std::pair<std::string, std::shared_ptr<const sbg::CsrGraph>>;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts checked operations and failed ones. Thread-safe; the first few
/// failures are printed to stderr with what was checked.
class Tally {
 public:
  /// Records one attempted operation; returns `ok`.
  bool check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Quantile q in [0, 1], interpolated between closest ranks (0 for an
/// empty vector).
double quantile(std::vector<double> v, double q);

/// (graph, problem, variant) -> result hash, for the schedule-deterministic
/// jobs of the first matrix pass: the reference served answers must match.
using HashRefs = std::map<std::string, std::uint64_t>;
std::string job_key(const std::string& graph, sbg::sched::Problem p,
                    const std::string& variant);

// ---------------------------------------------------------------- matrix --

struct MatrixConfig {
  std::vector<NamedGraph> graphs;  ///< Table I graphs, in pass order
  NamedGraph ooc_graph;            ///< graph of the budgeted ooc MM runs
  std::uint64_t ooc_budget = 0;    ///< bytes: in-core working set / 6
  std::uint64_t seed = 1;
  int threads = 1;                 ///< OpenMP threads for every job
  int passes = 1;
  std::string spill_dir;
  bool trace = false;              ///< alternate untraced / traced passes
  bool corrupt_reference = false;  ///< self-test: flip every reference hash
};

/// Runs the passes; fills `refs` from the first pass, end-to-end metrics
/// into `e2e` and per-layer metrics into `layer`. Returns the
/// per-(graph, problem, variant) median execute seconds.
std::map<std::string, double> run_matrix(const MatrixConfig& cfg, Tally& tally,
                                         HashRefs& refs, MetricMap& e2e,
                                         MetricMap& layer);

/// Traced runs: standalone decompose_* calls on every matrix graph.
void run_core_probe(const std::vector<NamedGraph>& graphs, std::uint64_t seed,
                    MetricMap& layer);

/// In-core ooc working set of `g` (the plan of an unbudgeted run).
std::uint64_t ooc_working_set(const sbg::CsrGraph& g, std::uint64_t seed);

// --------------------------------------------------------------- traffic --

struct ServeGraph {
  std::string name;
  std::string path;  ///< text edge list the server ingests
  std::shared_ptr<const sbg::CsrGraph> graph;  ///< the bench's own parse
};

struct TrafficConfig {
  std::vector<ServeGraph> graphs;
  int requests = 0;
  std::uint64_t seed = 1;
  double dataset_scale = 1.0 / 32.0;
};

class Traffic {
 public:
  explicit Traffic(TrafficConfig cfg);
  ~Traffic();
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  /// Set-up: start the server, register every graph by path (the server
  /// ingests it), then warm one job per (graph, problem, variant) and one
  /// update batch per graph, which creates the dyn sessions and tune
  /// entries. Throws on a failure that leaves nothing to measure.
  void start(Tally& tally);

  /// The measured closed loop: `requests` requests over three client
  /// connections. Served answers are checked against `refs`.
  void run(const HashRefs& refs, Tally& tally, MetricMap& e2e,
           MetricMap& layer);

  /// Traced runs: replay the served jobs and update batches in-process.
  /// `direct_seconds` is run_matrix's per-job median table.
  void replay_direct(const std::map<std::string, double>& direct_seconds,
                     Tally& tally, MetricMap& layer);

  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
