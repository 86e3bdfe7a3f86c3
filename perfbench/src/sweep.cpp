// The matrix phase: Table I passes and budgeted out-of-core MM.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "check/check.hpp"
#include "core/bridge.hpp"
#include "core/degk.hpp"
#include "core/kcore.hpp"
#include "core/rand.hpp"
#include "obs/registry.hpp"
#include "ooc/ooc.hpp"
#include "parallel/thread_env.hpp"
#include "parallel/timer.hpp"
#include "trace.hpp"

namespace perfbench {

using sbg::Timer;
using sbg::sched::Problem;

namespace {

/// Table I columns per problem: the CPU baseline and decompositions, then
/// the gpusim baseline and decompositions, then the sequential reference.
struct ProblemVariants {
  Problem problem;
  std::array<const char*, 4> cpu;  ///< baseline, BRIDGE, RAND, DEGk
  std::array<const char*, 4> gpu;
  const char* sequential;          ///< nullptr: none
  double paper_cpu, paper_gpu;     ///< Table I best-decomposition speedups
  const char* paper_cpu_best;
  const char* paper_gpu_best;
};

constexpr std::array<ProblemVariants, 3> kVariants{{
    {Problem::kMM,
     {"gm", "bridge-gm", "rand-gm", "degk-gm"},
     {"gpu/lmax", "gpu/bridge", "gpu/rand", "gpu/degk"},
     "greedy-seq", 3.5, 2.53, "RAND", "RAND"},
    {Problem::kColor,
     {"vb", "bridge-vb", "rand-vb", "degk-vb"},
     {"gpu/eb", "gpu/bridge", "gpu/rand", "gpu/degk"},
     nullptr, 1.27, 1.0, "DEGk", "RAND"},
    {Problem::kMis,
     {"luby", "bridge", "rand", "degk2"},
     {"gpu/luby", "gpu/bridge", "gpu/rand", "gpu/degk"},
     "greedy", 3.39, 2.16, "DEGk", "DEGk"},
}};

constexpr std::array<const char*, 3> kDecompNames{"BRIDGE", "RAND", "DEGk"};

/// Overlapped budgeted runs per ooc family per pass: ooc times drift more
/// than the matrix jobs, so ooc_mm_s takes the median of more runs.
constexpr int kOverlapRuns = 2;
constexpr int kOocThreads = 1;

bool is_gpu(const std::string& variant) {
  return variant.rfind("gpu/", 0) == 0;
}

bool is_sequential(const std::string& variant) {
  return variant == "greedy-seq" || variant == "greedy";
}

const char* layer_of(Problem p, const std::string& variant) {
  if (is_gpu(variant)) return "gpusim";
  switch (p) {
    case Problem::kMM: return "matching";
    case Problem::kColor: return "coloring";
    case Problem::kMis: return "mis";
  }
  return "sched";
}

/// "gpu/lmax" -> "gpu-lmax": metric names avoid '/'.
std::string metric_variant(std::string v) {
  std::replace(v.begin(), v.end(), '/', '-');
  return v;
}

std::string metric_key(Problem p, const std::string& variant) {
  return std::string(sbg::sched::to_string(p)) + "." + metric_variant(variant);
}

/// Every job of one pass: per graph, the CPU Table I matrix, the gpusim
/// variants and the sequential references.
std::vector<sbg::sched::JobSpec> pass_jobs(const std::vector<NamedGraph>& graphs,
                                           std::uint64_t seed) {
  std::vector<sbg::sched::JobSpec> specs;
  for (const NamedGraph& ng : graphs) {
    for (sbg::sched::JobSpec& s : sbg::sched::table1_matrix({ng}, seed)) {
      specs.push_back(std::move(s));
    }
    for (const ProblemVariants& pv : kVariants) {
      std::vector<const char*> extra(pv.gpu.begin(), pv.gpu.end());
      if (pv.sequential != nullptr) extra.push_back(pv.sequential);
      for (const char* v : extra) {
        sbg::sched::JobSpec s;
        s.graph_name = ng.first;
        s.graph = ng.second;
        s.problem = pv.problem;
        s.variant = v;
        s.seed = seed;
        s.name = ng.first + "/" + sbg::sched::to_string(pv.problem) + "/" + v;
        specs.push_back(std::move(s));
      }
    }
  }
  return specs;
}

double simulated_seconds(Problem p, const sbg::sched::JobSolution& sol) {
  switch (p) {
    case Problem::kMM: return sol.mm.total_seconds;
    case Problem::kColor: return sol.color.total_seconds;
    case Problem::kMis: return sol.mis.total_seconds;
  }
  return 0.0;
}

std::uint64_t counter_value(const char* name) {
  return sbg::obs::registry().counter(name).value();
}

struct PassSample {
  double pass_s = 0, verify_s = 0, gpu_s = 0;
  std::array<double, 3> cpu_s{};            ///< by Problem: CPU Table I time
  std::map<std::string, double> job_s;      ///< job_key -> host seconds
  std::map<std::string, double> job_rounds; ///< job_key -> rounds
  std::map<std::string, double> job_sim_s;  ///< job_key -> simulated seconds
  // Budgeted ooc MM: both families, stop-and-fetch and overlapped.
  double ooc_plan_s = 0;
  /// family -> run seconds (one stop-and-fetch and kOverlapRuns overlapped
  /// runs per pass)
  std::map<std::string, std::vector<double>> ooc_stop_s, ooc_overlap_s;
  double ooc_moved_mib = 0, ooc_peak_over_budget = 0;
  double ooc_prefetch_hits = 0, ooc_evictions = 0;
};

void run_ooc_pass(const MatrixConfig& cfg, Tally& tally, PassSample& ps) {
  namespace ooc = sbg::ooc;
  // One solver thread, so an overlapped run (solver + prefetch thread) needs
  // two cores like the matrix jobs. With two solver threads the overlapped
  // runs slowed 65% in the host's slow spells, stop-and-fetch runs 10%.
  const sbg::ScopedThreads threads(kOocThreads);
  const sbg::CsrGraph& g = *cfg.ooc_graph.second;
  const ooc::CsrSource src = ooc::CsrSource::from_graph(g);
  for (const ooc::PieceFamily family :
       {ooc::PieceFamily::kRand, ooc::PieceFamily::kDegk}) {
    const char* fname = family == ooc::PieceFamily::kRand ? "rand" : "degk";
    const std::string what = cfg.ooc_graph.first + "/ooc-" + fname;
    ooc::PlanOptions po;
    po.family = family;
    po.engine = ooc::Engine::kGM;
    po.seed = cfg.seed;
    po.mem_budget = cfg.ooc_budget;
    ooc::Plan plan;
    {
      Span span("ooc.plan", "ooc");
      Timer t;
      plan = ooc::plan_ooc(src, po);
      ps.ooc_plan_s += t.seconds();
    }
    ooc::RunOptions stop;
    stop.overlap = false;
    stop.spill_dir = cfg.spill_dir;
    ooc::RunOptions overlap = stop;
    overlap.overlap = true;

    ooc::OocResult rs;
    {
      Span span("ooc.run.stop", "ooc");
      Timer t;
      rs = ooc::run_ooc(src, plan, stop);
      ps.ooc_stop_s[fname].push_back(t.seconds());
    }
    bool ok = tally.check(rs.status == ooc::RunStatus::kOk,
                          what + ": stop-and-fetch run failed: " + rs.error);
    std::uint64_t expected = rs.result_hash;
    if (cfg.corrupt_reference) expected ^= 1;
    for (int rep = 0; rep < kOverlapRuns; ++rep) {
      const std::uint64_t hits0 = counter_value("ooc.prefetch_hits");
      const std::uint64_t evict0 = counter_value("ooc.evictions");
      ooc::OocResult ro;
      {
        Span span("ooc.run.overlap", "ooc");
        Timer t;
        ro = ooc::run_ooc(src, plan, overlap);
        ps.ooc_overlap_s[fname].push_back(t.seconds());
      }
      if (rep == 0) {
        ps.ooc_prefetch_hits +=
            double(counter_value("ooc.prefetch_hits") - hits0);
        ps.ooc_evictions += double(counter_value("ooc.evictions") - evict0);
        ps.ooc_moved_mib += double(ro.actual_bytes_moved) / double(1 << 20);
      }
      ps.ooc_peak_over_budget =
          std::max(ps.ooc_peak_over_budget,
                   double(std::max(rs.peak_resident_bytes,
                                   ro.peak_resident_bytes)) /
                       double(cfg.ooc_budget));
      if (!ok || !tally.check(ro.status == ooc::RunStatus::kOk &&
                                  ro.result_hash == expected,
                              what + ": overlap run failed or its hash "
                                     "differs from stop-and-fetch: " +
                                  ro.error)) {
        continue;
      }
      Span span("check.ooc", "check");
      const sbg::check::MatchingReport rep_check =
          sbg::check::check_matching(g, ro.mate);
      tally.check(rep_check.result.ok, what + ": " + rep_check.result.violation);
    }
  }
}

PassSample run_pass(const MatrixConfig& cfg,
                    const std::vector<sbg::sched::JobSpec>& specs,
                    bool first_pass, Tally& tally, HashRefs& refs) {
  PassSample ps;
  Timer pass_timer;
  Span pass_span("pass", "bench");
  for (const sbg::sched::JobSpec& spec : specs) {
    const std::string key = job_key(spec.graph_name, spec.problem,
                                    spec.variant);
    sbg::sched::PreparedJob job;
    {
      Span span("sched.prepare_job", "sched");
      job = sbg::sched::prepare_job(spec);
    }
    sbg::sched::JobSolution sol;
    sbg::sched::JobResult res;
    {
      Span span(spec.name, layer_of(spec.problem, spec.variant));
      res = sbg::sched::execute_job(job, sol);
    }
    if (!tally.check(res.status == sbg::sched::JobStatus::kOk,
                     spec.name + ": " + res.error)) {
      continue;
    }
    {
      Span span("check.verify_job", "check");
      Timer t;
      const std::string err = sbg::sched::verify_job(job, sol);
      ps.verify_s += t.seconds();
      tally.check(err.empty(), spec.name + ": " + err);
    }
    if (sbg::sched::schedule_deterministic(spec.problem, spec.variant)) {
      if (first_pass) {
        refs[key] = res.result_hash;
      } else {
        tally.check(refs[key] == res.result_hash,
                    spec.name + ": result hash differs between passes");
      }
    }
    ps.job_s[key] = res.seconds;
    ps.job_rounds[key] = double(res.rounds);
    if (is_gpu(spec.variant)) {
      ps.gpu_s += res.seconds;
      ps.job_sim_s[key] = simulated_seconds(spec.problem, sol);
    } else if (!is_sequential(spec.variant)) {
      ps.cpu_s[std::size_t(spec.problem)] += res.seconds;
    }
  }
  run_ooc_pass(cfg, tally, ps);
  ps.pass_s = pass_timer.seconds();
  return ps;
}

/// Geometric mean of base/variant over the graphs, skipping exclusions.
double geomean_speedup(const std::vector<NamedGraph>& graphs,
                       const std::map<std::string, double>& seconds,
                       Problem p, const char* base, const char* variant,
                       bool (*excluded)(const std::string&)) {
  double log_sum = 0.0;
  int n = 0;
  for (const NamedGraph& ng : graphs) {
    if (excluded(ng.first)) continue;
    const auto b = seconds.find(job_key(ng.first, p, base));
    const auto v = seconds.find(job_key(ng.first, p, variant));
    if (b == seconds.end() || v == seconds.end() || v->second <= 0 ||
        b->second <= 0) {
      continue;
    }
    log_sum += std::log(b->second / v->second);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

bool no_exclusion(const std::string&) { return false; }
// Paper footnotes: rgg instances are left out of the MM averages, c-73 and
// lp1 out of the MIS GPU average.
bool mm_exclusion(const std::string& g) { return g.rfind("rgg", 0) == 0; }
bool mis_gpu_exclusion(const std::string& g) {
  return g == "c-73" || g == "lp1";
}

/// The six Table I cells: per problem and architecture, the best
/// decomposition's geomean speedup over the baseline.
void table1(const std::vector<NamedGraph>& graphs,
            const std::map<std::string, double>& host_s,
            const std::map<std::string, double>& sim_s, MetricMap& layer) {
  std::printf("Table I (best decomposition, geomean speedup over baseline):\n");
  for (const ProblemVariants& pv : kVariants) {
    for (const bool gpu : {false, true}) {
      const auto& vars = gpu ? pv.gpu : pv.cpu;
      bool (*excluded)(const std::string&) =
          pv.problem == Problem::kMM             ? mm_exclusion
          : pv.problem == Problem::kMis && gpu ? mis_gpu_exclusion
                                                 : no_exclusion;
      double best = 0.0;
      int best_i = 0;
      for (int d = 1; d < 4; ++d) {
        const double s = geomean_speedup(graphs, gpu ? sim_s : host_s,
                                         pv.problem, vars[0], vars[d],
                                         excluded);
        if (s > best) {
          best = s;
          best_i = d - 1;
        }
      }
      const std::string name = std::string("table1.") +
                               sbg::sched::to_string(pv.problem) +
                               (gpu ? "_gpu" : "_cpu");
      std::printf("  %-16s %-6s %6.2fx   paper: %-6s %.2fx\n", name.c_str(),
                  kDecompNames[static_cast<std::size_t>(best_i)], best,
                  gpu ? pv.paper_gpu_best : pv.paper_cpu_best,
                  gpu ? pv.paper_gpu : pv.paper_cpu);
      layer[name] = {best, "x"};
    }
  }
}

/// The ooc run samples of every pass, pooled per family.
std::map<std::string, std::vector<double>> pooled(
    const std::vector<PassSample>& samples,
    std::map<std::string, std::vector<double>> PassSample::*member) {
  std::map<std::string, std::vector<double>> out;
  for (const PassSample& s : samples) {
    for (const auto& [family, v] : s.*member) {
      out[family].insert(out[family].end(), v.begin(), v.end());
    }
  }
  return out;
}

/// Per family the median (or the first) run, summed over the families.
double ooc_sum(const std::map<std::string, std::vector<double>>& runs,
               bool use_median) {
  double sum = 0;
  for (const auto& [family, v] : runs) {
    sum += use_median ? median(v) : v.front();
  }
  return sum;
}

/// Median over passes of one field.
template <typename F>
double median_of(const std::vector<PassSample>& samples, F field) {
  std::vector<double> v;
  for (const PassSample& s : samples) v.push_back(field(s));
  return median(v);
}

std::map<std::string, double> median_map(
    const std::vector<PassSample>& samples,
    std::map<std::string, double> PassSample::*member) {
  std::map<std::string, std::vector<double>> by_key;
  for (const PassSample& s : samples) {
    for (const auto& [k, v] : s.*member) by_key[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : by_key) out[k] = median(std::move(v));
  return out;
}

}  // namespace

std::uint64_t ooc_working_set(const sbg::CsrGraph& g, std::uint64_t seed) {
  sbg::ooc::PlanOptions po;
  po.seed = seed;
  return sbg::ooc::plan_ooc(sbg::ooc::CsrSource::from_graph(g), po)
      .total_working_set;
}

std::map<std::string, double> run_matrix(const MatrixConfig& cfg, Tally& tally,
                                         HashRefs& refs, MetricMap& e2e,
                                         MetricMap& layer) {
  const sbg::ScopedThreads threads(cfg.threads);
  const std::vector<sbg::sched::JobSpec> specs = pass_jobs(cfg.graphs, cfg.seed);
  std::vector<PassSample> samples;
  std::vector<double> traced_pass_s, untraced_pass_s;
  for (int p = 0; p < cfg.passes; ++p) {
    // Traced runs alternate: even passes untraced, odd passes traced, so
    // the ratio of their medians is the tracing overhead.
    const bool traced = cfg.trace && p % 2 == 1;
    tracer().set_enabled(traced);
    samples.push_back(run_pass(cfg, specs, p == 0, tally, refs));
    tracer().set_enabled(cfg.trace);
    (traced ? traced_pass_s : untraced_pass_s).push_back(samples.back().pass_s);
    const PassSample& ps = samples.back();
    std::printf("pass %d: %.3f s (mm %.3f, color %.3f, mis %.3f, gpu %.3f, "
                "ooc %.3f s)\n",
                p + 1, ps.pass_s, ps.cpu_s[0], ps.cpu_s[1], ps.cpu_s[2],
                ps.gpu_s, ooc_sum(ps.ooc_overlap_s, false));
    std::fflush(stdout);
  }
  if (cfg.corrupt_reference) {
    for (auto& [key, hash] : refs) hash ^= 1;
  }

  // Per-job medians over passes, then summed: a stall that hits one job in
  // one pass does not move the sums.
  const auto job_s = median_map(samples, &PassSample::job_s);
  const auto job_rounds = median_map(samples, &PassSample::job_rounds);
  const auto job_sim_s = median_map(samples, &PassSample::job_sim_s);
  table1(cfg.graphs, job_s, job_sim_s, layer);
  std::map<std::string, double> exec_s, rounds, cpu_s, sim_s;
  double gpu_s = 0;
  for (const sbg::sched::JobSpec& spec : specs) {
    const std::string key = job_key(spec.graph_name, spec.problem,
                                    spec.variant);
    const std::string mk = metric_key(spec.problem, spec.variant);
    const std::string problem = sbg::sched::to_string(spec.problem);
    exec_s[mk] += job_s.count(key) ? job_s.at(key) : 0.0;
    rounds[mk] += job_rounds.count(key) ? job_rounds.at(key) : 0.0;
    if (is_gpu(spec.variant)) {
      gpu_s += job_s.count(key) ? job_s.at(key) : 0.0;
      sim_s[problem] += job_sim_s.count(key) ? job_sim_s.at(key) : 0.0;
    } else if (!is_sequential(spec.variant)) {
      cpu_s[problem] += job_s.count(key) ? job_s.at(key) : 0.0;
    }
  }

  const double pass_s = median_of(samples, [](auto& s) { return s.pass_s; });
  e2e["pass_s"] = {pass_s, "s"};
  for (const auto& [problem, v] : cpu_s) e2e[problem + "_s"] = {v, "s"};
  e2e["gpu_model_s"] = {gpu_s, "s"};
  const double stop_s = ooc_sum(pooled(samples, &PassSample::ooc_stop_s), true);
  const double overlap_s =
      ooc_sum(pooled(samples, &PassSample::ooc_overlap_s), true);
  e2e["ooc_mm_s"] = {overlap_s, "s"};

  for (const auto& [k, v] : exec_s) layer["exec_s." + k] = {v, "s"};
  for (const auto& [k, v] : rounds) {
    // The sequential references report no rounds.
    if (k != "mm.greedy-seq" && k != "mis.greedy") {
      layer["rounds." + k] = {v, "count"};
    }
  }
  for (const auto& [problem, v] : sim_s) {
    layer["gpusim.sim_s." + problem] = {v, "s"};
  }
  const double verify_s =
      median_of(samples, [](auto& s) { return s.verify_s; });
  layer["check.verify_s"] = {verify_s, "s"};
  layer["check.verify_share"] = {verify_s / pass_s, "ratio"};
  layer["ooc.plan_s"] = {
      median_of(samples, [](auto& s) { return s.ooc_plan_s; }), "s"};
  layer["ooc.run_s.stop"] = {stop_s, "s"};
  layer["ooc.run_s.overlap"] = {overlap_s, "s"};
  layer["ooc.overlap_gain"] = {stop_s / overlap_s, "x"};
  layer["ooc.moved_mb"] = {
      median_of(samples, [](auto& s) { return s.ooc_moved_mib; }), "MiB"};
  layer["ooc.peak_over_budget"] = {
      median_of(samples, [](auto& s) { return s.ooc_peak_over_budget; }),
      "ratio"};
  layer["ooc.prefetch_hits"] = {
      median_of(samples, [](auto& s) { return s.ooc_prefetch_hits; }),
      "count"};
  layer["ooc.evictions"] = {
      median_of(samples, [](auto& s) { return s.ooc_evictions; }), "count"};
  if (cfg.trace) {
    layer["obs.trace_overhead"] = {
        median(traced_pass_s) / median(untraced_pass_s), "ratio"};
  }
  return job_s;
}

void run_core_probe(const std::vector<NamedGraph>& graphs, std::uint64_t seed,
                    MetricMap& layer) {
  double bridge_s = 0, rand_s = 0, degk_s = 0, kcore_s = 0;
  double bridge_edges = 0, cross_arcs = 0;
  for (const auto& [name, gp] : graphs) {
    const sbg::CsrGraph& g = *gp;
    Timer t;
    {
      Span span("core.decompose_bridge", "core");
      bridge_edges += double(sbg::decompose_bridge(g).bridges.size());
    }
    bridge_s += t.seconds();
    t.reset();
    {
      Span span("core.decompose_rand", "core");
      cross_arcs += double(
          sbg::decompose_rand(g, sbg::rand_partition_heuristic(g), seed)
              .g_cross.num_arcs());
    }
    rand_s += t.seconds();
    t.reset();
    {
      Span span("core.decompose_degk", "core");
      (void)sbg::decompose_degk(g, 2);
    }
    degk_s += t.seconds();
    t.reset();
    {
      Span span("core.decompose_kcore", "core");
      (void)sbg::decompose_kcore(g, 2);
    }
    kcore_s += t.seconds();
  }
  layer["core.bridge_s"] = {bridge_s, "s"};
  layer["core.rand_s"] = {rand_s, "s"};
  layer["core.degk_s"] = {degk_s, "s"};
  layer["core.kcore_s"] = {kcore_s, "s"};
  layer["core.bridge_edges"] = {bridge_edges, "count"};
  layer["core.rand_cross_arcs"] = {cross_arcs, "count"};
}

}  // namespace perfbench
