// sbg_perfbench: runs one named workload for one seed and prints
// every metric, checked answers and the operation tally; the last stdout
// line is the JSON result. See perfbench/NOTES.md for the workloads and
// metrics, and perfbench/run.py for the build-and-run entry point.
//
//   sbg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--scale <f>] [--corrupt-reference]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "graph/dataset.hpp"
#include "ingest/ingest.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "parallel/timer.hpp"
#include "trace.hpp"
#include "tune/tune.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sbg::Timer;

/// OpenMP threads of every matrix job. Fixed rather than nproc: on a shared
/// 4-vCPU host whose usable cores flip between about 2 and 4 within
/// seconds, chain-sweep passes at 4 threads ranged 7.8-21 s, at 2 threads
/// 10.6-12.2 s.
constexpr int kThreads = 2;
/// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 3;
/// Run length the per-workload pass and request counts are sized for.
constexpr double kReferenceSeconds = 20.0;
/// Dataset generator seed, the one every sbg bench uses. It is not taken
/// from --seed: on road-like graphs the instance alone moves GM's round
/// count 2.5x (921-2469 on road-central over seeds 1-5), which no run-level
/// bound could absorb. --seed drives everything else: job and ooc plan
/// seeds, the request mix and the update batches.
constexpr std::uint64_t kDatasetSeed = 42;

struct Workload {
  const char* name;
  std::vector<std::string> matrix;  ///< Table I graphs
  std::string ooc;                  ///< budgeted ooc MM graph
  std::vector<std::string> serve;   ///< served graphs (subset of matrix)
  int passes;                       ///< matrix passes per reference run
  int requests;                     ///< served requests per reference run
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      {"chain-sweep",
       {"road-central", "germany-osm", "lp1"},
       "road-central",
       {"germany-osm", "lp1"},
       2,
       300},
      {"skew-sweep",
       {"kron-g500-logn21", "kron-g500-logn20", "Cit-Patents", "webbase-1M",
        "web-Google", "coAuthorsCiteseer", "c-73"},
       "kron-g500-logn21",
       {"c-73", "coAuthorsCiteseer", "web-Google"},
       2,
       600},
      // The ooc graph is not a served one: on germany-osm a budgeted run
      // lasts ~0.13 s and doubled in the host's slow spells, on
      // road-central (~0.4 s) it grew by a third.
      {"serve-mixed",
       {"c-73", "coAuthorsCiteseer", "web-Google", "germany-osm"},
       "road-central",
       {"c-73", "coAuthorsCiteseer", "web-Google", "germany-osm"},
       2,
       1000},
  };
  return kWorkloads;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  std::string commit = "unknown";
  double scale = 1.0 / 32.0;
  bool corrupt_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--scale") {
      a.scale = std::stod(v);
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload || !have_seed || a.seconds <= 0 || a.scale <= 0) {
    throw std::invalid_argument(
        "usage: sbg_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

/// Drop every inherited SBG_* / OMP_* variable so the caller's shell cannot
/// change a workload, then point the caches and spill store at `dir`.
void isolate_environment(const fs::path& dir) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SBG_", 0) == 0 || kv.rfind("OMP_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("SBG_OOC_DIR", (dir / "spill").c_str(), 1);
  setenv("TMPDIR", dir.c_str(), 1);
  fs::create_directories(dir / "spill");
}

/// Per set-up repetition: a cold .sbgc cache and tune store.
void fresh_store_dirs(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  setenv("SBG_CACHE_DIR", (dir / "cache").c_str(), 1);
  setenv("SBG_TUNE_PATH", (dir / "tune.json").c_str(), 1);
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// One "u v" line per undirected edge, the text form ingest parses.
/// (graph/io.hpp's writer takes an EdgeList; this streams the CSR.)
void write_edge_list(const sbg::CsrGraph& g, const fs::path& path) {
  std::ofstream out(path, std::ios::binary);
  std::string buf;
  buf.reserve(1 << 20);
  for (sbg::vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const sbg::vid_t v : g.neighbors(u)) {
      if (u < v) {
        buf += std::to_string(u);
        buf += ' ';
        buf += std::to_string(v);
        buf += '\n';
      }
    }
    if (buf.size() > (1 << 20)) {
      out.write(buf.data(), std::streamsize(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), std::streamsize(buf.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Everything set-up builds; the last repetition's copy is measured.
struct Setup {
  std::vector<NamedGraph> matrix;
  std::vector<ServeGraph> serve;
  NamedGraph ooc;
  std::uint64_t ooc_budget = 0;
  std::unique_ptr<Traffic> traffic;
  double generate_s = 0, parse_s = 0, parse_mb = 0;
};

std::unique_ptr<Setup> set_up(const Workload& w, const Args& a,
                              const fs::path& dir, int requests, Tally& tally) {
  auto s = std::make_unique<Setup>();
  fresh_store_dirs(dir);
  for (const std::string& name : w.matrix) {
    std::shared_ptr<const sbg::CsrGraph> g;
    {
      Span span("graph.make_dataset " + name, "graph");
      Timer t;
      g = std::make_shared<const sbg::CsrGraph>(
          sbg::make_dataset(name, a.scale, kDatasetSeed));
      s->generate_s += t.seconds();
    }
    if (std::find(w.serve.begin(), w.serve.end(), name) != w.serve.end()) {
      // Served graphs reach the server as text; the matrix uses the bench's
      // own parse of the same file so reference hashes are comparable.
      const fs::path path = dir / (name + ".el");
      {
        Span span("write " + name + ".el", "bench");
        write_edge_list(*g, path);
      }
      Span span("ingest.parse_text_file " + name, "ingest");
      Timer t;
      g = std::make_shared<const sbg::CsrGraph>(
          sbg::ingest::parse_text_file(path.string()));
      s->parse_s += t.seconds();
      s->parse_mb += double(fs::file_size(path)) / 1e6;
      s->serve.push_back({name, path.string(), g});
    }
    s->matrix.emplace_back(name, g);
  }
  for (const NamedGraph& ng : s->matrix) {
    if (ng.first == w.ooc) s->ooc = ng;
  }
  if (s->ooc.second == nullptr) {
    Span span("graph.make_dataset " + w.ooc, "graph");
    Timer t;
    s->ooc = {w.ooc, std::make_shared<const sbg::CsrGraph>(
                         sbg::make_dataset(w.ooc, a.scale, kDatasetSeed))};
    s->generate_s += t.seconds();
  }
  {
    Span span("ooc.plan_ooc in-core", "ooc");
    s->ooc_budget = ooc_working_set(*s->ooc.second, a.seed) / 6;
  }
  TrafficConfig tc;
  tc.graphs = s->serve;
  tc.requests = requests;
  tc.seed = a.seed;
  tc.dataset_scale = a.scale;
  s->traffic = std::make_unique<Traffic>(std::move(tc));
  s->traffic->start(tally);
  return s;
}

std::string json_number(double v) {
  std::string out;
  sbg::obs::append_json_number(out, v);
  return out;
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ',';
    out += "\"" + name + "\":{\"value\":" + json_number(metric.value) +
           ",\"unit\":\"" + metric.unit + "\"}";
  }
  return out + "}";
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + a.workload);
  if (std::strcmp(SBG_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    throw std::runtime_error(std::string("refusing a ") +
                             SBG_PERFBENCH_BUILD_TYPE + " build");
  }

  ScratchDir scratch{fs::absolute(".bench_tmp") /
                     (a.workload + "-" + std::to_string(a.seed) + "-" +
                      std::to_string(getpid()))};
  isolate_environment(scratch.path);

  const double share = a.seconds / kReferenceSeconds;
  int passes = std::max(1, int(std::lround(w->passes * share)));
  // Traced runs alternate untraced / traced / untraced passes.
  if (a.trace) passes = std::max(passes, 3);
  const int requests = std::max(50, int(std::lround(w->requests * share)));
  const int nproc = int(std::thread::hardware_concurrency());

  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("sbg perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds,
              int(a.trace));
  std::printf("record: host=%s nproc=%d threads=%d build=%s commit=%s "
              "scale=%g passes=%d requests=%d\n",
              host, nproc, kThreads, SBG_PERFBENCH_BUILD_TYPE,
              a.commit.c_str(), a.scale, passes, requests);
  std::fflush(stdout);

  Tally tally;
  MetricMap e2e, layer;
  tracer().set_enabled(a.trace);

  // ---- set-up, repeated; the last repetition is the one measured.
  std::vector<double> setup_s, generate_s, parse_s, parse_rate;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();  // stops the previous repetition's server
    sbg::obs::registry().reset();
    sbg::obs::span_tree().reset();
    sbg::tune::global_store().clear();
    tracer().reset();
    Timer t;
    setup = set_up(*w, a, scratch.path / ("rep" + std::to_string(rep)),
                   requests, tally);
    setup_s.push_back(t.seconds());
    generate_s.push_back(setup->generate_s);
    parse_s.push_back(setup->parse_s);
    parse_rate.push_back(setup->parse_mb / setup->parse_s);
    std::printf("setup %d: %.3f s (generate %.3f s, ingest %.3f s)\n", rep + 1,
                setup_s.back(), setup->generate_s, setup->parse_s);
    std::fflush(stdout);
  }
  e2e["setup_s"] = {median(setup_s), "s"};
  layer["graph.generate_s"] = {median(generate_s), "s"};
  layer["ingest.parse_s"] = {median(parse_s), "s"};
  layer["ingest.mb_per_s"] = {median(parse_rate), "MB/s"};

  // ---- measured phases.
  MatrixConfig mc;
  mc.graphs = setup->matrix;
  mc.ooc_graph = setup->ooc;
  mc.ooc_budget = setup->ooc_budget;
  mc.seed = a.seed;
  mc.threads = kThreads;
  mc.passes = passes;
  mc.spill_dir = (scratch.path / "spill").string();
  mc.trace = a.trace;
  mc.corrupt_reference = a.corrupt_reference;
  HashRefs refs;
  const std::map<std::string, double> direct_seconds =
      run_matrix(mc, tally, refs, e2e, layer);
  setup->traffic->run(refs, tally, e2e, layer);
  if (a.trace) {
    run_core_probe(setup->matrix, a.seed, layer);
    setup->traffic->replay_direct(direct_seconds, tally, layer);
  }
  setup->traffic->stop();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e["peak_rss_mb"] = {double(ru.ru_maxrss) / 1024.0, "MB"};

  if (a.trace) {
    tracer().set_enabled(false);
    for (const char* l : {"bench", "graph", "ingest", "core", "sched",
                          "matching", "coloring", "mis", "gpusim", "check",
                          "tune", "ooc", "dyn", "serve"}) {
      layer[std::string("self_s.") + l] = {0.0, "s"};
    }
    for (const auto& [l, s] : tracer().self_seconds_by_layer()) {
      layer["self_s." + l] = {s, "s"};
    }
  }

  // ---- record: metadata + every metric, then the result line.
  const std::string tag = a.workload + "-seed" + std::to_string(a.seed) +
                          "-trace" + std::to_string(int(a.trace));
  fs::create_directories(".bench_out");
  {
    std::ofstream rec(".bench_out/" + tag + ".json");
    rec << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
        << ",\"seconds\":" << json_number(a.seconds)
        << ",\"trace\":" << int(a.trace) << ",\"host\":";
    std::string h;
    sbg::obs::append_json_string(h, host);
    rec << h << ",\"nproc\":" << nproc << ",\"threads\":" << kThreads
        << ",\"build_type\":\"" << SBG_PERFBENCH_BUILD_TYPE
        << "\",\"commit\":\"" << a.commit << "\",\"scale\":"
        << json_number(a.scale) << ",\"passes\":" << passes
        << ",\"requests\":" << requests
        << ",\"attempted\":" << tally.attempted()
        << ",\"failed\":" << tally.failed()
        << ",\"end_to_end\":" << metrics_json(e2e)
        << ",\"per_layer\":" << metrics_json(layer) << "}\n";
  }
  if (a.trace) {
    std::ofstream tr(".bench_out/" + tag + ".spans.json");
    tr << tracer().to_json() << "\n";
  }

  for (const MetricMap* m : {&e2e, &layer}) {
    for (const auto& [name, metric] : *m) {
      std::printf("  %-28s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              metrics_json(a.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

// ------------------------------------------------------------ shared bits --

bool Tally::check(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok && failed_.fetch_add(1) < 10) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks: the median of an even
  // count is the mean of the middle two.
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::string job_key(const std::string& graph, sbg::sched::Problem p,
                    const std::string& variant) {
  return graph + "/" + sbg::sched::to_string(p) + "/" + variant;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbg_perfbench: %s\n", e.what());
    return 1;
  }
}
