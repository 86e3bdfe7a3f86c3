// The traffic phase: closed-loop HTTP clients against an in-process
// serve::Server, and (traced runs) the same work replayed in-process.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "dyn/session.hpp"
#include "obs/report.hpp"
#include "parallel/thread_env.hpp"
#include "parallel/timer.hpp"
#include "serve/client.hpp"
#include "serve/minijson.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

using sbg::Timer;
using sbg::sched::Problem;

namespace {

constexpr int kWorkers = 2;          ///< server request workers
constexpr int kPerJobThreads = 1;    ///< OpenMP team inside each worker
constexpr int kClients = 3;          ///< closed-loop client connections
constexpr int kMetricsEvery = 50;    ///< one GET /metrics per this many
constexpr int kEdgesPerUpdate = 20;  ///< half inserts, half deletes
constexpr double kClientTimeoutS = 120.0;

constexpr std::array<Problem, 3> kProblems{Problem::kMM, Problem::kColor,
                                           Problem::kMis};

/// The CPU Table I variants a served job may name, per problem.
const std::vector<std::string>& table1_variants(Problem p) {
  static const std::vector<std::string> kMm{"gm", "bridge-gm", "rand-gm",
                                            "degk-gm"};
  static const std::vector<std::string> kColor{"vb", "bridge-vb", "rand-vb",
                                               "degk-vb"};
  static const std::vector<std::string> kMis{"luby", "bridge", "rand",
                                             "degk2"};
  return p == Problem::kMM ? kMm : p == Problem::kColor ? kColor : kMis;
}

struct Request {
  enum class Kind { kJob, kUpdate, kMetrics };
  Kind kind = Kind::kJob;
  std::size_t graph = 0;  ///< index into TrafficConfig::graphs
  Problem problem = Problem::kMM;
  sbg::dyn::UpdateBatch batch;
  std::string method, target, body;
};

struct Response {
  int status = 0;
  double ms = 0.0;
  std::size_t bytes = 0;
  std::string resolved_variant;  ///< jobs: what "auto" resolved to
};

/// Draws update batches: inserts between random existing vertices, deletes
/// of base edges no earlier batch has deleted.
class UpdateGen {
 public:
  explicit UpdateGen(const sbg::CsrGraph& g) : g_(g) {}

  sbg::dyn::UpdateBatch next(std::mt19937_64& rng) {
    sbg::dyn::UpdateBatch b;
    const sbg::vid_t n = g_.num_vertices();
    std::uniform_int_distribution<sbg::vid_t> pick(0, n - 1);
    while (b.insert.size() < kEdgesPerUpdate / 2) {
      const sbg::vid_t u = pick(rng), v = pick(rng);
      if (u != v) b.insert.push_back({u, v});
    }
    for (int tries = 0;
         b.remove.size() < kEdgesPerUpdate / 2 && tries < 64 * kEdgesPerUpdate;
         ++tries) {
      const sbg::vid_t u = pick(rng);
      const auto nb = g_.neighbors(u);
      if (nb.empty()) continue;
      const sbg::vid_t v = nb[rng() % nb.size()];
      const std::uint64_t key = (std::uint64_t(std::min(u, v)) << 32) |
                                std::max(u, v);
      if (deleted_.insert(key).second) b.remove.push_back({u, v});
    }
    return b;
  }

 private:
  const sbg::CsrGraph& g_;
  std::set<std::uint64_t> deleted_;
};

std::string edges_json(const std::vector<sbg::Edge>& edges) {
  std::string out = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ',';
    out += "[" + std::to_string(edges[i].u) + "," + std::to_string(edges[i].v) +
           "]";
  }
  return out + "]";
}

std::string quoted(const std::string& s) {
  std::string out;
  sbg::obs::append_json_string(out, s);
  return out;
}

}  // namespace

struct Traffic::Impl {
  TrafficConfig cfg;
  std::unique_ptr<sbg::serve::Server> server;
  std::vector<Request> warm, measured;
  std::vector<Response> responses;  ///< one per measured request
  double served_solve_p50_ms = 0.0;

  Request job(std::size_t g, Problem p, const std::string& variant) const {
    Request r;
    r.kind = Request::Kind::kJob;
    r.graph = g;
    r.problem = p;
    r.method = "POST";
    r.target = "/v1/jobs";
    r.body = "{\"graph\":" + quoted(cfg.graphs[g].name) +
             ",\"problem\":\"" + sbg::sched::to_string(p) +
             "\",\"variant\":" + quoted(variant) +
             ",\"seed\":" + std::to_string(cfg.seed) + ",\"verify\":true}";
    return r;
  }

  Request update(std::size_t g, sbg::dyn::UpdateBatch batch) const {
    Request r;
    r.kind = Request::Kind::kUpdate;
    r.graph = g;
    r.method = "POST";
    r.target = "/v1/graphs/" + cfg.graphs[g].name + "/updates";
    r.body = "{\"insert\":" + edges_json(batch.insert) +
             ",\"delete\":" + edges_json(batch.remove) +
             ",\"verify\":true,\"seed\":" + std::to_string(cfg.seed) + "}";
    r.batch = std::move(batch);
    return r;
  }

  /// The warm-up list and the measured request list, both from the seed.
  void make_requests() {
    std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 17);
    std::vector<UpdateGen> gens;
    for (const ServeGraph& g : cfg.graphs) gens.emplace_back(*g.graph);
    for (std::size_t g = 0; g < cfg.graphs.size(); ++g) {
      for (const Problem p : kProblems) {
        for (const std::string& v : table1_variants(p)) {
          warm.push_back(job(g, p, v));
        }
        warm.push_back(job(g, p, sbg::sched::kAutoVariant));
      }
      warm.push_back(update(g, gens[g].next(rng)));
    }
    // Fixed composition, seeded order: the jobs cycle through every
    // (graph, problem, variant), updates are a quarter of the non-metrics
    // requests spread evenly over the graphs, and the seed picks the order
    // and the update edges. A seeded composition would move throughput and
    // tail latency with the share of heavy graphs drawn.
    const std::size_t n_graphs = cfg.graphs.size();
    const int slots = cfg.requests - cfg.requests / kMetricsEvery;
    const int updates = slots / 4;
    std::vector<Request> pool;
    for (int i = 0; i < slots - updates; ++i) {
      const std::size_t combo = std::size_t(i) % (n_graphs * 15);
      const Problem p = kProblems[combo / 5 % 3];
      const std::size_t v = combo % 5;
      pool.push_back(job(combo / 15, p,
                         v == 4 ? std::string(sbg::sched::kAutoVariant)
                                : table1_variants(p)[v]));
    }
    for (int i = 0; i < updates; ++i) {
      const std::size_t g = std::size_t(i) % n_graphs;
      pool.push_back(update(g, gens[g].next(rng)));
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    for (int i = 0, next = 0; i < cfg.requests; ++i) {
      if (i % kMetricsEvery == kMetricsEvery - 1) {
        Request r;
        r.kind = Request::Kind::kMetrics;
        r.method = "GET";
        r.target = "/metrics";
        measured.push_back(std::move(r));
      } else {
        measured.push_back(std::move(pool[std::size_t(next++)]));
      }
    }
  }

  /// Send one request and check the answer. `refs` == nullptr: warm-up
  /// (status checks only).
  Response send(const Request& r, const HashRefs* refs, Tally& tally,
                int parent_span) {
    Response out;
    sbg::serve::ClientResponse res;
    std::string err;
    bool sent;
    {
      Span span("serve." + r.method + " " +
                    (r.kind == Request::Kind::kUpdate ? "/v1/graphs/updates"
                                                      : r.target),
                "serve", parent_span);
      Timer t;
      sent = sbg::serve::http_request(server->port(), r.method, r.target,
                                      r.body, &res, &err, kClientTimeoutS);
      out.ms = t.millis();
    }
    const std::string what = r.method + " " + r.target + " " + r.body.substr(0, 120);
    out.status = res.status;
    out.bytes = res.body.size();
    if (!tally.check(sent && res.status == 200,
                     what + ": HTTP " + std::to_string(res.status) + " " +
                         err + " " + res.body.substr(0, 200))) {
      return out;
    }
    if (r.kind == Request::Kind::kMetrics) {
      tally.check(res.body.find("sbg_") != std::string::npos,
                  what + ": no sbg_ series in the exposition");
      return out;
    }
    // Every checked field precedes the embedded obs report, which the
    // server writes last; parsing only the head keeps the clients' share of
    // the host's cores small. A body without the report parses whole.
    const std::size_t obs_at = res.body.find(",\"obs\":");
    const std::optional<sbg::serve::JsonValue> doc = sbg::serve::parse_json(
        obs_at == std::string::npos ? res.body : res.body.substr(0, obs_at) + "}",
        32, &err);
    if (!tally.check(doc && doc->is_object(), what + ": bad JSON: " + err)) {
      return out;
    }
    if (!tally.check(doc->get_string("status", "", nullptr) == "ok",
                     what + ": status " + doc->get_string("status", "", nullptr))) {
      return out;
    }
    if (r.kind == Request::Kind::kUpdate) {
      tally.check(doc->get_bool("verified", false, nullptr),
                  what + ": update not verified");
      return out;
    }
    out.resolved_variant = doc->get_string("resolved_variant", "", nullptr);
    if (refs != nullptr && doc->get_bool("deterministic", false, nullptr)) {
      const auto it = refs->find(
          job_key(cfg.graphs[r.graph].name, r.problem, out.resolved_variant));
      tally.check(it != refs->end() &&
                      doc->get_string("result_hash", "", nullptr) ==
                          std::to_string(it->second),
                  what + ": result_hash differs from the direct run of " +
                      out.resolved_variant);
    }
    return out;
  }
};

Traffic::Traffic(TrafficConfig cfg) : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
}

Traffic::~Traffic() { stop(); }

void Traffic::start(Tally& tally) {
  Impl& m = *impl_;
  m.make_requests();
  sbg::serve::ServerOptions opt;
  opt.workers = kWorkers;
  opt.per_job_threads = kPerJobThreads;
  opt.dataset_scale = m.cfg.dataset_scale;
  opt.dataset_seed = m.cfg.seed;
  m.server = std::make_unique<sbg::serve::Server>(opt);
  std::string err;
  {
    Span span("serve.start", "serve");
    if (!m.server->start(&err)) {
      throw std::runtime_error("server start failed: " + err);
    }
  }
  for (const ServeGraph& g : m.cfg.graphs) {
    Span span("serve.register " + g.name, "serve");
    sbg::serve::ClientResponse res;
    const bool sent = sbg::serve::http_request(
        m.server->port(), "POST", "/v1/graphs",
        "{\"name\":" + quoted(g.name) + ",\"path\":" + quoted(g.path) + "}",
        &res, &err, kClientTimeoutS);
    if (!tally.check(sent && res.status == 200,
                     "register " + g.name + ": " + err + res.body)) {
      throw std::runtime_error("graph registration failed: " + g.name);
    }
  }
  Span span("serve.warm", "serve");
  for (const Request& r : m.warm) m.send(r, nullptr, tally, span.id());
}

void Traffic::run(const HashRefs& refs, Tally& tally, MetricMap& e2e,
                  MetricMap& layer) {
  Impl& m = *impl_;
  m.responses.assign(m.measured.size(), {});
  std::atomic<std::size_t> next{0};
  Span phase("traffic", "bench");
  const int parent = phase.id();
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < m.measured.size();) {
        m.responses[i] = m.send(m.measured[i], &refs, tally, parent);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = wall.seconds();

  std::vector<double> solve_ms, update_ms;
  double job_bytes = 0, first_kb = 0, last_kb = 0, non200 = 0;
  for (std::size_t i = 0; i < m.measured.size(); ++i) {
    const Response& r = m.responses[i];
    if (r.status != 200) ++non200;
    if (m.measured[i].kind == Request::Kind::kJob) {
      solve_ms.push_back(r.ms);
      job_bytes += double(r.bytes);
      if (first_kb == 0) first_kb = double(r.bytes) / 1e3;
      last_kb = double(r.bytes) / 1e3;
    } else if (m.measured[i].kind == Request::Kind::kUpdate) {
      update_ms.push_back(r.ms);
    }
  }
  m.served_solve_p50_ms = quantile(solve_ms, 0.5);
  e2e["solve_p50_ms"] = {m.served_solve_p50_ms, "ms"};
  e2e["solve_p99_ms"] = {quantile(solve_ms, 0.99), "ms"};
  e2e["update_p50_ms"] = {quantile(update_ms, 0.5), "ms"};
  e2e["update_p95_ms"] = {quantile(update_ms, 0.95), "ms"};
  e2e["req_per_s"] = {double(m.measured.size()) / seconds, "1/s"};
  e2e["resp_kb_mean"] = {
      solve_ms.empty() ? 0.0 : job_bytes / 1e3 / double(solve_ms.size()), "kB"};
  layer["serve.resp_kb_first"] = {first_kb, "kB"};
  layer["serve.resp_kb_last"] = {last_kb, "kB"};
  layer["serve.non200"] = {non200, "count"};
  std::printf("traffic: %zu requests in %.3f s (%zu jobs, %zu updates)\n",
              m.measured.size(), seconds, solve_ms.size(), update_ms.size());
}

void Traffic::replay_direct(const std::map<std::string, double>& direct_seconds,
                            Tally& tally, MetricMap& layer) {
  Impl& m = *impl_;
  const sbg::ScopedThreads threads(kPerJobThreads);
  Span phase("direct", "bench");

  // Serving overhead: the served jobs' p50 against the p50 of the same jobs
  // run in-process under the server's per-job thread count.
  std::map<std::string, double> direct_ms;
  std::vector<double> per_job_ms;
  for (std::size_t i = 0; i < m.measured.size(); ++i) {
    const Request& r = m.measured[i];
    if (r.kind != Request::Kind::kJob || m.responses[i].status != 200) continue;
    const std::string& variant = m.responses[i].resolved_variant;
    const std::string key =
        job_key(m.cfg.graphs[r.graph].name, r.problem, variant);
    auto it = direct_ms.find(key);
    if (it == direct_ms.end()) {
      sbg::sched::JobSpec spec;
      spec.name = key;
      spec.graph_name = m.cfg.graphs[r.graph].name;
      spec.graph = m.cfg.graphs[r.graph].graph;
      spec.problem = r.problem;
      spec.variant = variant;
      spec.seed = m.cfg.seed;
      sbg::sched::JobSolution sol;
      sbg::sched::JobResult res;
      {
        Span span(key, "sched");
        res = sbg::sched::execute_job(sbg::sched::prepare_job(spec), sol);
      }
      tally.check(res.status == sbg::sched::JobStatus::kOk,
                  key + ": direct replay: " + res.error);
      it = direct_ms.emplace(key, res.seconds * 1e3).first;
    }
    per_job_ms.push_back(it->second);
  }
  layer["serve.overhead_ms"] = {
      m.served_solve_p50_ms - quantile(per_job_ms, 0.5), "ms"};

  // Auto resolution against the store the served traffic trained.
  std::vector<double> prepare_ms;
  double log_regret = 0;
  int regret_n = 0;
  for (const ServeGraph& g : m.cfg.graphs) {
    for (const Problem p : kProblems) {
      sbg::sched::JobSpec spec;
      spec.graph_name = g.name;
      spec.graph = g.graph;
      spec.problem = p;
      spec.variant = sbg::sched::kAutoVariant;
      spec.seed = m.cfg.seed;
      sbg::sched::PreparedJob job;
      {
        Span span("tune.prepare_job auto", "tune");
        Timer t;
        job = sbg::sched::prepare_job(spec);
        prepare_ms.push_back(t.millis());
      }
      double best = 0;
      for (const std::string& v : table1_variants(p)) {
        const auto it = direct_seconds.find(job_key(g.name, p, v));
        if (it != direct_seconds.end() && (best == 0 || it->second < best)) {
          best = it->second;
        }
      }
      const auto chosen =
          direct_seconds.find(job_key(g.name, p, job.spec.variant));
      if (best > 0 && chosen != direct_seconds.end()) {
        log_regret += std::log(chosen->second / best);
        ++regret_n;
      }
    }
  }
  layer["tune.prepare_ms"] = {median(prepare_ms), "ms"};
  layer["tune.auto_regret"] = {
      regret_n == 0 ? 0.0 : std::exp(log_regret / regret_n), "ratio"};

  // Incremental repair without the server: a fresh session per graph fed
  // the same batches in generation order.
  double init_s = 0;
  std::vector<double> update_ms;
  for (std::size_t g = 0; g < m.cfg.graphs.size(); ++g) {
    Timer t;
    std::unique_ptr<sbg::dyn::Session> session;
    {
      Span span("dyn.Session", "dyn");
      sbg::dyn::SessionOptions so;
      so.seed = m.cfg.seed;
      session = std::make_unique<sbg::dyn::Session>(m.cfg.graphs[g].graph, so);
    }
    init_s += t.seconds();
    for (const std::vector<Request>* list : {&m.warm, &m.measured}) {
      for (const Request& r : *list) {
        if (r.kind != Request::Kind::kUpdate || r.graph != g) continue;
        Span span("dyn.update", "dyn");
        Timer u;
        const sbg::dyn::UpdateOutcome o = session->update(r.batch, true);
        if (list == &m.measured) update_ms.push_back(u.millis());
        tally.check(o.verified && o.oracle_error.empty(),
                    m.cfg.graphs[g].name + ": direct update: " +
                        o.oracle_error);
      }
    }
  }
  layer["dyn.update_ms"] = {median(update_ms), "ms"};
  layer["dyn.session_init_s"] = {init_s, "s"};
}

void Traffic::stop() {
  if (impl_ && impl_->server) {
    Span span("serve.shutdown", "serve");
    impl_->server->shutdown();
    impl_->server.reset();
  }
}

}  // namespace perfbench
