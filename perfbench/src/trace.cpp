#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/report.hpp"

namespace perfbench {

namespace {

thread_local int t_current = -1;
std::atomic<int> g_next_thread{0};
thread_local int t_thread = g_next_thread.fetch_add(1);

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  epoch_ = Clock::now();
}

// Callers hold mu_: reset() moves the epoch under it.
double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int Tracer::open(std::string name, std::string layer, int parent) {
  if (!enabled()) return -1;
  SpanRecord r;
  r.name = std::move(name);
  r.layer = std::move(layer);
  r.parent = parent >= 0 ? parent : t_current;
  r.thread = t_thread;
  std::lock_guard<std::mutex> lock(mu_);
  r.start = now();
  r.end = r.start;
  spans_.push_back(std::move(r));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent may overlap (concurrent client threads), so the
  // covered part is the union of their intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = s.start;  // everything before lo is already counted
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, lo);
      const double to = std::min(b, s.end);
      if (to > from) {
        covered += to - from;
        lo = to;
      }
    }
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.thread);
    out += ",\"name\":";
    sbg::obs::append_json_string(out, s.name);
    out += ",\"cat\":";
    sbg::obs::append_json_string(out, s.layer);
    out += ",\"ts\":";
    sbg::obs::append_json_number(out, s.start * 1e6);
    out += ",\"dur\":";
    sbg::obs::append_json_number(out, (s.end - s.start) * 1e6);
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "]}";
  return out;
}

Span::Span(const char* name, const char* layer, int parent) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  id_ = t.open(name, layer, parent);
  saved_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  tracer().close(id_);
  t_current = saved_;
}

}  // namespace perfbench
