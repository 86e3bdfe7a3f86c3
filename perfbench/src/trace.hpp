// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around each call it makes into a
// library layer (graph, ingest, core, sched, check, tune, ooc, dyn, serve);
// nothing inside the library is instrumented by this file. Each span keeps
// its name, layer, start, end and parent. The records stay in memory until
// the run ends, when they are written out as one JSON document and folded
// into per-layer self times (a span's duration minus the part of it that
// its children cover).
//
// Recording is off until set_enabled(true); a disabled Span costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::string layer;
  double start = 0.0;  ///< seconds since the tracer epoch
  double end = 0.0;
  int parent = -1;     ///< index into the record list, -1 for a root
  int thread = 0;      ///< small per-thread id, for the exported timeline
};

class Tracer {
 public:
  /// Drop every record and restart the epoch; recording stays as it was.
  void reset();
  /// Switch recording on or off; records are kept either way.
  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  /// Open a span under `parent` (-1: the calling thread's innermost open
  /// span). Returns its index, or -1 while disabled.
  int open(std::string name, std::string layer, int parent = -1);
  void close(int id);

  /// Self seconds per layer over every closed span.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" events) plus the raw parent links.
  std::string to_json() const;

 private:
  double now() const;

  std::atomic<bool> on_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Span {
 public:
  Span(const char* name, const char* layer, int parent = -1);
  Span(const std::string& name, const char* layer, int parent = -1)
      : Span(name.c_str(), layer, parent) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_ = -1;  ///< calling thread's innermost span before this one
};

}  // namespace perfbench
