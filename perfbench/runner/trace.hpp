// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a gpucomm module (cluster build, communicator set-up, time_*
// calls, the scale model, ServerCore::handle_line, the routing and noise
// probes). Each span keeps its name, start, end and the index of the span
// that was open when it began, so a layer's self time is its duration minus
// the time covered by its direct children. Nothing is written until the run
// ends; with tracing off no Tracer exists and a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;  // a string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the span list, -1 for a root span
};

/// Duration totals of every span with one name.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0;  // sum of span durations
  double self_s = 0;   // sum of durations minus direct children
};

class Tracer {
 public:
  int begin(const char* name);
  void end(int index);

  /// Per-name totals over every span recorded.
  std::map<std::string, LayerTotals> totals() const;
  /// Chrome-trace JSON ("X" events, microseconds), viewable in Perfetto.
  bool write_json(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
