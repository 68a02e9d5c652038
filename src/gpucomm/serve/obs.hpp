// Service observability for the scenario server: per-stage latency
// histograms, surfaced through the `stats` and `metrics` control queries and
// ServeResult::latency.
//
// Off by default: ServerCore constructs an Obs only when ObsOptions::latency
// is set, and every hook on the serving path is guarded by that null check,
// so with it off no clock is read. When on, every stage records into one
// metrics::Log2Histogram set under one mutex; a record is a few adds, so the
// lock is held for nanoseconds against runs of milliseconds. Log2Histogram
// records exactly, so the quantiles do not depend on which thread recorded.
//
// Responses are byte-identical with the histograms on or off: no hook
// touches response rendering, and the numbers leave only through the
// `stats`/`metrics` control responses (which are load-dependent by design
// and excluded from the byte-identity contract).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "gpucomm/metrics/histogram.hpp"

namespace gpucomm::serve {

struct ObsOptions {
  /// Record the per-stage latency histograms (gpucomm_cli --serve always
  /// sets it; benches and tests choose).
  bool latency = false;
};

/// Latency stages. kQueueWait is admission -> dequeue, kParse is
/// request-line parsing on the transport thread, kRun/kRender split
/// run_scenario from response assembly, kE2e is admission -> flushed (so its
/// count equals answered scenario queries — shed and control lines never
/// reach it).
enum class Stage { kQueueWait = 0, kParse, kRun, kRender, kE2e };
inline constexpr int kStageCount = 5;
const char* stage_name(Stage s);

/// Latency snapshot surfaced through ServeResult and `stats`. Quantiles are
/// microseconds (recorded internally in nanoseconds).
struct LatencyStats {
  struct StageStats {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };
  StageStats stage[kStageCount];
};

class Obs {
 public:
  using Clock = std::chrono::steady_clock;
  using Histograms = std::array<metrics::Log2Histogram, kStageCount>;

  /// Record `stage` as lasting from `start` until now; returns now, so the
  /// next stage can start where this one ended.
  Clock::time_point record(Stage stage, Clock::time_point start);

  /// One consistent copy of every stage's histogram.
  Histograms histograms() const;
  LatencyStats latency() const;

 private:
  mutable std::mutex mu_;
  Histograms h_;
};

}  // namespace gpucomm::serve
