// Transport-independent scenario-server engine.
//
// Both transports — the stdio loop (serve/server.cpp) and the concurrent
// unix-socket server (serve/socket.cpp) — are thin byte shovels around this
// core: it owns the worker pool, the admission queue, the cross-query
// caches and the server counters, and it renders every response line.
// Keeping one engine is what keeps the protocol identical across
// transports: a request line answered over stdin/stdout is byte-identical
// to the same line answered over a socket.
//
// Request ordering is per OrderedWriter (one per stream/connection): workers
// finish in any order, lines leave in request order. Control barriers come
// in two flavours because the transports block differently:
//
//  - wait_until(seq): the stdio loop parks its read thread until every
//    earlier response is out, then renders the control inline. Fine there —
//    blocking the only reader is the point of a barrier.
//  - defer(seq, render): the socket poll thread must never block (other
//    connections share it), so it enqueues the *renderer*; the writer calls
//    it at delivery time, which is exactly the barrier point (all earlier
//    responses delivered). A deferred "stats" therefore still sees a settled
//    cache state, and a deferred "shutdown" flips the drain flag at the
//    moment every earlier query on that connection has been answered.
//
// Admission control happens at submit time (queue bound -> "overloaded" with
// a retry_after_ms hint from an EWMA of recent job times) and again at
// dequeue time (expired wall-clock budget -> "deadline"); a scenario run
// itself is never interrupted, so the budget is a queue-wait budget.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gpucomm/serve/query.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"

namespace gpucomm::serve {

/// Sequence-ordered line sink. Lines are handed to `sink` strictly in
/// sequence order, newline included, regardless of delivery order.
class OrderedWriter {
 public:
  using Sink = std::function<void(const std::string& framed_line)>;
  using Render = std::function<std::string()>;

  explicit OrderedWriter(Sink sink) : sink_(std::move(sink)) {}

  /// Deliver the response for `seq`; drains every consecutive ready line.
  void deliver(std::uint64_t seq, std::string line);

  /// Deliver a line that is *rendered at its turn* — when every earlier
  /// sequence number has been written. This is the non-blocking control
  /// barrier: the renderer observes the post-barrier state.
  void defer(std::uint64_t seq, Render render);

  /// Block until every sequence number below `seq` has been written (the
  /// blocking control barrier for the stdio transport).
  void wait_until(std::uint64_t seq);

  /// Lines handed to the sink so far.
  std::uint64_t written() const;

 private:
  struct Pending {
    std::string line;
    Render render;  // non-null => render at drain time
  };
  void drain_locked();

  Sink sink_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, Pending> pending_;
};

/// The engine: caches + worker pool + admission control.
class ServerCore {
 public:
  /// `always_pool` forces a worker pool even for jobs <= 1 (the socket
  /// transport needs one so its poll thread never runs a scenario); the
  /// stdio transport leaves it false and answers inline when jobs <= 1,
  /// which also disables shedding there (nothing ever queues).
  ServerCore(const ServeOptions& options, bool always_pool);
  ~ServerCore();

  ServerCaches& caches() { return *caches_; }

  enum class LineAction {
    kContinue,  // answered (or queued); keep reading
    kShutdown,  // shutdown control seen; stop reading this stream
  };

  /// Handle one non-blank request line end to end: parse, answer controls,
  /// admit or shed scenario queries. `deferred_controls` selects the
  /// non-blocking barrier (socket transport). With deferred controls a
  /// shutdown still returns kShutdown immediately (stop *reading*), but the
  /// drain flag flips only when the deferred line renders (the barrier).
  LineAction handle_line(const std::shared_ptr<OrderedWriter>& writer,
                         std::uint64_t seq, const std::string& line,
                         bool deferred_controls);

  /// Answer an over-long request line (one ok:false response) and count it.
  void answer_line_overflow(const std::shared_ptr<OrderedWriter>& writer,
                            std::uint64_t seq);

  void note_connection_accepted();
  void note_connection_closed();
  void note_connection_dropped();

  /// True once a shutdown control has *rendered* (its barrier passed) —
  /// the socket transport polls this to stop accepting and start draining.
  bool shutdown_rendered() const { return drain_flag_.load(); }

  /// Close the admission queue, run every already-admitted job and join the
  /// workers. Idempotent.
  void drain();

  /// Counter snapshot (post-drain() it is the final tally).
  ServerCounters counters() const;

  /// Merged latency snapshot; all zeros when observability is off.
  LatencyStats latency_stats() const;

  /// Prometheus text exposition of the cache/server/solver counters plus
  /// (when observability is on) the merged latency summaries. Rendered for
  /// the `metrics` control query and the --serve-metrics-file snapshots.
  std::string prometheus_text() const;

 private:
  struct Job {
    std::shared_ptr<OrderedWriter> writer;
    std::uint64_t seq = 0;
    ScenarioQuery query;
    std::chrono::steady_clock::time_point admitted;
    int deadline_ms = 0;  // resolved budget (query override or server default)
    // Observability-only fields, populated when obs_ is live.
    std::uint64_t obs_admit_ns = 0;  // Obs::now_ns() at admission
    std::string raw_line;            // copied only for slow-query records
  };

  void submit(const std::shared_ptr<OrderedWriter>& writer, std::uint64_t seq,
              ScenarioQuery query, const std::string& line);
  /// `lane` is the Obs histogram/span lane: the worker index, or the
  /// transport lane for inline execution. Ignored when obs is off.
  void run_job(const Job& job, int lane);
  void worker(int lane);
  /// retry_after_ms hint for a shed response: EWMA job time x queue depth
  /// per worker, clamped to [1ms, 60s].
  std::int64_t retry_hint_ms(std::size_t depth) const;
  void note_job_ms(double ms);
  void maybe_metrics_file();
  std::string stats_line(std::int64_t id) const;
  std::string metrics_line(std::int64_t id) const;
  std::string shutdown_line(std::int64_t id) const;

  ServeOptions options_;
  std::unique_ptr<ServerCaches> owned_caches_;
  ServerCaches* caches_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;
  double ewma_job_ms_ = 0.0;  // 0 = no samples yet
  bool have_job_sample_ = false;

  std::atomic<bool> drain_flag_{false};
  std::atomic<bool> drained_{false};

  // Worker pool (empty when answering inline).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool closed_ = false;
  std::vector<std::thread> threads_;

  /// Observability (serve/obs.hpp); null when ObsOptions::enabled() is
  /// false, and every hook on the serving path is guarded by that check.
  std::unique_ptr<Obs> obs_;
};

/// {"id":N,"ok":false,"error":"..."} with the message JSON-escaped.
std::string error_line(std::int64_t id, const std::string& message);

}  // namespace gpucomm::serve
