#include "gpucomm/serve/core.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "gpucomm/metrics/json.hpp"
#include "gpucomm/net/solver_stats.hpp"
#include "gpucomm/serve/json_value.hpp"

namespace gpucomm::serve {

// --- OrderedWriter ----------------------------------------------------------

void OrderedWriter::deliver(std::uint64_t seq, std::string line) {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(seq, Pending{std::move(line), nullptr});
  drain_locked();
  cv_.notify_all();
}

void OrderedWriter::defer(std::uint64_t seq, Render render) {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(seq, Pending{std::string(), std::move(render)});
  drain_locked();
  cv_.notify_all();
}

void OrderedWriter::wait_until(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return next_ >= seq; });
}

std::uint64_t OrderedWriter::written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

void OrderedWriter::drain_locked() {
  while (true) {
    const auto it = pending_.find(next_);
    if (it == pending_.end()) break;
    std::string line = it->second.render != nullptr ? it->second.render()
                                                    : std::move(it->second.line);
    pending_.erase(it);
    line.push_back('\n');
    sink_(line);
    ++next_;
  }
}

// --- response rendering -----------------------------------------------------

std::string error_line(std::int64_t id, const std::string& message) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"error\":\"" +
         metrics::json_escape(message) + "\"}";
}

namespace {

/// Render the response line for a finished (or failed) scenario run. The
/// bytes are a pure function of the run result — observability never touches
/// this path, which is half of the on-vs-off byte-identity guarantee.
std::string render_response(const ScenarioQuery& q,
                            const std::shared_ptr<const ScenarioOutput>& out,
                            const std::string& err) {
  if (out == nullptr) return error_line(q.id, err);
  if (!q.metrics_out.empty()) {
    std::ofstream f(q.metrics_out, std::ios::binary);
    if (f) f << out->manifest_pretty;
    if (!f) return error_line(q.id, "failed to write manifest to " + q.metrics_out);
  }
  return "{\"id\":" + std::to_string(q.id) + ",\"ok\":true,\"manifest\":" +
         out->manifest_compact + "}";
}

/// Answer one scenario query (run, optional artifact file, response line).
/// `obs`/`sobs` are null when observability is off; when on they record the
/// run and render stages, the trace spans, and the per-cache lookup events.
std::string answer(const ScenarioQuery& q, ServerCaches& caches, Obs* obs, int lane,
                   std::uint64_t seq, ScenarioObs* sobs) {
  std::string err;
  if (obs != nullptr && obs->want_events()) {
    obs->event(EventRecord(obs->ts_us(), "run_start")
                   .field("id", q.id)
                   .field("seq", seq)
                   .str());
  }
  const std::uint64_t t_run0 = obs != nullptr ? obs->now_ns() : 0;
  const std::shared_ptr<const ScenarioOutput> out =
      run_scenario(q, &caches, /*want_manifest=*/true, err, sobs);
  const std::uint64_t t_run1 = obs != nullptr ? obs->now_ns() : 0;
  if (obs != nullptr) {
    obs->record(lane, Stage::kRun, t_run1 - t_run0);
    if (obs->want_spans()) obs->span("run", lane, q.id, seq, t_run0, t_run1);
    if (obs->want_events()) {
      if (sobs != nullptr) {
        for (const ScenarioObs::Lookup& l : sobs->lookups) {
          obs->event(EventRecord(obs->ts_us(), "cache")
                         .field("id", q.id)
                         .field("seq", seq)
                         .field("cache", std::string(l.cache))
                         .field_bool("hit", l.hit)
                         .str());
        }
      }
      obs->event(EventRecord(obs->ts_us(), "run_finish")
                     .field("id", q.id)
                     .field("seq", seq)
                     .field_bool("ok", out != nullptr)
                     .field("run_ms", static_cast<double>(t_run1 - t_run0) / 1e6)
                     .str());
    }
  }
  const std::uint64_t t_r0 = obs != nullptr ? obs->now_ns() : 0;
  std::string line = render_response(q, out, err);
  if (obs != nullptr) {
    const std::uint64_t t_r1 = obs->now_ns();
    obs->record(lane, Stage::kRender, t_r1 - t_r0);
    if (obs->want_spans()) obs->span("render", lane, q.id, seq, t_r0, t_r1);
    if (obs->want_events()) {
      obs->event(EventRecord(obs->ts_us(), "render")
                     .field("id", q.id)
                     .field("seq", seq)
                     .field("bytes", static_cast<std::uint64_t>(line.size()))
                     .str());
    }
  }
  return line;
}

std::string ping_line(std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"control\":\"ping\"}";
}

std::string overloaded_line(std::int64_t id, std::int64_t retry_after_ms) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":" +
         std::to_string(retry_after_ms) + "}";
}

/// Best-effort id echo for requests that fail before query parsing.
std::int64_t id_of(const JsonValue* v) {
  if (v == nullptr || !v->is_object()) return 0;
  const JsonValue* id = v->find("id");
  if (id == nullptr || !id->is_number() || !id->as_int().has_value()) return 0;
  return *id->as_int() >= 0 ? *id->as_int() : 0;
}

}  // namespace

std::string ServerCore::stats_line(std::int64_t id) const {
  std::ostringstream os;
  metrics::JsonWriter w(os, metrics::JsonWriter::Style::kCompact);
  w.begin_object();
  w.kv("id", static_cast<std::int64_t>(id));
  w.kv("ok", true);
  w.kv("control", "stats");
  w.key("caches");
  w.begin_array();
  for (const CacheStats& s : caches_->stats()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("insertions", s.insertions);
    w.kv("evictions", s.evictions);
    w.kv("rejected", s.rejected);
    w.kv("entries", static_cast<std::uint64_t>(s.entries));
    w.kv("bytes", static_cast<std::uint64_t>(s.bytes));
    w.kv("capacity_bytes", static_cast<std::uint64_t>(s.capacity_bytes));
    w.end_object();
  }
  w.end_array();
  // Process-wide solver counters: every Network destroyed so far (cells and
  // coupled runs alike) folded its counts into the global registry. The
  // stats barrier means no query is mid-flight when this snapshot is taken.
  const net::SolverStats solver = net::SolverStatsRegistry::global().snapshot();
  w.key("solver");
  w.begin_object();
  w.kv("reallocations", solver.reallocations);
  w.kv("reference_solves", solver.reference_solves);
  w.kv("full_solves", solver.full_solves);
  w.kv("incremental_events", solver.incremental_events);
  w.kv("no_work_events", solver.no_work_events);
  w.kv("component_solves", solver.component_solves);
  w.key("fallbacks");
  w.begin_object();
  w.kv("first", solver.fallback_first);
  w.kv("link_state", solver.fallback_link_state);
  w.kv("noise", solver.fallback_noise);
  w.kv("config", solver.fallback_config);
  w.kv("threshold", solver.fallback_threshold);
  w.end_object();
  w.key("component_size_log2");
  w.begin_array();
  for (const std::uint64_t count : solver.component_size_log2) w.value(count);
  w.end_array();
  w.end_object();
  // Server load counters (serve/server.hpp). Like cache counters these are
  // stats-only: scenario responses never carry them.
  const ServerCounters c = counters();
  w.key("server");
  w.begin_object();
  w.kv("answered", c.answered);
  w.kv("shed_overload", c.shed_overload);
  w.kv("shed_deadline", c.shed_deadline);
  w.kv("parse_errors", c.parse_errors);
  w.kv("line_overflows", c.line_overflows);
  w.kv("connections_accepted", c.connections_accepted);
  w.kv("connections_closed", c.connections_closed);
  w.kv("connections_dropped", c.connections_dropped);
  w.end_object();
  // Merged latency histograms, present only when observability is on (the
  // stats document is load-dependent either way, so this breaks nothing).
  if (obs_ != nullptr) {
    const LatencyStats ls = obs_->latency();
    w.key("latency");
    w.begin_object();
    for (int st = 0; st < kStageCount; ++st) {
      w.key((std::string(stage_name(static_cast<Stage>(st))) + "_us").c_str());
      w.begin_object();
      w.kv("count", ls.stage[st].count);
      w.kv("p50", ls.stage[st].p50_us);
      w.kv("p90", ls.stage[st].p90_us);
      w.kv("p99", ls.stage[st].p99_us);
      w.kv("max", ls.stage[st].max_us);
      w.end_object();
    }
    w.kv("log_records", ls.log_records);
    w.kv("log_dropped", ls.log_dropped);
    w.kv("log_rotations", ls.log_rotations);
    w.kv("spans", ls.spans);
    w.kv("spans_dropped", ls.spans_dropped);
    w.end_object();
  }
  w.end_object();
  return os.str();
}

std::string ServerCore::metrics_line(std::int64_t id) const {
  // The Prometheus document rides inside the JSON-lines protocol as one
  // escaped string field; tools/gpucomm_jsonv --prom validates the unescaped
  // text, and --serve-metrics-file writes the same bytes to disk.
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"control\":\"metrics\",\"prometheus\":\"" +
         metrics::json_escape(prometheus_text()) + "\"}";
}

std::string ServerCore::prometheus_text() const {
  std::ostringstream os;
  const ServerCounters c = counters();
  os << "# HELP gpucomm_serve_answered_total Scenario responses delivered (ok or error).\n"
     << "# TYPE gpucomm_serve_answered_total counter\n"
     << "gpucomm_serve_answered_total " << c.answered << "\n";
  os << "# TYPE gpucomm_serve_shed_total counter\n"
     << "gpucomm_serve_shed_total{reason=\"overload\"} " << c.shed_overload << "\n"
     << "gpucomm_serve_shed_total{reason=\"deadline\"} " << c.shed_deadline << "\n";
  os << "# TYPE gpucomm_serve_parse_errors_total counter\n"
     << "gpucomm_serve_parse_errors_total " << c.parse_errors << "\n";
  os << "# TYPE gpucomm_serve_line_overflows_total counter\n"
     << "gpucomm_serve_line_overflows_total " << c.line_overflows << "\n";
  os << "# TYPE gpucomm_serve_connections_total counter\n"
     << "gpucomm_serve_connections_total{event=\"accepted\"} " << c.connections_accepted
     << "\n"
     << "gpucomm_serve_connections_total{event=\"closed\"} " << c.connections_closed
     << "\n"
     << "gpucomm_serve_connections_total{event=\"dropped\"} " << c.connections_dropped
     << "\n";
  for (const CacheStats& cs : caches_->stats()) {
    os << "gpucomm_serve_cache_hits_total{cache=\"" << cs.name << "\"} " << cs.hits
       << "\n"
       << "gpucomm_serve_cache_misses_total{cache=\"" << cs.name << "\"} " << cs.misses
       << "\n"
       << "gpucomm_serve_cache_evictions_total{cache=\"" << cs.name << "\"} "
       << cs.evictions << "\n"
       << "gpucomm_serve_cache_entries{cache=\"" << cs.name << "\"} " << cs.entries
       << "\n"
       << "gpucomm_serve_cache_bytes{cache=\"" << cs.name << "\"} " << cs.bytes << "\n";
  }
  const net::SolverStats solver = net::SolverStatsRegistry::global().snapshot();
  os << "# TYPE gpucomm_solver_full_solves_total counter\n"
     << "gpucomm_solver_full_solves_total " << solver.full_solves << "\n"
     << "gpucomm_solver_reallocations_total " << solver.reallocations << "\n";
  if (obs_ != nullptr) {
    os << "# TYPE gpucomm_serve_latency_us summary\n";
    for (int st = 0; st < kStageCount; ++st) {
      const metrics::Log2Histogram h = obs_->merged(static_cast<Stage>(st));
      const char* stage = stage_name(static_cast<Stage>(st));
      const double qs[] = {0.5, 0.9, 0.99};
      const char* qn[] = {"0.5", "0.9", "0.99"};
      for (int i = 0; i < 3; ++i) {
        os << "gpucomm_serve_latency_us{stage=\"" << stage << "\",quantile=\"" << qn[i]
           << "\"} " << metrics::json_number(h.quantile(qs[i]) / 1000.0) << "\n";
      }
      os << "gpucomm_serve_latency_us_sum{stage=\"" << stage << "\"} "
         << metrics::json_number(static_cast<double>(h.sum()) / 1000.0) << "\n"
         << "gpucomm_serve_latency_us_count{stage=\"" << stage << "\"} " << h.count()
         << "\n";
    }
    const LatencyStats ls = obs_->latency();
    os << "# TYPE gpucomm_serve_log_records_total counter\n"
       << "gpucomm_serve_log_records_total " << ls.log_records << "\n"
       << "gpucomm_serve_log_dropped_total " << ls.log_dropped << "\n"
       << "gpucomm_serve_spans_total " << ls.spans << "\n"
       << "gpucomm_serve_spans_dropped_total " << ls.spans_dropped << "\n";
  }
  return os.str();
}

std::string ServerCore::shutdown_line(std::int64_t id) const {
  // Hand-built like the other scenario-path lines (the substring
  // "control":"shutdown" is pinned by tests and smoke scripts). drained and
  // shed give clients the final tally without a separate stats round-trip.
  const ServerCounters c = counters();
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"control\":\"shutdown\",\"drained\":" +
         std::to_string(c.answered) + ",\"shed\":" +
         std::to_string(c.shed_overload + c.shed_deadline) + "}";
}

// --- ServerCore -------------------------------------------------------------

ServerCore::ServerCore(const ServeOptions& options, bool always_pool)
    : options_(options) {
  if (options_.caches != nullptr) {
    caches_ = options_.caches;
  } else {
    owned_caches_ = std::make_unique<ServerCaches>(options_.cache_bytes);
    caches_ = owned_caches_.get();
  }
  const int pool_size = always_pool ? std::max(1, options_.jobs)
                                    : (options_.jobs > 1 ? options_.jobs : 0);
  if (options_.obs.enabled()) {
    // Lane layout: workers 0..pool_size-1, transport thread (also the
    // inline-execution path) on the last lane.
    obs_ = std::make_unique<Obs>(options_.obs, pool_size + 1);
  }
  for (int i = 0; i < pool_size; ++i) {
    threads_.emplace_back([this, i] { worker(i); });
  }
}

ServerCore::~ServerCore() { drain(); }

void ServerCore::drain() {
  if (drained_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  if (obs_ != nullptr) {
    // Structured final tally (the machine-readable sibling of the stderr
    // "serve drained" line), then flush the ring, write the trace, and
    // refresh the metrics snapshot. This runs on every exit path — EOF,
    // shutdown control, and the socket transport's SIGTERM drain — so a
    // terminated server still flushes its observability artifacts.
    const ServerCounters c = counters();
    std::string final_record;
    if (obs_->want_events()) {
      final_record = EventRecord(obs_->ts_us(), "serve_drained")
                         .field("answered", c.answered)
                         .field("shed", c.shed_overload + c.shed_deadline)
                         .field("parse_errors", c.parse_errors)
                         .field("line_overflows", c.line_overflows)
                         .field("log_dropped", obs_->latency().log_dropped)
                         .str();
    }
    obs_->finalize(final_record,
                   obs_->want_metrics_file() ? prometheus_text() : std::string());
  }
}

LatencyStats ServerCore::latency_stats() const {
  return obs_ != nullptr ? obs_->latency() : LatencyStats{};
}

ServerCounters ServerCore::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

ServerCore::LineAction ServerCore::handle_line(
    const std::shared_ptr<OrderedWriter>& writer, std::uint64_t seq,
    const std::string& line, bool deferred_controls) {
  Obs* obs = obs_.get();
  const std::uint64_t t_parse0 = obs != nullptr ? obs->now_ns() : 0;
  // Parse-stage accounting on the transport lane: every request line is
  // parsed exactly once, success or not.
  const auto note_parse = [&](std::int64_t id) {
    if (obs == nullptr) return;
    const std::uint64_t t1 = obs->now_ns();
    obs->record(obs->transport_lane(), Stage::kParse, t1 - t_parse0);
    if (obs->want_spans()) {
      obs->span("parse", obs->transport_lane(), id, seq, t_parse0, t1);
    }
  };
  std::string perr;
  const std::optional<JsonValue> doc = parse_json(line, perr);
  if (!doc.has_value()) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.parse_errors;
    }
    note_parse(0);
    if (obs != nullptr && obs->want_events()) {
      obs->event(EventRecord(obs->ts_us(), "parse_error")
                     .field("seq", seq)
                     .field("error", perr)
                     .str());
    }
    writer->deliver(seq, error_line(0, perr));
    return LineAction::kContinue;
  }
  const JsonValue* control = doc->is_object() ? doc->find("control") : nullptr;
  if (control != nullptr) {
    const std::int64_t id = id_of(&*doc);
    const std::string kind = control->is_string() ? control->as_string() : "";
    note_parse(id);
    if (kind != "ping" && kind != "stats" && kind != "metrics" && kind != "shutdown") {
      writer->deliver(seq,
                      error_line(id, "unknown control (ping|stats|metrics|shutdown)"));
      return LineAction::kContinue;
    }
    if (kind == "ping") {
      // Static content, and deliver() already orders it after everything
      // earlier — no barrier machinery needed.
      writer->deliver(seq, ping_line(id));
      return LineAction::kContinue;
    }
    if (!deferred_controls) {
      // Blocking barrier (stdio): park the read thread until every earlier
      // response is out, then render against the settled state.
      writer->wait_until(seq);
      if (kind == "stats") {
        writer->deliver(seq, stats_line(id));
        return LineAction::kContinue;
      }
      if (kind == "metrics") {
        writer->deliver(seq, metrics_line(id));
        return LineAction::kContinue;
      }
      writer->deliver(seq, shutdown_line(id));
      drain_flag_.store(true);
      return LineAction::kShutdown;
    }
    // Non-blocking barrier (socket poll thread): the renderer runs when the
    // writer reaches this sequence number — i.e. after every earlier query
    // on this connection has been answered.
    if (kind == "stats") {
      writer->defer(seq, [this, id] { return stats_line(id); });
      return LineAction::kContinue;
    }
    if (kind == "metrics") {
      writer->defer(seq, [this, id] { return metrics_line(id); });
      return LineAction::kContinue;
    }
    writer->defer(seq, [this, id] {
      drain_flag_.store(true);
      return shutdown_line(id);
    });
    return LineAction::kShutdown;  // stop reading; draining starts at render
  }
  std::string qerr;
  std::optional<ScenarioQuery> q = parse_query(*doc, qerr);
  if (!q.has_value()) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.parse_errors;
    }
    note_parse(id_of(&*doc));
    if (obs != nullptr && obs->want_events()) {
      obs->event(EventRecord(obs->ts_us(), "parse_error")
                     .field("id", id_of(&*doc))
                     .field("seq", seq)
                     .field("error", qerr)
                     .str());
    }
    writer->deliver(seq, error_line(id_of(&*doc), qerr));
    return LineAction::kContinue;
  }
  note_parse(q->id);
  submit(writer, seq, std::move(*q), line);
  return LineAction::kContinue;
}

void ServerCore::answer_line_overflow(const std::shared_ptr<OrderedWriter>& writer,
                                      std::uint64_t seq) {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.line_overflows;
  }
  writer->deliver(seq, error_line(0, "request line exceeds --serve-max-line-bytes (" +
                                         std::to_string(options_.max_line_bytes) +
                                         ")"));
}

void ServerCore::note_connection_accepted() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_accepted;
  }
  if (obs_ != nullptr && obs_->want_events()) {
    obs_->event(EventRecord(obs_->ts_us(), "conn_open").str());
  }
}

void ServerCore::note_connection_closed() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_closed;
  }
  if (obs_ != nullptr && obs_->want_events()) {
    obs_->event(EventRecord(obs_->ts_us(), "conn_close").str());
  }
}

void ServerCore::note_connection_dropped() {
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_dropped;
  }
  if (obs_ != nullptr && obs_->want_events()) {
    obs_->event(EventRecord(obs_->ts_us(), "conn_drop").str());
  }
}

void ServerCore::submit(const std::shared_ptr<OrderedWriter>& writer,
                        std::uint64_t seq, ScenarioQuery query,
                        const std::string& line) {
  Obs* obs = obs_.get();
  Job job;
  job.writer = writer;
  job.seq = seq;
  job.deadline_ms = query.deadline_ms > 0 ? query.deadline_ms : options_.deadline_ms;
  job.query = std::move(query);
  job.admitted = std::chrono::steady_clock::now();
  if (obs != nullptr) {
    job.obs_admit_ns = obs->now_ns();
    if (obs->want_slow_queries()) job.raw_line = line;
    if (obs->want_events()) {
      obs->event(EventRecord(obs->ts_us(), "admit")
                     .field("id", job.query.id)
                     .field("seq", seq)
                     .str());
    }
  }
  if (threads_.empty()) {
    // Inline mode (stdio, jobs <= 1): no queue, so nothing to bound and no
    // queue wait to budget — run immediately on the transport lane.
    run_job(job, obs != nullptr ? obs->transport_lane() : 0);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (options_.max_queue > 0 &&
        queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      const std::size_t depth = queue_.size();
      lock.unlock();
      {
        const std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.shed_overload;
      }
      const std::int64_t hint = retry_hint_ms(depth);
      if (obs != nullptr && obs->want_events()) {
        obs->event(EventRecord(obs->ts_us(), "shed_overload")
                       .field("id", job.query.id)
                       .field("seq", seq)
                       .field("depth", static_cast<std::uint64_t>(depth))
                       .field("retry_after_ms", hint)
                       .str());
      }
      writer->deliver(seq, overloaded_line(job.query.id, hint));
      return;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void ServerCore::run_job(const Job& job, int lane) {
  Obs* obs = obs_.get();
  if (obs != nullptr) {
    const std::uint64_t now = obs->now_ns();
    const std::uint64_t waited =
        now > job.obs_admit_ns ? now - job.obs_admit_ns : 0;
    obs->record(lane, Stage::kQueueWait, waited);
    if (obs->want_spans()) {
      obs->span("queue_wait", lane, job.query.id, job.seq, job.obs_admit_ns, now);
    }
  }
  if (job.deadline_ms > 0) {
    const auto waited = std::chrono::steady_clock::now() - job.admitted;
    if (waited >= std::chrono::milliseconds(job.deadline_ms)) {
      {
        const std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.shed_deadline;
      }
      if (obs != nullptr && obs->want_events()) {
        obs->event(
            EventRecord(obs->ts_us(), "deadline_miss")
                .field("id", job.query.id)
                .field("seq", job.seq)
                .field("waited_ms",
                       std::chrono::duration<double, std::milli>(waited).count())
                .str());
      }
      job.writer->deliver(job.seq, error_line(job.query.id, "deadline"));
      return;
    }
  }
  const auto started = std::chrono::steady_clock::now();
  ScenarioObs sobs;
  net::SolverStats solver_before;
  const bool slow_on = obs != nullptr && obs->want_slow_queries();
  if (slow_on) solver_before = net::SolverStatsRegistry::global().snapshot();
  std::string line =
      answer(job.query, *caches_, obs, lane, job.seq, obs != nullptr ? &sobs : nullptr);
  const std::chrono::duration<double, std::milli> took =
      std::chrono::steady_clock::now() - started;
  note_job_ms(took.count());
  {
    // Counted before delivery: a deferred shutdown directly behind this
    // response renders inside the deliver() call and reads the tally.
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.answered;
  }
  const std::uint64_t t_flush0 = obs != nullptr ? obs->now_ns() : 0;
  job.writer->deliver(job.seq, std::move(line));
  if (obs != nullptr) {
    const std::uint64_t t_flush1 = obs->now_ns();
    const std::uint64_t e2e_ns =
        t_flush1 > job.obs_admit_ns ? t_flush1 - job.obs_admit_ns : 0;
    obs->record(lane, Stage::kE2e, e2e_ns);
    if (obs->want_spans()) {
      obs->span("flush", lane, job.query.id, job.seq, t_flush0, t_flush1);
      obs->span("e2e", lane, job.query.id, job.seq, job.obs_admit_ns, t_flush1);
    }
    const double e2e_ms = static_cast<double>(e2e_ns) / 1e6;
    if (obs->want_events()) {
      obs->event(EventRecord(obs->ts_us(), "flush")
                     .field("id", job.query.id)
                     .field("seq", job.seq)
                     .field("e2e_ms", e2e_ms)
                     .str());
      if (slow_on && obs->slow(e2e_ms)) {
        // Everything needed to explain the tail: the verbatim query, which
        // cache layers hit, and what the solver did. The SolverStats delta
        // is process-wide, so under concurrency it can include work from
        // overlapping queries — an attribution hint, not an exact ledger.
        const net::SolverStats after = net::SolverStatsRegistry::global().snapshot();
        obs->event(
            EventRecord(obs->ts_us(), "slow_query")
                .field("id", job.query.id)
                .field("seq", job.seq)
                .field("e2e_ms", e2e_ms)
                .field("line", job.raw_line)
                .field("caches", sobs.chain())
                .field("full_solves", after.full_solves - solver_before.full_solves)
                .field("reference_solves",
                       after.reference_solves - solver_before.reference_solves)
                .field("reallocations",
                       after.reallocations - solver_before.reallocations)
                .str());
      }
    }
  }
  maybe_metrics_file();
}

void ServerCore::worker(int lane) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job, lane);
  }
}

std::int64_t ServerCore::retry_hint_ms(std::size_t depth) const {
  double per_job_ms;
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    per_job_ms = have_job_sample_ ? ewma_job_ms_ : 50.0;
  }
  const int workers = std::max<int>(1, static_cast<int>(threads_.size()));
  const double hint = per_job_ms * static_cast<double>(depth) / workers;
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(hint), 1, 60'000);
}

void ServerCore::note_job_ms(double ms) {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  if (!have_job_sample_) {
    ewma_job_ms_ = ms;
    have_job_sample_ = true;
  } else {
    ewma_job_ms_ = 0.8 * ewma_job_ms_ + 0.2 * ms;
  }
}

void ServerCore::maybe_metrics_file() {
  if (obs_ == nullptr || !obs_->want_metrics_file() || obs_->metrics_every() <= 0) return;
  std::uint64_t answered;
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    answered = counters_.answered;
  }
  if (answered % static_cast<std::uint64_t>(obs_->metrics_every()) != 0) return;
  obs_->write_metrics_file(prometheus_text());
}

}  // namespace gpucomm::serve
