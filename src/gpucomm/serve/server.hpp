// Persistent scenario server: JSON-lines request/response over a stream
// pair (gpucomm_cli --serve wires stdin/stdout; serve/socket.hpp wires a
// unix socket with concurrent connections).
//
// Protocol (docs/SERVER.md):
//   request  = one ScenarioQuery object per line (serve/query.hpp), or a
//              control object
//              {"control": "stats"|"ping"|"metrics"|"shutdown", "id": N}
//   response = one line per request, in request order:
//              {"id":N,"ok":true,"manifest":{...}}           scenario
//              {"id":N,"ok":false,"error":"one line"}        any failure
//              {"id":N,"ok":true,"control":...,...}          control
//
// Responses always come back in request order (per connection on the socket
// path) regardless of --serve-jobs: workers deliver into a sequence-ordered
// writer. Combined with the exact-compare caches holding bit-identical
// values, that gives the determinism contract: the full response stream for
// a given request stream is byte-identical for any worker count and any
// cache state.
//
// Overload and deadline errors are the two structured, load-dependent
// exceptions (serve/core.hpp): a query shed at admission answers
// {"ok":false,"error":"overloaded","retry_after_ms":N} and a query whose
// wall-clock budget expired before a worker reached it answers
// {"ok":false,"error":"deadline"} — explicit degradation instead of
// unbounded queueing or hanging.
//
// Control queries are barriers: they are answered only after every earlier
// request on their connection, so "stats" sees a settled cache state and
// "shutdown" cannot abandon in-flight work. Cache counters are exposed
// ONLY through "stats" — scenario responses never embed them, which is
// what keeps warm and cold response bytes identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "gpucomm/serve/obs.hpp"
#include "gpucomm/serve/scenario.hpp"

namespace gpucomm::serve {

struct ServeOptions {
  /// Worker threads answering scenario queries. On the stdio transport
  /// jobs <= 1 answers inline (no queueing, so no shedding); the socket
  /// transport always uses a pool so the poll loop never blocks on a run.
  int jobs = 1;
  /// Total cache budget in bytes (ServerCaches split). Ignored when
  /// `caches` is supplied.
  std::size_t cache_bytes = 256u << 20;
  /// External cache set to use instead of a loop-local one — the socket
  /// server passes this so caches survive across connections. Optional.
  ServerCaches* caches = nullptr;
  /// Default per-query wall-clock budget in milliseconds (0 = none). The
  /// budget covers queue wait: a query still unstarted when it expires is
  /// answered {"ok":false,"error":"deadline"} instead of running late. A
  /// query's own `deadline_ms` field overrides this default.
  int deadline_ms = 0;
  /// Admission-queue bound: pending (not yet running) scenario queries
  /// beyond this are shed immediately with
  /// {"ok":false,"error":"overloaded","retry_after_ms":N}. 0 = unbounded.
  int max_queue = 1024;
  /// Longest accepted request line in bytes. An overlong line yields one
  /// ok:false response and is otherwise discarded (the socket transport
  /// additionally closes the offending connection).
  std::size_t max_line_bytes = 1u << 20;
  /// Observability (serve/obs.hpp): event log, latency histograms, trace
  /// spans, metrics snapshots. Off by default; zero overhead when off, and
  /// scenario response bytes are identical at any setting.
  ObsOptions obs;
};

/// Monotonic server counters, surfaced through the `stats` control query
/// and ServeResult. Everything here is load-dependent bookkeeping — none of
/// it appears in scenario responses (that would break byte identity).
struct ServerCounters {
  std::uint64_t answered = 0;        // scenario responses delivered (ok or error)
  std::uint64_t shed_overload = 0;   // admission-queue overflow sheds
  std::uint64_t shed_deadline = 0;   // queue-wait deadline sheds
  std::uint64_t parse_errors = 0;    // unparseable JSON / invalid query lines
  std::uint64_t line_overflows = 0;  // request lines over max_line_bytes
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;   // clean EOF closes
  std::uint64_t connections_dropped = 0;  // closed on error/abuse, not EOF
};

struct ServeResult {
  /// Response lines written (every non-blank input line gets exactly one).
  std::size_t answered = 0;
  /// True when the loop ended on a "shutdown" control query rather than
  /// end-of-input; the socket server stops accepting on it.
  bool shutdown = false;
  /// Final counter snapshot (after the worker pool drained).
  ServerCounters counters;
  /// Merged latency histogram snapshot; all zeros when observability is off.
  LatencyStats latency;
};

/// Run the request/response loop until end-of-input or a "shutdown"
/// control query.
ServeResult serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options);

}  // namespace gpucomm::serve
