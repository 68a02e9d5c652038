// Strict command-line parsing for the microbenchmark driver.
//
// parse_cli validates every flag up front — unknown flags, missing values,
// non-numeric or out-of-range numbers, and unknown system/op/mechanism/
// placement names all fail with a single-line diagnostic instead of being
// silently coerced (std::atoi("abc") == 0) into a bogus experiment. The
// driver prints the diagnostic and exits non-zero; tests drive the parser
// directly with argv arrays.
#pragma once

#include <optional>
#include <string>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/mem/buffer.hpp"
#include "gpucomm/sim/units.hpp"

namespace gpucomm::cli {

/// Shared flag vocabulary, reused by the serve query parser so the two
/// surfaces can never drift apart.
bool known_op(const std::string& name);
bool known_mechanism(const std::string& name);
/// packed|switches|groups. Returns false on an unknown name.
bool parse_placement_name(const std::string& name, Placement& out);
const char* placement_name(Placement p);

struct CliArgs {
  std::string system = "leonardo";
  std::string op = "pingpong";
  std::string mechanism = "mpi";
  int gpus = 2;
  Bytes min_bytes = 1;
  Bytes max_bytes = 1_GiB;
  MemSpace space = MemSpace::kDevice;
  bool tuned = true;
  int service_level = 0;
  Placement placement = Placement::kPacked;
  int iters = 0;  // 0 = auto per size
  std::string trace_path;  // empty = no trace
  bool counters = false;
  bool dump_schedule = false;
  /// Fault schedule: a file path, or an inline spec with ';' separating
  /// events ("at 100us down link 4; at 300us up link 4"). Empty = no faults.
  std::string faults;
  /// Print the critical-path breakdown (metrics::ScheduleProfiler) after
  /// the results table.
  bool profile = false;
  /// Write a metrics::RunManifest JSON artifact here. Empty = none.
  std::string metrics_out;
  /// Write the per-link time-series CSV here (and print the congestion
  /// heatmap). Empty = no time series.
  std::string timeseries_path;
  /// Time-series bucket width in microseconds (used when timeseries_path,
  /// metrics_out, or profile enables sampling).
  int bucket_us = 50;
  /// Cluster RNG seed (noise field); the default matches ClusterOptions.
  std::uint64_t seed = 42;
  /// Worker count for the deterministic cell harness (harness/parallel.hpp).
  /// Only meaningful when jobs_given: --jobs switches the driver to cell
  /// mode, where every (size, rep) is an independent simulation with a
  /// derived seed and the output is byte-identical for any N >= 1. Without
  /// the flag the driver keeps the coupled serial run (one cluster, one
  /// noise stream across the whole sweep). Rejected at parse time together
  /// with flags that accumulate whole-run state on a single cluster
  /// (--trace/--counters/--profile/--timeseries) or replay absolute-time
  /// events (--faults).
  int jobs = 1;
  bool jobs_given = false;
  /// Disable the production-noise field (ClusterOptions::enable_noise),
  /// modelling a drained system. Maps to the serve query's "noise": false.
  bool noise = true;
  /// Node-count override; 0 derives the count from --gpus. Must be able to
  /// host --gpus ranks (checked against the system's gpus_per_node at run
  /// time, not parse time).
  int nodes = 0;
  /// --serve: run the persistent scenario server (JSON-lines on
  /// stdin/stdout, or on --serve-socket) instead of one experiment. Only the
  /// --serve-* flags may accompany it; every scenario parameter arrives per
  /// query (docs/SERVER.md).
  bool serve = false;
  /// Worker threads answering scenario queries in --serve mode.
  int serve_jobs = 1;
  /// Total cross-query cache budget in MiB, split across the server's
  /// topology/cell-result/response caches.
  int serve_cache_mb = 256;
  /// Unix-domain socket path to listen on instead of stdin/stdout.
  std::string serve_socket;
  /// Default per-query wall-clock budget in ms (0 = none); a query's own
  /// "deadline_ms" field overrides it. Expired-before-start queries answer
  /// {"ok":false,"error":"deadline"}.
  int serve_deadline_ms = 0;
  /// Admission-queue bound; overflow sheds with
  /// {"ok":false,"error":"overloaded","retry_after_ms":N}. 0 = unbounded.
  int serve_max_queue = 1024;
  /// Longest accepted request line in bytes (default 1 MiB).
  std::size_t serve_max_line_bytes = 1u << 20;
  /// --serve-log: structured JSON-lines event log (serve/obs.hpp); empty =
  /// off.
  std::string serve_log;
  /// --serve-log-max-mb: event-log rotation bound in MiB.
  int serve_log_max_mb = 64;
  /// --serve-trace: Chrome-trace span export path; empty = off.
  std::string serve_trace;
  /// --serve-metrics-file: Prometheus text snapshot path; empty = off.
  std::string serve_metrics_file;
  /// --serve-metrics-every: metrics snapshot cadence in answered queries
  /// (0 = only at shutdown).
  int serve_metrics_every = 0;
  /// --serve-slow-ms: slow-query record threshold in ms (0 = off).
  int serve_slow_ms = 0;
  bool help = false;  // --help/-h seen; caller prints usage, exits 0
};

/// Parse and validate argv. Returns the arguments on success; on failure
/// returns nullopt with a one-line description of the first problem in
/// `error`. A --help/-h flag succeeds with CliArgs::help set.
std::optional<CliArgs> parse_cli(int argc, const char* const* argv, std::string& error);

}  // namespace gpucomm::cli
