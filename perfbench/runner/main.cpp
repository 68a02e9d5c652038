// perfbench_runner: runs one benchmark workload in this process and prints
// one JSON line of measurements (see perfbench/README.md).
//
//   perfbench_runner --workload figures|exact_scale|serve_sweep [--seed N]
//                    [--seconds S] [--trace 0|1] [--data DIR] [--max-ops N]
//                    [--trace-file PATH] [--setup-only]
//
// Set-up (constructing the workload) ends at the first op; its end is
// printed as `ready_ns` on the steady clock, so the caller can time set-up
// from before it started the process. Untraced, the runner runs whole
// passes of the workload's op list until --seconds have been measured and
// at least kMinOpSamples op times pooled. Host times are reported divided
// by the host's slowdown, measured by reference slices run between ops
// (speed.hpp); the raw times are reported beside them.
// Traced, it runs one untraced pass, one traced pass, then the routing and
// noise probes on throwaway clusters.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gpucomm/harness/stats.hpp"
#include "gpucomm/metrics/json.hpp"
#include "gpucomm/metrics/version.hpp"
#include "quantile.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gpucomm;

/// The op percentiles pool at least this many op times (two passes of
/// exact_scale's 107 ops).
constexpr std::size_t kMinOpSamples = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "data";
  int max_ops = 0;
  std::string trace_file;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_runner: " << message << "\n"
            << "usage: perfbench_runner --workload figures|exact_scale|serve_sweep [--seed N]"
               " [--seconds S] [--trace 0|1] [--data DIR] [--max-ops N] [--trace-file PATH]"
               " [--setup-only]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--data") {
        o.data_dir = value();
      } else if (arg == "--max-ops") {
        o.max_ops = std::stoi(value());
      } else if (arg == "--trace-file") {
        o.trace_file = value();
      } else if (arg == "--setup-only") {
        o.setup_only = true;
      } else {
        usage("unknown flag '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec + (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// One pass's host time: normalized to the reference speed (see speed.hpp),
/// and as measured, slices included.
struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  double raw_wall_s = 0;
  double raw_cpu_s = 0;
  double slowdown = 1;
};

/// Runs one pass between two slices. The pass's ops stay in `ctx` and its
/// slices in `ctx.meter` until the next pass.
PassResult run_pass(Workload& w, Ctx& ctx) {
  ctx.events = 0;
  ctx.solver.clear();
  ctx.meter.clear();
  const double c0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  {
    Span s(ctx.tracer, "pass");
    ctx.meter.slice();
    w.pass(ctx);
    ctx.meter.slice();
  }
  const Normalized n = ctx.meter.normalize();
  return {n.wall_s, n.cpu_s, (now_ns() - t0) * 1e-9, cpu_seconds() - c0,
          ctx.meter.median_factor()};
}

/// Median slowdown over a few slices run now.
double slowdown_now(Ctx& ctx) {
  ctx.meter.clear();
  for (int i = 0; i < 7; ++i) ctx.meter.slice();
  return ctx.meter.median_factor();
}

double median(std::vector<double> v) { return v.empty() ? 0 : summarize(std::move(v)).median; }

double mean_of(const LayerTotals& t, double scale) {
  return t.count == 0 ? 0 : t.total_s / static_cast<double>(t.count) * scale;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The per-layer metrics of the traced pass plus probes.
Metrics layer_metrics(const Workload& w, const Ctx& ctx, const Tracer& tracer,
                      const PassResult& untraced, const PassResult& traced) {
  const auto totals = tracer.totals();
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  Metrics m;
  m["routing.intra_route_us"] = mean_of(get("routing.intra_route"), 1e6);
  m["noise.resample_ms"] = mean_of(get("noise.resample"), 1e3);
  m["scale.model_us"] = mean_of(get("scale.model"), 1e6);
  m["scale.calls"] = static_cast<double>(get("scale.model").count);
  m["comm.setup_ms"] = mean_of(get("comm.setup"), 1e3);
  m["comm.op_ms"] = mean_of(get("comm.op"), 1e3);
  m["comm.ops"] = static_cast<double>(get("comm.op").count);
  // Builds inside the server are invisible from here; serve_sweep reports
  // the probe's builds of the same shapes instead.
  const LayerTotals builds =
      get("cluster.build").count > 0 ? get("cluster.build") : get("probe.cluster");
  m["cluster.build_ms"] = mean_of(builds, 1e3);
  m["cluster.builds"] = static_cast<double>(builds.count);
  m["sim.events"] = static_cast<double>(ctx.events);
  const double op_s = get("comm.op").total_s;
  m["sim.events_per_s"] = op_s > 0 ? static_cast<double>(ctx.events) / op_s : 0;

  m["comm.coupled_op_s"] = 0;
  w.layers(ctx, m);

  const auto part = [&](const char* name) {
    const auto it = ctx.solver.find(name);
    return it == ctx.solver.end() ? net::SolverStats{} : it->second;
  };
  const net::SolverStats s = ctx.solver.count("cells") ? part("cells") : part("main");
  const auto warm_fallbacks = [](const net::SolverStats& x) {
    return x.warm_fallback_order + x.warm_fallback_tight + x.warm_fallback_progress;
  };
  const auto warm_ratio = [&](const net::SolverStats& x) {
    return ratio(x.warm_hits, x.warm_hits + x.warm_misses + warm_fallbacks(x));
  };
  m["net.reallocations"] = static_cast<double>(s.reallocations);
  m["net.full_solves"] = static_cast<double>(s.full_solves);
  m["net.fallback_threshold"] = static_cast<double>(s.fallback_threshold);
  m["net.incremental_events"] = static_cast<double>(s.incremental_events);
  m["net.no_work_events"] = static_cast<double>(s.no_work_events);
  m["net.component_solves"] = static_cast<double>(s.component_solves);
  m["net.cache_hit_ratio"] = ratio(s.cache_hits, s.component_solves);
  m["net.cache_structural_hits"] = static_cast<double>(s.cache_structural_hits);
  m["net.warm_hit_ratio"] = warm_ratio(s);
  m["net.warm_fallbacks"] = static_cast<double>(warm_fallbacks(s));
  // Host time of the solves over the reallocations they made: the time_*
  // calls outside the coupled point, or the queries on serve_sweep.
  const double solve_s = op_s > 0 ? op_s - m["comm.coupled_op_s"] : get("serve.handle_line").total_s;
  m["net.us_per_reallocation"] =
      s.reallocations == 0 ? 0 : solve_s * 1e6 / static_cast<double>(s.reallocations);
  const net::SolverStats c = part("coupled");
  m["net.coupled_reallocations"] = static_cast<double>(c.reallocations);
  m["net.coupled_cache_hit_ratio"] = ratio(c.cache_hits, c.component_solves);
  m["net.coupled_warm_hit_ratio"] = warm_ratio(c);

  for (const char* name : {"serve.responses_hit_ratio", "serve.topology_hit_ratio",
                           "serve.plans_hit_ratio", "serve.cells_hit_ratio", "serve.evictions",
                           "serve.repeat_us_p50", "serve.near_ms_p50", "serve.fresh_ms_p50",
                           "serve.parse_us_p50", "serve.run_ms_p50", "serve.run_ms_p90",
                           "serve.render_us_p50"}) {
    m.emplace(name, 0.0);  // absent on workloads without a server
  }
  for (const char* name : {"pass", "op", "cluster.build", "comm.setup", "comm.op",
                           "harness.run_iterations", "scale.model", "serve.handle_line"}) {
    m[std::string("self.") + name + "_s"] = get(name).self_s;
  }
  m["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s;
  return m;
}

int run(const Options& o) {
  Ctx ctx(o.data_dir, o.max_ops);
  std::unique_ptr<Workload> w;
  try {
    if (o.workload == "figures") {
      w = make_figures(ctx);
    } else if (o.workload == "exact_scale") {
      w = make_exact_scale(ctx);
    } else if (o.workload == "serve_sweep") {
      w = make_serve_sweep(ctx, o.seed);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: set-up failed: " << e.what() << "\n";
    return 2;
  }
  const std::int64_t ready_ns = now_ns();
  // The host's slowdown right after set-up, by which the caller divides the
  // set-up time.
  const double ready_slowdown = slowdown_now(ctx);

  metrics::JsonWriter out(std::cout, metrics::JsonWriter::Style::kCompact);
  out.begin_object();
  out.kv("workload", o.workload);
  out.kv("ready_ns", static_cast<std::int64_t>(ready_ns));
  out.kv("ready_slowdown", ready_slowdown);
  if (o.setup_only) {
    out.end_object();
    std::cout << std::endl;
    return 0;
  }

  // Untraced passes: whole passes until --seconds have been measured and
  // the op percentiles have kMinOpSamples ops to pool.
  std::vector<PassResult> passes;
  std::vector<double> op_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto collect_ops = [&](bool timed) {
    for (const OpRecord& r : ctx.ops()) {
      if (timed) op_ms.push_back(ctx.meter.normalize_ms(r.start_ns, r.ms));
      failed += r.failed ? 1 : 0;
    }
    attempted += ctx.ops().size();
    ctx.clear_ops();
  };
  double spent = 0;
  const std::size_t min_samples = o.max_ops > 0 ? 0 : kMinOpSamples;
  do {
    passes.push_back(run_pass(*w, ctx));
    spent += passes.back().raw_wall_s;
    collect_ops(true);
  } while (!o.trace && (spent < o.seconds || op_ms.size() < min_samples));

  Metrics layers;
  if (o.trace) {
    Tracer tracer;
    ctx.tracer = &tracer;
    const PassResult traced = run_pass(*w, ctx);
    collect_ops(false);
    {
      Span s(ctx.tracer, "probe");
      w->probe(ctx);
    }
    ctx.tracer = nullptr;
    layers = layer_metrics(*w, ctx, tracer, passes.front(), traced);
    if (!o.trace_file.empty() && !tracer.write_json(o.trace_file)) {
      std::cerr << "perfbench_runner: cannot write " << o.trace_file << "\n";
    }
  }

  // The checks that must stay outside the timed passes count as one op.
  const std::size_t failures_before = ctx.failure_count();
  w->verify(ctx);
  ++attempted;
  if (ctx.failure_count() > failures_before) ++failed;

  std::vector<double> walls, cpus, raw_walls, raw_cpus, slowdowns;
  for (const PassResult& p : passes) {
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    raw_walls.push_back(p.raw_wall_s);
    raw_cpus.push_back(p.raw_cpu_s);
    slowdowns.push_back(p.slowdown);
  }
  std::sort(op_ms.begin(), op_ms.end());
  out.kv("passes", static_cast<std::int64_t>(passes.size()));
  out.kv("ops_per_pass", static_cast<std::int64_t>(op_ms.size() / passes.size()));
  out.kv("attempted", static_cast<std::uint64_t>(attempted));
  out.kv("failed", static_cast<std::uint64_t>(failed));
  out.kv("wall_s", median(walls));
  out.kv("cpu_s", median(cpus));
  out.kv("op_p50_ms", harrell_davis(op_ms, 0.5));
  out.kv("op_p90_ms", harrell_davis(op_ms, 0.9));
  out.kv("raw_wall_s", median(raw_walls));
  out.kv("raw_cpu_s", median(raw_cpus));
  out.kv("slowdown", median(slowdowns));
  out.key("failures").begin_array();
  for (const std::string& f : ctx.failures()) out.value(f);
  out.end_array();
  if (o.trace) {
    out.key("layers").begin_object();
    for (const auto& [name, value] : layers) out.kv(name, value);
    out.end_object();
  }
  out.key("env").begin_object();
  out.kv("host_cpus", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  out.kv("compiler", __VERSION__);
  out.kv("build_type", PERFBENCH_BUILD_TYPE);
  out.kv("version", metrics::build_version());
  out.end_object();
  out.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
