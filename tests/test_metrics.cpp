// Metrics layer: deterministic JSON emission, time-series bucket
// conservation against CounterSet, exact critical-path attribution, and
// byte-identical run manifests across same-seed runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/metrics/histogram.hpp"
#include "gpucomm/metrics/json.hpp"
#include "gpucomm/metrics/profile_report.hpp"
#include "gpucomm/metrics/profiler.hpp"
#include "gpucomm/metrics/run_manifest.hpp"
#include "gpucomm/metrics/timeseries.hpp"
#include "gpucomm/metrics/version.hpp"
#include "gpucomm/serve/json_value.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/telemetry/counters.hpp"
#include "gpucomm/telemetry/sink.hpp"

namespace gpucomm {
namespace {

// ---------------------------------------------------------------------------
// JSON writer / validator.

TEST(MetricsJson, WriterProducesValidStructures) {
  std::ostringstream os;
  metrics::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "he said \"hi\"\n\t\\");
  w.kv("count", std::int64_t{-7});
  w.kv("ratio", 0.1);
  w.key("nested").begin_array();
  w.value(true);
  w.null();
  w.begin_object().kv("k", 1e-300).end_object();
  w.end_array();
  w.end_object();

  std::string err;
  EXPECT_TRUE(serve::parse_json(os.str(), err).has_value()) << err << "\n" << os.str();
  EXPECT_NE(os.str().find("\\\"hi\\\""), std::string::npos);
}

TEST(MetricsJson, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  metrics::JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  std::string err;
  EXPECT_TRUE(serve::parse_json(os.str(), err).has_value()) << err;
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(MetricsJson, NumberRoundTripsShortestForm) {
  EXPECT_EQ(metrics::json_number(0.1), "0.1");
  EXPECT_EQ(metrics::json_number(0.0), "0");
  EXPECT_EQ(metrics::json_number(-2.5), "-2.5");
}

// ---------------------------------------------------------------------------
// Cluster-level fixtures: a small Leonardo CCL allreduce with sinks attached.

struct MeteredRun {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<telemetry::CounterSet> counters;
  std::unique_ptr<metrics::TimeSeries> timeseries;
  std::unique_ptr<metrics::ScheduleProfiler> profiler;
  telemetry::MultiSink sinks;
  SimTime elapsed;

  explicit MeteredRun(Bytes bytes = 1_MiB, int gpus = 4) {
    const SystemConfig cfg = system_by_name("leonardo");
    cluster = std::make_unique<Cluster>(cfg, ClusterOptions{});
    counters = std::make_unique<telemetry::CounterSet>(cluster->graph());
    timeseries =
        std::make_unique<metrics::TimeSeries>(cluster->graph(), microseconds(5));
    profiler = std::make_unique<metrics::ScheduleProfiler>();
    sinks.add(counters.get());
    sinks.add(timeseries.get());
    sinks.add(profiler.get());
    cluster->set_telemetry(&sinks);

    CommOptions opt;
    opt.env = cfg.tuned_env();
    CclComm comm(*cluster, first_n_gpus(*cluster, gpus), opt);
    elapsed = comm.time_allreduce(bytes);
    const SimTime now = cluster->engine().now();
    counters->finalize(now);
    timeseries->finalize(now);
  }
};

TEST(MetricsTimeSeries, BucketBitsConserveCounterSetIntegrals) {
  MeteredRun run;
  const Graph& g = run.cluster->graph();
  bool any_traffic = false;
  for (LinkId l = 0; l < static_cast<LinkId>(g.link_count()); ++l) {
    const double counter_bits = run.counters->link(l).bits;
    const double bucket_bits = run.timeseries->link_bits(l);
    // Same integral, split across buckets: only FP re-association differs.
    const double tol = 1e-6 * std::max(1.0, counter_bits);
    EXPECT_NEAR(bucket_bits, counter_bits, tol) << "link " << l;
    if (counter_bits > 0) any_traffic = true;
  }
  ASSERT_TRUE(any_traffic);
}

TEST(MetricsTimeSeries, DemandNeverBelowAllocatedAndExportsAreValid) {
  MeteredRun run;
  const Graph& g = run.cluster->graph();
  for (LinkId l = 0; l < static_cast<LinkId>(g.link_count()); ++l) {
    for (const auto& b : run.timeseries->link_buckets(l)) {
      EXPECT_GE(b.demand_bits, b.bits - 1e-6);
      EXPECT_GE(b.peak_active, b.bits > 0 ? 1 : 0);
    }
  }
  std::ostringstream json;
  metrics::JsonWriter w(json);
  run.timeseries->write_json(w);
  std::string err;
  EXPECT_TRUE(serve::parse_json(json.str(), err).has_value()) << err;

  std::ostringstream csv, heat;
  run.timeseries->write_csv(csv);
  run.timeseries->render_heatmap(heat);
  EXPECT_NE(csv.str().find("link,src,dst,bucket"), std::string::npos);
  EXPECT_NE(heat.str().find("heatmap"), std::string::npos);
}

TEST(MetricsProfiler, AttributionSumsExactlyToEndToEnd) {
  MeteredRun run;
  const auto ops = run.profiler->build();
  ASSERT_FALSE(ops.empty());
  for (const auto& op : ops) {
    // Category totals partition the operation window to the picosecond.
    SimTime sum = SimTime::zero();
    for (const auto& s : op.spans) sum = sum + s.total;
    EXPECT_EQ(sum.ps, op.duration().ps) << op.op;
    // And within each category the components partition the total.
    for (const auto& s : op.spans) {
      const std::int64_t parts = s.serialization.ps + s.contention.ps +
                                 s.propagation.ps + s.recovery.ps + s.overhead.ps;
      EXPECT_EQ(parts, s.total.ps) << op.op << " " << s.kind << " " << s.round;
      EXPECT_GE(s.serialization.ps, 0);
      EXPECT_GE(s.contention.ps, 0);
      EXPECT_GE(s.propagation.ps, 0);
      EXPECT_GE(s.recovery.ps, 0);
      EXPECT_GE(s.overhead.ps, 0);
    }
  }
  // The report renders and declares a zero-ps delta.
  std::ostringstream report;
  metrics::print_profile(report, ops, &run.cluster->graph());
  EXPECT_NE(report.str().find("delta 0 ps"), std::string::npos) << report.str();
}

TEST(MetricsProfiler, RoundSpansCoverScheduleRounds) {
  MeteredRun run;
  const auto ops = run.profiler->build();
  ASSERT_FALSE(ops.empty());
  int rounds = 0;
  for (const auto& s : ops.front().spans) {
    if (s.kind == "round") {
      ++rounds;
      EXPECT_GE(s.attempts, 1);
      EXPECT_GE(s.src, 0);
      EXPECT_GE(s.dst, 0);
    }
  }
  EXPECT_GE(rounds, 1);
}

TEST(MetricsProfiler, DisabledProfilerRecordsNothing) {
  const SystemConfig cfg = system_by_name("leonardo");
  Cluster cluster(cfg, ClusterOptions{});
  metrics::ScheduleProfiler profiler;
  profiler.set_enabled(false);
  cluster.set_telemetry(&profiler);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  CclComm comm(cluster, first_n_gpus(cluster, 4), opt);
  comm.time_allreduce(64_KiB);
  EXPECT_TRUE(profiler.build().empty());
}

TEST(MetricsProfiler, ProfilerAttachmentDoesNotMoveSimulatedTime) {
  const SimTime with = MeteredRun(256_KiB).elapsed;

  const SystemConfig cfg = system_by_name("leonardo");
  Cluster cluster(cfg, ClusterOptions{});
  CommOptions opt;
  opt.env = cfg.tuned_env();
  CclComm comm(cluster, first_n_gpus(cluster, 4), opt);
  EXPECT_EQ(comm.time_allreduce(256_KiB).ps, with.ps);
}

// ---------------------------------------------------------------------------
// Run manifest.

metrics::RunManifest sample_manifest(const MeteredRun& run) {
  metrics::RunManifest m;
  m.version = metrics::build_version();
  m.system = "leonardo";
  m.op = "allreduce";
  m.mechanism = "ccl";
  m.placement = "packed";
  m.space = "device";
  m.gpus = 4;
  m.nodes = 1;
  m.iters = 3;
  m.seed = 42;
  metrics::RunManifest::Result r;
  r.bytes = 1_MiB;
  r.iterations = 3;
  r.latency_us = summarize({10.0, 11.0, 12.0});
  r.goodput_gbps = summarize({800.0, 810.0, 790.0});
  m.results.push_back(r);
  (void)run;
  return m;
}

TEST(MetricsManifest, JsonIsValidAndCarriesAllSections) {
  MeteredRun run;
  const metrics::RunManifest m = sample_manifest(run);
  std::ostringstream os;
  metrics::write_manifest(os, m, run.profiler.get(), run.timeseries.get(),
                          run.counters.get());
  const std::string doc = os.str();
  std::string err;
  ASSERT_TRUE(serve::parse_json(doc, err).has_value()) << err;
  for (const char* key :
       {"\"tool\"", "\"version\"", "\"config\"", "\"results\"", "\"profile\"",
        "\"timeseries\"", "\"counters\"", "\"median\"", "\"median_ci\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(MetricsManifest, ByteIdenticalAcrossSameSeedRuns) {
  // Two full simulations from scratch; every sink and the manifest writer
  // must produce byte-identical documents (the determinism --metrics-out
  // promises).
  auto render = [] {
    MeteredRun run;
    std::ostringstream os;
    metrics::write_manifest(os, sample_manifest(run), run.profiler.get(),
                            run.timeseries.get(), run.counters.get());
    return os.str();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(MetricsManifest, PlanInfoRecordsWireExactness) {
  const SystemConfig cfg = system_by_name("leonardo");
  Cluster cluster(cfg, ClusterOptions{});
  CommOptions opt;
  opt.env = cfg.tuned_env();
  CclComm comm(cluster, first_n_gpus(cluster, 4), opt);
  const auto plan = metrics::plan_info(1_MiB, comm.plan(CollectiveOp::kAllreduce, 1_MiB));
  EXPECT_EQ(plan.bytes, 1_MiB);
  ASSERT_FALSE(plan.schedules.empty());
  for (const auto& s : plan.schedules) {
    EXPECT_FALSE(s.algorithm.empty());
    EXPECT_GE(s.rounds, 1);
  }
}

TEST(MetricsVersion, BuildVersionIsNonEmpty) {
  EXPECT_NE(std::string(metrics::build_version()), "");
}

// ---------------------------------------------------------------------------
// Log2Histogram (serve latency accounting).

TEST(Log2Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(metrics::Log2Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(Log2Histogram, EmptyReportsZeros) {
  metrics::Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Log2Histogram, QuantilesClampToExactExtrema) {
  metrics::Log2Histogram h;
  for (std::uint64_t v : {37u, 100u, 1000u, 5000u, 5000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 37u + 100u + 1000u + 5000u + 5000u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_EQ(h.quantile(0.0), 37.0);
  EXPECT_EQ(h.quantile(1.0), 5000.0);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 37.0);
  EXPECT_LE(p50, 5000.0);
}

TEST(Log2Histogram, MergeIsExactAndWorkerCountInvariant) {
  // The same value stream sharded across 1, 3, and 7 "workers" must merge
  // to identical histograms — that is what makes the server's merged
  // quantiles independent of --serve-jobs.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back(x >> (x % 48));
  }
  auto sharded = [&](int workers) {
    std::vector<metrics::Log2Histogram> shards(static_cast<std::size_t>(workers));
    for (std::size_t i = 0; i < values.size(); ++i) {
      shards[i % static_cast<std::size_t>(workers)].record(values[i]);
    }
    metrics::Log2Histogram merged;
    for (const auto& s : shards) merged.merge(s);
    return merged;
  };
  const metrics::Log2Histogram one = sharded(1);
  for (int workers : {3, 7}) {
    const metrics::Log2Histogram m = sharded(workers);
    EXPECT_EQ(m.count(), one.count()) << workers;
    EXPECT_EQ(m.sum(), one.sum()) << workers;
    EXPECT_EQ(m.min(), one.min()) << workers;
    EXPECT_EQ(m.max(), one.max()) << workers;
    for (std::size_t b = 0; b < metrics::Log2Histogram::kBuckets; ++b) {
      EXPECT_EQ(m.bucket_count(b), one.bucket_count(b)) << workers << " bucket " << b;
    }
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(m.quantile(q), one.quantile(q)) << workers << " q " << q;
    }
  }
}

TEST(Log2Histogram, ResetClearsEverything) {
  metrics::Log2Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

}  // namespace
}  // namespace gpucomm
