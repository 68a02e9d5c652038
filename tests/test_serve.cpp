// The scenario server subsystem: strict JSON/query parsing, exact-compare
// bounded caches, and the determinism contract — the same query produces
// byte-identical answers at any cache state and any concurrency, and the
// served manifest equals the standalone CLI artifact by construction.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/serve/cache.hpp"
#include "gpucomm/serve/json_value.hpp"
#include "gpucomm/serve/obs.hpp"
#include "gpucomm/serve/query.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm::serve {
namespace {

// --- JSON DOM parser --------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  std::string err;
  const auto v = parse_json(text, err);
  EXPECT_TRUE(v.has_value()) << err;
  return v.value_or(JsonValue::make_null());
}

/// True when `text` is one strict JSON document.
bool is_json(std::string_view text) {
  std::string err;
  return parse_json(text, err).has_value();
}

TEST(JsonValueParser, ParsesScalarsAndStructure) {
  const JsonValue v = parse_ok(R"({"a": 1, "b": -2.5, "c": "x\nA", "d": [true, null]})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_EQ(v.members()[0].first, "a");  // input order kept
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->as_int().value_or(-1), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_FALSE(v.find("b")->as_int().has_value());  // not integral
  EXPECT_EQ(v.find("c")->as_string(), "x\nA");
  ASSERT_TRUE(v.find("d")->is_array());
  EXPECT_TRUE(v.find("d")->items()[0].as_bool());
  EXPECT_TRUE(v.find("d")->items()[1].is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_TRUE(is_json(R"({"a": [1, 2.5e3, "x"], "b": null})"));
}

TEST(JsonValueParser, ExactInt64RoundTrip) {
  // Bytes and seeds must survive without floating-point loss.
  const JsonValue v = parse_ok(R"({"n": 9007199254740993})");  // 2^53 + 1
  ASSERT_TRUE(v.find("n")->as_int().has_value());
  EXPECT_EQ(*v.find("n")->as_int(), 9007199254740993ll);
}

TEST(JsonValueParser, RejectsMalformedInputWithByteOffset) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "nul", "\"unterminated", "1 2", "{\"a\":1 \"b\":2}",
        "{'a':1}", "+1", "01", "\"\t\"", "", "{\"a\": 1,}", "[1, 2] trailing",
        "{\"a\": 01}", "[NaN]", "[1,", "[1e400]"}) {
    std::string err;
    EXPECT_FALSE(parse_json(bad, err).has_value()) << bad;
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(JsonValueParser, RejectsDuplicateKeys) {
  std::string err;
  EXPECT_FALSE(parse_json(R"({"gpus": 2, "gpus": 4})", err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

// --- query parsing ----------------------------------------------------------

std::optional<ScenarioQuery> query_of(const std::string& text, std::string& err) {
  const auto doc = parse_json(text, err);
  if (!doc.has_value()) return std::nullopt;
  return parse_query(*doc, err);
}

TEST(QueryParse, DefaultsMatchCli) {
  std::string err;
  const auto q = query_of("{}", err);
  ASSERT_TRUE(q.has_value()) << err;
  const cli::CliArgs defaults;
  EXPECT_EQ(q->system, defaults.system);
  EXPECT_EQ(q->op, defaults.op);
  EXPECT_EQ(q->mechanism, defaults.mechanism);
  EXPECT_EQ(q->gpus, defaults.gpus);
  EXPECT_EQ(q->min_bytes, defaults.min_bytes);
  EXPECT_EQ(q->max_bytes, defaults.max_bytes);
  EXPECT_EQ(q->seed, defaults.seed);
  EXPECT_FALSE(q->cells);
  EXPECT_TRUE(q->noise);
}

TEST(QueryParse, FullQueryRoundTrips) {
  std::string err;
  const auto q = query_of(
      R"({"id": 7, "system": "alps", "op": "allreduce", "mechanism": "ccl",
          "gpus": 16, "min": 1024, "max": 1048576, "space": "host",
          "tuned": false, "sl": 3, "placement": "groups", "iters": 7,
          "seed": 9, "noise": false, "nodes": 8, "harness": "cells",
          "metrics_out": "m.json", "deadline_ms": 250})",
      err);
  ASSERT_TRUE(q.has_value()) << err;
  EXPECT_EQ(q->id, 7);
  EXPECT_EQ(q->system, "alps");
  EXPECT_EQ(q->op, "allreduce");
  EXPECT_EQ(q->mechanism, "ccl");
  EXPECT_EQ(q->gpus, 16);
  EXPECT_EQ(q->space, MemSpace::kHost);
  EXPECT_FALSE(q->tuned);
  EXPECT_EQ(q->service_level, 3);
  EXPECT_EQ(q->placement, Placement::kScatterGroups);
  EXPECT_EQ(q->iters, 7);
  EXPECT_EQ(q->seed, 9u);
  EXPECT_FALSE(q->noise);
  EXPECT_EQ(q->nodes, 8);
  EXPECT_TRUE(q->cells);
  EXPECT_EQ(q->metrics_out, "m.json");
  EXPECT_EQ(q->deadline_ms, 250);
}

TEST(QueryParse, StrictRejections) {
  const char* bad[] = {
      R"({"bogus": 1})",                        // unknown field
      R"({"gpus": "four"})",                    // wrong type
      R"({"gpus": 2.5})",                       // non-integral number
      R"({"gpus": 0})",                         // out of range
      R"({"system": "frontier"})",              // unknown system
      R"({"op": "gather"})",                    // unknown op
      R"({"mechanism": "nvshmem"})",            // unknown mechanism
      R"({"placement": "diagonal"})",           // unknown placement
      R"({"space": "unified"})",                // unknown space
      R"({"harness": "parallel"})",             // unknown harness
      R"({"sl": 16})",                          // service level range
      R"({"min": 4096, "max": 1024})",          // min > max
      R"({"seed": -1})",                        // negative seed
      R"({"deadline_ms": -5})",                 // negative deadline
      R"({"deadline_ms": 86400001})",           // deadline over a day
      R"({"deadline_ms": "soon"})",             // wrong deadline type
      R"([1, 2])",                              // not an object
      R"({"harness": "cells", "faults": "at 1us down link 4"})",  // cells+faults
      R"({"net_shards": 4})",                   // removed knob: unknown field
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(query_of(text, err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(QueryParse, MutatedQueriesFailCleanly) {
  // Seeded mutation fuzz of the served query path: byte flips, deletions,
  // insertions and truncations of query lines (the last one is JSON but
  // not a valid query). Every mutant is either a query or a rejection with
  // a one-line message; JSON-level rejections name the byte offset.
  const std::string lines[] = {
      R"({"id": 7, "system": "alps", "op": "allreduce", "mechanism": "ccl", "gpus": 16})",
      R"({"min": 1024, "max": 1048576, "space": "host", "tuned": false, "sl": 3})",
      R"({"op": "alltoall", "placement": "groups", "iters": 5, "seed": 9, "nodes": 8})",
      R"({"noise": false, "harness": "cells", "metrics_out": "m.json", "deadline_ms": 250})",
      R"({"faults": "at 1us down link 4; at 2us up link 4", "gpus": [2], "id": null})",
  };
  Rng rng(0x5eed);
  int json_errors = 0, query_errors = 0, accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = lines[rng.uniform_int(std::size(lines))];
    const int edits = 1 + static_cast<int>(rng.uniform_int(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.uniform_int(text.size());
      switch (rng.uniform_int(4)) {
        case 0: text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(8))); break;
        case 1: text.erase(at, 1); break;
        case 2: text.insert(at, 1, static_cast<char>(rng.uniform_int(256))); break;
        default: text.resize(at); break;
      }
    }
    std::string err;
    const auto doc = parse_json(text, err);
    if (!doc.has_value()) {
      ++json_errors;
      EXPECT_NE(err.find("at byte"), std::string::npos) << text << ": " << err;
    } else if (!parse_query(*doc, err).has_value()) {
      ++query_errors;
      EXPECT_FALSE(err.empty()) << text;
    } else {
      ++accepted;
      continue;
    }
    EXPECT_EQ(err.find('\n'), std::string::npos) << text << ": " << err;
  }
  // Every outcome occurs, so both parsers were exercised.
  EXPECT_GT(json_errors, 0);
  EXPECT_GT(query_errors, 0);
  EXPECT_GT(accepted, 0);
}

TEST(QueryKeys, StructuralDifferenceIsAMiss) {
  // Exact-compare keying: any one-field change must change the key (a stale
  // hit is impossible by construction).
  std::string err;
  const ScenarioQuery base = *query_of("{}", err);
  const char* variants[] = {
      R"({"system": "alps"})",      R"({"op": "allreduce"})",
      R"({"mechanism": "ccl"})",    R"({"gpus": 4})",
      R"({"min": 2})",              R"({"max": 1024})",
      R"({"space": "host"})",       R"({"tuned": false})",
      R"({"sl": 1})",               R"({"placement": "groups"})",
      R"({"iters": 9})",            R"({"seed": 7})",
      R"({"noise": false})",        R"({"nodes": 2})",
      R"({"harness": "cells"})",    R"({"faults": "at 1us down link 0"})",
  };
  for (const char* text : variants) {
    const auto q = query_of(text, err);
    ASSERT_TRUE(q.has_value()) << text << ": " << err;
    EXPECT_NE(q->canonical_key(), base.canonical_key()) << text;
  }
  // id and metrics_out are response plumbing, not experiment identity.
  EXPECT_EQ(query_of(R"({"id": 99})", err)->canonical_key(), base.canonical_key());
  EXPECT_EQ(query_of(R"({"metrics_out": "x.json"})", err)->canonical_key(),
            base.canonical_key());
  // ... and so is deadline_ms: the budget changes whether the query runs at
  // all under load, never what the answer says when it does run.
  EXPECT_EQ(query_of(R"({"deadline_ms": 100})", err)->canonical_key(),
            base.canonical_key());
}

TEST(QueryKeys, FaultSpecCannotForgeKeyCollisions) {
  ScenarioQuery a, b;
  a.faults = "x";
  b.faults = "x|min=1";  // would collide under naive concatenation
  b.min_bytes = 1;
  EXPECT_NE(a.canonical_key(), b.canonical_key());
}

// --- ExactCache -------------------------------------------------------------

TEST(ExactCache, CountsHitsAndMisses) {
  ExactCache<int> c("t", 1024);
  EXPECT_EQ(c.find("a"), nullptr);
  c.insert("a", std::make_shared<int>(1), 16);
  const auto hit = c.find("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  const CacheStats s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 16u);
}

TEST(ExactCache, FifoEvictionUnderSmallCap) {
  ExactCache<int> c("t", 100);
  c.insert("a", std::make_shared<int>(1), 40);
  c.insert("b", std::make_shared<int>(2), 40);
  c.insert("c", std::make_shared<int>(3), 40);  // evicts "a" (first inserted)
  EXPECT_EQ(c.find("a"), nullptr);
  EXPECT_NE(c.find("b"), nullptr);
  EXPECT_NE(c.find("c"), nullptr);
  const CacheStats s = c.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 100u);
  // FIFO, not LRU: touching "b" does not save it from eviction order.
  c.insert("d", std::make_shared<int>(4), 40);
  EXPECT_EQ(c.find("b"), nullptr);
}

TEST(ExactCache, OversizedValuesRejectedAndReplaceKeepsPosition) {
  ExactCache<int> c("t", 100);
  c.insert("big", std::make_shared<int>(0), 101);
  EXPECT_EQ(c.find("big"), nullptr);
  EXPECT_EQ(c.stats().rejected, 1u);

  c.insert("a", std::make_shared<int>(1), 30);
  c.insert("a", std::make_shared<int>(2), 50);  // replace in place
  const auto v = c.find("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 2);
  EXPECT_EQ(c.stats().entries, 1u);
  EXPECT_EQ(c.stats().bytes, 50u);
}

// --- topology snapshots -----------------------------------------------------

TEST(TopologySnapshot, SnapshotClusterMatchesFreshCluster) {
  const SystemConfig cfg = system_by_name("leonardo");
  ClusterOptions copt;
  copt.nodes = 2;
  copt.seed = 7;
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kPacked);

  Cluster fresh(cfg, copt);
  Cluster snap(*topo, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  MpiComm a(fresh, first_n_gpus(fresh, 8), opt);
  MpiComm b(snap, first_n_gpus(snap, 8), opt);
  // Bit-identical behavior: same simulated result for the same seed.
  EXPECT_EQ(a.time_allreduce(1_MiB).ps, b.time_allreduce(1_MiB).ps);
  EXPECT_EQ(a.time_alltoall(65536).ps, b.time_alltoall(65536).ps);
}

TEST(TopologySnapshot, SnapshotIsSharableAcrossClusters) {
  const SystemConfig cfg = system_by_name("lumi");
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kScatterGroups);
  ClusterOptions copt;
  copt.nodes = 2;
  copt.placement = Placement::kScatterGroups;
  // Two clusters off one snapshot: the clone isolates adaptive-routing
  // cursor state, so both behave like fresh builds.
  Cluster c1(*topo, copt);
  Cluster c2(*topo, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  MpiComm m1(c1, first_n_gpus(c1, 8), opt);
  MpiComm m2(c2, first_n_gpus(c2, 8), opt);
  EXPECT_EQ(m1.time_allreduce(65536).ps, m2.time_allreduce(65536).ps);
}

TEST(TopologySnapshot, RejectsMismatchedOptions) {
  const SystemConfig cfg = system_by_name("leonardo");
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kPacked);
  ClusterOptions wrong;
  wrong.nodes = 3;
  EXPECT_THROW(Cluster(*topo, wrong), std::invalid_argument);
}

// --- run_scenario determinism ----------------------------------------------

ScenarioQuery small_query(bool cells) {
  std::string err;
  auto q = query_of(R"({"op": "allreduce", "mechanism": "mpi", "gpus": 4,
                        "min": 1024, "max": 16384, "iters": 3})",
                    err);
  q->cells = cells;
  return *q;
}

TEST(RunScenario, WarmCacheAnswersAreByteIdenticalToCold) {
  for (const bool cells : {false, true}) {
    const ScenarioQuery q = small_query(cells);
    std::string err;
    // Uncached reference.
    const auto ref = run_scenario(q, nullptr, /*want_manifest=*/true, err);
    ASSERT_NE(ref, nullptr) << err;
    ServerCaches caches(64u << 20);
    const auto cold = run_scenario(q, &caches, true, err);
    ASSERT_NE(cold, nullptr) << err;
    const auto warm = run_scenario(q, &caches, true, err);
    ASSERT_NE(warm, nullptr) << err;
    for (const auto* o : {cold.get(), warm.get()}) {
      EXPECT_EQ(o->header, ref->header) << "cells=" << cells;
      EXPECT_EQ(o->table, ref->table) << "cells=" << cells;
      EXPECT_EQ(o->manifest_pretty, ref->manifest_pretty) << "cells=" << cells;
      EXPECT_EQ(o->manifest_compact, ref->manifest_compact) << "cells=" << cells;
    }
    EXPECT_GE(caches.responses.stats().hits, 1u);
  }
}

TEST(RunScenario, CellResultsSharedAcrossQueriesWithDifferentBounds) {
  // Two cells-mode sweeps starting at the same --min share their common
  // (size index, bytes) prefix through the cells cache — and the reused
  // results must be bit-identical to an uncached run.
  ScenarioQuery narrow = small_query(true);
  ScenarioQuery wide = small_query(true);
  wide.max_bytes = 65536;

  ServerCaches caches(64u << 20);
  std::string err;
  ASSERT_NE(run_scenario(narrow, &caches, true, err), nullptr) << err;
  const auto before = caches.cells.stats();
  const auto cached = run_scenario(wide, &caches, true, err);
  ASSERT_NE(cached, nullptr) << err;
  const auto after = caches.cells.stats();
  EXPECT_GE(after.hits, before.hits + 3);  // 1K, 4K, 16K reused

  const auto fresh = run_scenario(wide, nullptr, true, err);
  ASSERT_NE(fresh, nullptr) << err;
  EXPECT_EQ(cached->manifest_pretty, fresh->manifest_pretty);
  EXPECT_EQ(cached->table, fresh->table);
}

TEST(RunScenario, EvictionUnderTinyBudgetStaysCorrect) {
  // A budget too small to hold anything degrades to recomputation, never to
  // wrong answers.
  const ScenarioQuery q = small_query(true);
  std::string err;
  const auto ref = run_scenario(q, nullptr, true, err);
  ASSERT_NE(ref, nullptr) << err;
  ServerCaches tiny(64);  // bytes, not MiB: everything is evicted/rejected
  for (int round = 0; round < 2; ++round) {
    const auto out = run_scenario(q, &tiny, true, err);
    ASSERT_NE(out, nullptr) << err;
    EXPECT_EQ(out->manifest_pretty, ref->manifest_pretty);
  }
  EXPECT_EQ(tiny.responses.stats().hits, 0u);
}

TEST(RunScenario, ReportsErrorsAsOneLine) {
  ScenarioQuery q = small_query(false);
  q.nodes = 1;
  q.gpus = 64;  // 1 Leonardo node cannot host 64 ranks
  std::string err;
  EXPECT_EQ(run_scenario(q, nullptr, true, err), nullptr);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(err.find('\n'), std::string::npos);

  ScenarioQuery f = small_query(false);
  f.faults = "at nonsense";
  EXPECT_EQ(run_scenario(f, nullptr, true, err), nullptr);
  EXPECT_NE(err.find("--faults"), std::string::npos);
}

// --- serve_loop -------------------------------------------------------------

std::string serve(const std::string& input, int jobs = 1,
                  ServerCaches* caches = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions o;
  o.jobs = jobs;
  o.cache_bytes = 64u << 20;
  o.caches = caches;
  serve_loop(in, out, o);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

const char* kQ1 =
    R"({"id": 1, "op": "pingpong", "mechanism": "mpi", "gpus": 2, "min": 1024, "max": 1024, "iters": 2})";

TEST(ServeLoop, AnswersEveryLineInOrderWithValidJson) {
  std::ostringstream in;
  in << kQ1 << "\n"
     << R"({"id": 2, "bogus": true})" << "\n"
     << "this is not json\n"
     << R"({"id": 3, "control": "ping"})" << "\n";
  const auto lines = lines_of(serve(in.str()));
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(is_json(l)) << l;
  }
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"manifest\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("bogus"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"control\":\"ping\""), std::string::npos);
}

TEST(ServeLoop, ResponsesInvariantAcrossWorkerCountAndCacheState) {
  std::ostringstream in;
  for (int i = 0; i < 6; ++i) {
    in << R"({"id": )" << i
       << R"(, "op": "allgather", "mechanism": "mpi", "gpus": 4, "min": )" << (1024 << i)
       << R"(, "max": )" << (1024 << i) << R"(, "iters": 2, "harness": "cells"})" << "\n";
  }
  const std::string serial = serve(in.str(), 1);
  const std::string parallel = serve(in.str(), 4);
  EXPECT_EQ(serial, parallel);

  // Warm pass over one cache set: byte-identical to the cold pass.
  ServerCaches caches(64u << 20);
  const std::string cold = serve(in.str(), 2, &caches);
  const std::string warm = serve(in.str(), 2, &caches);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, serial);
}

TEST(ServeLoop, StatsControlReportsCacheCountersAfterBarrier) {
  ServerCaches caches(64u << 20);
  std::ostringstream in;
  in << kQ1 << "\n" << kQ1 << "\n" << R"({"id": 9, "control": "stats"})" << "\n";
  // jobs=1 so the identical second query is guaranteed to hit the response
  // cache (parallel workers may race identical in-flight queries — harmless
  // for correctness, but it would make the hit count nondeterministic here).
  const auto lines = lines_of(serve(in.str(), 1, &caches));
  ASSERT_EQ(lines.size(), 3u);
  // Scenario responses never embed cache counters (they would break the
  // warm/cold byte-identity); the stats control line carries them.
  EXPECT_EQ(lines[0].find("hits"), std::string::npos);
  EXPECT_EQ(lines[0], lines[1]);  // identical query -> identical response bytes
  EXPECT_TRUE(is_json(lines[2])) << lines[2];
  EXPECT_NE(lines[2].find("\"control\": \"stats\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("responses"), std::string::npos);
  EXPECT_EQ(caches.responses.stats().hits, 1u);  // second query hit
}

TEST(ServeLoop, ShutdownStopsTheLoop) {
  std::ostringstream in;
  in << R"({"id": 1, "control": "shutdown"})" << "\n" << kQ1 << "\n";
  const auto lines = lines_of(serve(in.str()));
  ASSERT_EQ(lines.size(), 1u);  // nothing after shutdown is answered
  EXPECT_NE(lines[0].find("\"control\":\"shutdown\""), std::string::npos);
}

// --- observability (serve/obs.hpp) ------------------------------------------

std::string obs_temp(const std::string& stem) {
  return testing::TempDir() + "gpucomm_obs_" + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(ObsRing, OverflowDropsNewestAndCountsExactly) {
  BoundedLogRing ring(3);
  EXPECT_TRUE(ring.push("a"));
  EXPECT_TRUE(ring.push("b"));
  EXPECT_TRUE(ring.push("c"));
  EXPECT_FALSE(ring.push("d"));  // full: dropped, not blocking
  EXPECT_FALSE(ring.push("e"));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto batch = ring.take_all();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.front(), "a");  // drop-newest keeps the oldest records
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.push("f"));  // drained ring accepts again
  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(ObsEventRecord, BuildsOneValidJsonLine) {
  const std::string rec = EventRecord(42, "admit")
                              .field("id", std::int64_t{-3})
                              .field("seq", std::uint64_t{7})
                              .field("note", std::string("a\"b"))
                              .field_bool("ok", true)
                              .str();
  EXPECT_TRUE(is_json(rec)) << rec;
  EXPECT_EQ(rec.substr(0, 26), R"({"ts_us":42,"type":"admit")");
  EXPECT_NE(rec.find("\"id\":-3"), std::string::npos);
  EXPECT_NE(rec.find("\"note\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(rec.find("\"ok\":true"), std::string::npos);
}

/// serve() with every observability sink enabled, writing to temp files.
std::string serve_full_obs(const std::string& input, int jobs, const std::string& tag) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions o;
  o.jobs = jobs;
  o.cache_bytes = 64u << 20;
  o.obs.log_path = obs_temp(tag + ".log");
  o.obs.trace_path = obs_temp(tag + ".trace.json");
  o.obs.metrics_path = obs_temp(tag + ".prom");
  o.obs.metrics_every = 2;
  o.obs.slow_ms = 1;  // most queries qualify: exercises slow_query records
  serve_loop(in, out, o);
  return out.str();
}

TEST(ServeObs, ResponsesByteIdenticalWithObservabilityOnOrOff) {
  std::ostringstream in;
  for (int i = 0; i < 4; ++i) {
    in << R"({"id": )" << i
       << R"(, "op": "pingpong", "mechanism": "mpi", "gpus": 2, "min": )" << (1024 << i)
       << R"(, "max": )" << (1024 << i) << R"(, "iters": 2})" << "\n";
  }
  in << R"({"id": 9, "control": "ping"})" << "\n";
  in << "not json\n";
  const std::string plain = serve(in.str(), 1);
  EXPECT_EQ(serve_full_obs(in.str(), 1, "ident1"), plain);
  EXPECT_EQ(serve_full_obs(in.str(), 4, "ident4"), plain);
}

TEST(ServeObs, LatencyCountsEqualAnsweredAndSurfaceInStats) {
  std::istringstream in(std::string(kQ1) + "\n" + kQ1 + "\n" +
                        R"({"id": 5, "control": "stats"})" + "\n");
  std::ostringstream out;
  ServeOptions o;
  o.jobs = 2;
  o.cache_bytes = 64u << 20;
  o.obs.latency = true;
  const ServeResult r = serve_loop(in, out, o);
  const auto& e2e = r.latency.stage[static_cast<int>(Stage::kE2e)];
  EXPECT_EQ(e2e.count, r.counters.answered);
  EXPECT_EQ(e2e.count, 2u);
  EXPECT_GT(e2e.max_us, 0.0);
  EXPECT_LE(e2e.p50_us, e2e.max_us);
  // Parse covers every request line (scenario and control alike).
  EXPECT_EQ(r.latency.stage[static_cast<int>(Stage::kParse)].count, 3u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(is_json(lines[2])) << lines[2];
  EXPECT_NE(lines[2].find("\"latency\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"e2e_us\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"queue_wait_us\""), std::string::npos) << lines[2];
}

TEST(ServeObs, MetricsControlEmitsPrometheusText) {
  // `metrics` works with observability off (counters only) ...
  const auto off = lines_of(serve(std::string(kQ1) + "\n" +
                                  R"({"id": 2, "control": "metrics"})" + "\n"));
  ASSERT_EQ(off.size(), 2u);
  EXPECT_TRUE(is_json(off[1])) << off[1];
  EXPECT_NE(off[1].find("\"control\":\"metrics\""), std::string::npos);
  EXPECT_NE(off[1].find("gpucomm_serve_answered_total 1"), std::string::npos) << off[1];
  EXPECT_EQ(off[1].find("latency_us"), std::string::npos);

  // ... and gains the latency section when histograms are on.
  std::istringstream in(std::string(kQ1) + "\n" +
                        R"({"id": 2, "control": "metrics"})" + "\n");
  std::ostringstream out;
  ServeOptions o;
  o.jobs = 1;
  o.cache_bytes = 64u << 20;
  o.obs.latency = true;
  serve_loop(in, out, o);
  const auto on = lines_of(out.str());
  ASSERT_EQ(on.size(), 2u);
  EXPECT_TRUE(is_json(on[1])) << on[1];
  EXPECT_NE(on[1].find("gpucomm_serve_latency_us"), std::string::npos) << on[1];
  EXPECT_NE(on[1].find("quantile="), std::string::npos) << on[1];
}

TEST(ServeObs, EventLogRecordsQueryLifecycleAndFinalTally) {
  const std::string log = obs_temp("lifecycle.log");
  std::remove(log.c_str());
  {
    std::istringstream in(std::string(kQ1) + "\n" + "not json\n");
    std::ostringstream out;
    ServeOptions o;
    o.jobs = 1;
    o.cache_bytes = 64u << 20;
    o.obs.log_path = log;
    o.obs.slow_ms = 1;
    serve_loop(in, out, o);
  }
  const auto records = lines_of(slurp(log));
  ASSERT_FALSE(records.empty());
  for (const std::string& r : records) {
    EXPECT_TRUE(is_json(r)) << r;
  }
  auto count_type = [&](const std::string& type) {
    std::size_t n = 0;
    const std::string needle = "\"type\":\"" + type + "\"";
    for (const std::string& r : records) {
      if (r.find(needle) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_type("admit"), 1u);
  EXPECT_EQ(count_type("run_start"), 1u);
  EXPECT_EQ(count_type("run_finish"), 1u);
  EXPECT_EQ(count_type("render"), 1u);
  EXPECT_EQ(count_type("flush"), 1u);
  EXPECT_EQ(count_type("parse_error"), 1u);
  EXPECT_GE(count_type("cache"), 1u);  // per-cache lookup trail
  ASSERT_EQ(count_type("serve_drained"), 1u);
  // The final record is last and carries the tally the stderr line prints.
  EXPECT_NE(records.back().find("\"type\":\"serve_drained\""), std::string::npos);
  EXPECT_NE(records.back().find("\"answered\":1"), std::string::npos) << records.back();
  EXPECT_NE(records.back().find("\"parse_errors\":1"), std::string::npos);
  std::remove(log.c_str());
}

TEST(ServeObs, SlowQueryRecordCarriesLineAndCacheChain) {
  const std::string log = obs_temp("slow.log");
  std::remove(log.c_str());
  {
    std::istringstream in(std::string(kQ1) + "\n");
    std::ostringstream out;
    ServeOptions o;
    o.jobs = 1;
    o.cache_bytes = 64u << 20;
    o.obs.log_path = log;
    o.obs.slow_ms = 1;  // a cold 2-iteration run takes well over 1 ms
    serve_loop(in, out, o);
  }
  const auto records = lines_of(slurp(log));
  std::string slow;
  for (const std::string& r : records) {
    if (r.find("\"type\":\"slow_query\"") != std::string::npos) slow = r;
  }
  ASSERT_FALSE(slow.empty());
  EXPECT_NE(slow.find("\"line\":"), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"caches\":"), std::string::npos) << slow;
  EXPECT_NE(slow.find("responses:miss"), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"full_solves\":"), std::string::npos) << slow;
  std::remove(log.c_str());
}

TEST(ServeObs, TraceAndMetricsFilesWrittenAtDrain) {
  const std::string trace = obs_temp("drain.trace.json");
  const std::string prom = obs_temp("drain.prom");
  std::remove(trace.c_str());
  std::remove(prom.c_str());
  {
    std::istringstream in(std::string(kQ1) + "\n");
    std::ostringstream out;
    ServeOptions o;
    o.jobs = 2;
    o.cache_bytes = 64u << 20;
    o.obs.trace_path = trace;
    o.obs.metrics_path = prom;
    serve_loop(in, out, o);
  }
  const std::string trace_text = slurp(trace);
  EXPECT_TRUE(is_json(trace_text)) << trace_text.substr(0, 200);
  EXPECT_NE(trace_text.find("\"scenario-server\""), std::string::npos);
  for (const char* span : {"queue_wait", "run", "render", "flush", "e2e"}) {
    EXPECT_NE(trace_text.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
  const std::string prom_text = slurp(prom);
  EXPECT_NE(prom_text.find("# TYPE gpucomm_serve_answered_total counter"),
            std::string::npos);
  EXPECT_NE(prom_text.find("gpucomm_serve_answered_total 1"), std::string::npos);
  EXPECT_NE(prom_text.find("gpucomm_serve_latency_us"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(prom.c_str());
}

TEST(ServeObs, EventLogRotatesPastSizeBound) {
  const std::string log = obs_temp("rotate.log");
  std::remove(log.c_str());
  std::remove((log + ".1").c_str());
  ObsOptions opt;
  opt.log_path = log;
  opt.log_max_bytes = 512;  // a few records per generation
  {
    Obs obs(opt, 1);
    for (int i = 0; i < 64; ++i) {
      obs.event(EventRecord(obs.ts_us(), "filler").field("i", std::int64_t{i}).str());
    }
    obs.finalize(EventRecord(obs.ts_us(), "serve_drained").str(), std::string());
    const LatencyStats stats = obs.latency();
    EXPECT_GT(stats.log_rotations, 0u);
    EXPECT_EQ(stats.log_records, 65u);
  }
  // Both generations exist, are bounded, and hold only whole JSON records.
  const std::string current = slurp(log);
  const std::string previous = slurp(log + ".1");
  ASSERT_FALSE(current.empty());
  ASSERT_FALSE(previous.empty());
  EXPECT_LE(previous.size(), 512u + 128u);
  for (const std::string& r : lines_of(current + previous)) {
    EXPECT_TRUE(is_json(r)) << r;
  }
  EXPECT_NE(current.find("serve_drained"), std::string::npos);
  std::remove(log.c_str());
  std::remove((log + ".1").c_str());
}

TEST(ServeLoop, ServedManifestEqualsStandaloneArtifact) {
  // The response's manifest is the same document the standalone CLI's
  // --metrics-out writes, in compact form.
  std::string err;
  const auto doc = parse_json(kQ1, err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto q = parse_query(*doc, err);
  ASSERT_TRUE(q.has_value()) << err;
  const auto standalone = run_scenario(*q, nullptr, /*want_manifest=*/true, err);
  ASSERT_NE(standalone, nullptr) << err;

  const auto lines = lines_of(serve(std::string(kQ1) + "\n"));
  ASSERT_EQ(lines.size(), 1u);
  const std::string prefix = "{\"id\":1,\"ok\":true,\"manifest\":";
  ASSERT_EQ(lines[0].substr(0, prefix.size()), prefix);
  EXPECT_EQ(lines[0], prefix + standalone->manifest_compact + "}");
}

}  // namespace
}  // namespace gpucomm::serve
