// Strict CLI parsing: valid invocations round-trip into CliArgs, every kind
// of malformed input fails with a one-line diagnostic (the binary turns that
// into stderr + exit 2 — what the driver's contract promises).
#include <gtest/gtest.h>

#include "gpucomm/harness/cli_args.hpp"
#include "gpucomm/sim/random.hpp"

namespace gpucomm {
namespace {

std::optional<cli::CliArgs> parse(std::vector<const char*> argv, std::string& err) {
  argv.insert(argv.begin(), "gpucomm_cli");
  return cli::parse_cli(static_cast<int>(argv.size()), argv.data(), err);
}

TEST(CliArgs, FullValidInvocationRoundTrips) {
  std::string err;
  const auto a = parse({"--system", "alps", "--op", "allreduce", "--mechanism", "ccl",
                        "--gpus", "16", "--min", "1024", "--max", "1048576", "--space",
                        "host", "--untuned", "--sl", "3", "--iters", "7", "--placement",
                        "groups", "--trace", "out.json", "--counters", "--faults",
                        "at 1us down link 4; at 2us up link 4"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->system, "alps");
  EXPECT_EQ(a->op, "allreduce");
  EXPECT_EQ(a->mechanism, "ccl");
  EXPECT_EQ(a->gpus, 16);
  EXPECT_EQ(a->min_bytes, 1024u);
  EXPECT_EQ(a->max_bytes, 1048576u);
  EXPECT_EQ(a->space, MemSpace::kHost);
  EXPECT_FALSE(a->tuned);
  EXPECT_EQ(a->service_level, 3);
  EXPECT_EQ(a->iters, 7);
  EXPECT_EQ(a->placement, Placement::kScatterGroups);
  EXPECT_EQ(a->trace_path, "out.json");
  EXPECT_TRUE(a->counters);
  EXPECT_EQ(a->faults, "at 1us down link 4; at 2us up link 4");
}

TEST(CliArgs, DefaultsWithNoFlags) {
  std::string err;
  const auto a = parse({}, err);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->system, "leonardo");
  EXPECT_EQ(a->gpus, 2);
  EXPECT_TRUE(a->tuned);
  EXPECT_TRUE(a->faults.empty());
  EXPECT_FALSE(a->profile);
  EXPECT_TRUE(a->metrics_out.empty());
  EXPECT_TRUE(a->timeseries_path.empty());
  EXPECT_EQ(a->bucket_us, 50);
  EXPECT_EQ(a->seed, 42u);
}

TEST(CliArgs, MetricsFlagsRoundTrip) {
  std::string err;
  const auto a = parse({"--profile", "--metrics-out", "run.json", "--timeseries",
                        "ts.csv", "--bucket-us", "10", "--seed", "1234"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_TRUE(a->profile);
  EXPECT_EQ(a->metrics_out, "run.json");
  EXPECT_EQ(a->timeseries_path, "ts.csv");
  EXPECT_EQ(a->bucket_us, 10);
  EXPECT_EQ(a->seed, 1234u);
}

TEST(CliArgs, MetricsFlagsRejectBadValues) {
  std::string err;
  EXPECT_FALSE(parse({"--bucket-us", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--bucket-us", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--seed", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--metrics-out"}, err).has_value());
  EXPECT_FALSE(parse({"--timeseries"}, err).has_value());
}

TEST(CliArgs, HelpShortCircuits) {
  std::string err;
  const auto a = parse({"--help"}, err);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->help);
}

TEST(CliArgs, UnknownFlagFailsWithItsName) {
  std::string err;
  for (const char* flag : {"--bogus", "--net-shards"}) {
    EXPECT_FALSE(parse({flag, "4"}, err).has_value()) << flag;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(CliArgs, MissingValueFails) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus"}, err).has_value());
  EXPECT_FALSE(parse({"--system"}, err).has_value());
  EXPECT_FALSE(parse({"--faults"}, err).has_value());
}

TEST(CliArgs, NonNumericNumbersFail) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "4x"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "-3"}, err).has_value());
  EXPECT_FALSE(parse({"--min", "1e6"}, err).has_value());
  EXPECT_FALSE(parse({"--iters", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--sl", "16"}, err).has_value());
}

TEST(CliArgs, UnknownNamesFail) {
  std::string err;
  EXPECT_FALSE(parse({"--system", "frontier"}, err).has_value());
  EXPECT_NE(err.find("frontier"), std::string::npos);
  EXPECT_FALSE(parse({"--op", "gather"}, err).has_value());
  EXPECT_FALSE(parse({"--mechanism", "nvshmem"}, err).has_value());
  EXPECT_FALSE(parse({"--placement", "diagonal"}, err).has_value());
  EXPECT_FALSE(parse({"--space", "unified"}, err).has_value());
}

TEST(CliArgs, MinAboveMaxFails) {
  std::string err;
  EXPECT_FALSE(parse({"--min", "4096", "--max", "1024"}, err).has_value());
  EXPECT_NE(err.find("--min"), std::string::npos);
}

TEST(CliArgs, JobsRoundTripsAndDefaultsToCoupled) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->jobs, 1);
  EXPECT_FALSE(def->jobs_given);

  const auto a = parse({"--jobs", "4"}, err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->jobs, 4);
  EXPECT_TRUE(a->jobs_given);

  // --jobs 1 still selects the cell harness: the flag's presence, not its
  // value, is what switches sampling semantics.
  const auto one = parse({"--jobs", "1"}, err);
  ASSERT_TRUE(one.has_value()) << err;
  EXPECT_TRUE(one->jobs_given);
}

TEST(CliArgs, JobsRejectsBadValues) {
  std::string err;
  EXPECT_FALSE(parse({"--jobs"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "-2"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "1025"}, err).has_value());
}

TEST(CliArgs, JobsRejectsWholeRunStateFlags) {
  std::string err;
  EXPECT_FALSE(parse({"--jobs", "4", "--trace", "t.json"}, err).has_value());
  EXPECT_NE(err.find("--jobs"), std::string::npos);
  EXPECT_FALSE(parse({"--jobs", "4", "--counters"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--profile"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--timeseries", "ts.csv"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--faults", "at 1us down link 4"}, err).has_value());
  // --metrics-out is fine: the manifest is merged from cell results.
  EXPECT_TRUE(parse({"--jobs", "4", "--metrics-out", "m.json"}, err).has_value()) << err;
}

TEST(CliArgs, NodesAndNoiseRoundTrip) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->nodes, 0);  // derive from --gpus
  EXPECT_TRUE(def->noise);

  const auto a = parse({"--nodes", "8", "--no-noise"}, err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->nodes, 8);
  EXPECT_FALSE(a->noise);

  EXPECT_FALSE(parse({"--nodes", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--nodes", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--nodes"}, err).has_value());
}

TEST(CliArgs, ServeRoundTrips) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_FALSE(def->serve);
  EXPECT_EQ(def->serve_jobs, 1);
  EXPECT_EQ(def->serve_cache_mb, 256);
  EXPECT_TRUE(def->serve_socket.empty());
  EXPECT_EQ(def->serve_deadline_ms, 0);
  EXPECT_EQ(def->serve_max_queue, 1024);
  EXPECT_EQ(def->serve_max_line_bytes, 1u << 20);
  EXPECT_TRUE(def->serve_log.empty());
  EXPECT_EQ(def->serve_log_max_mb, 64);
  EXPECT_TRUE(def->serve_trace.empty());
  EXPECT_TRUE(def->serve_metrics_file.empty());
  EXPECT_EQ(def->serve_metrics_every, 0);
  EXPECT_EQ(def->serve_slow_ms, 0);

  const auto a = parse({"--serve", "--serve-jobs", "8", "--serve-cache-mb", "64",
                        "--serve-socket", "/tmp/gpucomm.sock", "--serve-deadline-ms",
                        "5000", "--serve-max-queue", "32", "--serve-max-line-bytes",
                        "4096", "--serve-log", "/tmp/s.log",
                        "--serve-log-max-mb", "8", "--serve-trace", "/tmp/s.trace",
                        "--serve-metrics-file", "/tmp/s.prom", "--serve-metrics-every",
                        "50", "--serve-slow-ms", "250"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_TRUE(a->serve);
  EXPECT_EQ(a->serve_jobs, 8);
  EXPECT_EQ(a->serve_cache_mb, 64);
  EXPECT_EQ(a->serve_socket, "/tmp/gpucomm.sock");
  EXPECT_EQ(a->serve_deadline_ms, 5000);
  EXPECT_EQ(a->serve_max_queue, 32);
  EXPECT_EQ(a->serve_max_line_bytes, 4096u);
  EXPECT_EQ(a->serve_log, "/tmp/s.log");
  EXPECT_EQ(a->serve_log_max_mb, 8);
  EXPECT_EQ(a->serve_trace, "/tmp/s.trace");
  EXPECT_EQ(a->serve_metrics_file, "/tmp/s.prom");
  EXPECT_EQ(a->serve_metrics_every, 50);
  EXPECT_EQ(a->serve_slow_ms, 250);
}

TEST(CliArgs, ServeRejectsScenarioFlags) {
  // In serve mode every scenario parameter arrives per query; a scenario
  // flag on the command line is a usage error naming the offending flag.
  std::string err;
  EXPECT_FALSE(parse({"--serve", "--gpus", "4"}, err).has_value());
  EXPECT_NE(err.find("--gpus"), std::string::npos);
  EXPECT_FALSE(parse({"--op", "allreduce", "--serve"}, err).has_value());
  EXPECT_NE(err.find("--op"), std::string::npos);
  EXPECT_FALSE(parse({"--serve", "--jobs", "4"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--metrics-out", "m.json"}, err).has_value());
}

TEST(CliArgs, ServeSubflagsRequireServe) {
  std::string err;
  EXPECT_FALSE(parse({"--serve-jobs", "4"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-cache-mb", "64"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-socket", "/tmp/s.sock"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-deadline-ms", "100"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-queue", "16"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-line-bytes", "4096"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-log", "/tmp/s.log"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-log-max-mb", "8"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-trace", "/tmp/s.trace"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-metrics-file", "/tmp/s.prom"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-metrics-every", "50"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-slow-ms", "250"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-jobs", "0", "--serve"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-cache-mb", "abc"}, err).has_value());
  // A flag given at its default value is still a server flag: without
  // --serve it is rejected by name, not silently ignored.
  EXPECT_FALSE(parse({"--serve-jobs", "1", "--min", "8", "--max", "8"}, err).has_value());
  EXPECT_EQ(err, "'--serve-jobs' requires --serve");
  EXPECT_FALSE(parse({"--serve-cache-mb", "256"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-queue", "1024"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-line-bytes", "1048576"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-log-max-mb", "64"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-deadline-ms", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-metrics-every", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-slow-ms", "0", "--gpus", "4"}, err).has_value());
  EXPECT_EQ(err, "'--serve-slow-ms' requires --serve");
  // The first server flag is the one named.
  EXPECT_FALSE(parse({"--serve-trace", "t.json", "--serve-jobs", "2"}, err).has_value());
  EXPECT_EQ(err, "'--serve-trace' requires --serve");
  // Removed flags are unknown, with or without --serve.
  EXPECT_FALSE(parse({"--serve", "--serve-cache-file", "/tmp/c"}, err).has_value());
  EXPECT_EQ(err, "unknown flag '--serve-cache-file'");
  EXPECT_FALSE(parse({"--serve", "--serve-snapshot-every", "10"}, err).has_value());
  EXPECT_EQ(err, "unknown flag '--serve-snapshot-every'");
}

TEST(CliArgs, ServeHardeningFlagsRejectBadRanges) {
  std::string err;
  // Each flag validates its documented range with a one-line diagnostic.
  EXPECT_FALSE(parse({"--serve", "--serve-deadline-ms", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-deadline-ms", "86400001"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-queue", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-line-bytes", "63"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-line-bytes", "abc"}, err).has_value());
  // Zero is meaningful, not an error: no deadline, unbounded queue.
  EXPECT_TRUE(parse({"--serve", "--serve-deadline-ms", "0"}, err).has_value()) << err;
  EXPECT_TRUE(parse({"--serve", "--serve-max-queue", "0"}, err).has_value()) << err;
  // Observability flags: value-taking paths and strict numeric ranges.
  EXPECT_FALSE(parse({"--serve", "--serve-log"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-trace"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-metrics-file"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-log-max-mb", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-log-max-mb", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-metrics-every", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-slow-ms", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-slow-ms", "86400001"}, err).has_value());
  // Zero cadence/threshold means "only at drain" / "off", not an error.
  EXPECT_TRUE(parse({"--serve", "--serve-metrics-every", "0"}, err).has_value()) << err;
  EXPECT_TRUE(parse({"--serve", "--serve-slow-ms", "0"}, err).has_value()) << err;
}

TEST(CliArgs, SharedVocabularyHelpers) {
  EXPECT_TRUE(cli::known_op("allreduce"));
  EXPECT_FALSE(cli::known_op("gather"));
  EXPECT_TRUE(cli::known_mechanism("ccl"));
  EXPECT_FALSE(cli::known_mechanism("nvshmem"));
  Placement p = Placement::kPacked;
  EXPECT_TRUE(cli::parse_placement_name("groups", p));
  EXPECT_EQ(p, Placement::kScatterGroups);
  EXPECT_FALSE(cli::parse_placement_name("diagonal", p));
  EXPECT_STREQ(cli::placement_name(Placement::kScatterSwitches), "switches");
}

TEST(CliArgs, ErrorMessageIsOneLine) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus", "abc"}, err).has_value());
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_FALSE(err.empty());
}

TEST(CliArgs, MutatedArgvFailsCleanly) {
  // Seeded mutation fuzz of the command line: bit flips inside a token,
  // token deletions, duplications and swaps, truncated argv and tokens, and
  // huge or malformed numbers in place of any token. Every mutant either
  // parses or fails with a non-empty one-line message.
  const std::vector<std::vector<std::string>> bases = {
      {"--system", "alps", "--op", "allreduce", "--mechanism", "ccl", "--gpus", "16",
       "--min", "1024", "--max", "1048576", "--space", "host", "--untuned", "--sl", "3",
       "--iters", "7", "--placement", "groups", "--seed", "9", "--nodes", "4",
       "--no-noise", "--metrics-out", "m.json", "--trace", "t.json", "--counters",
       "--profile", "--timeseries", "ts.csv", "--bucket-us", "10", "--faults",
       "at 1us down link 4"},
      {"--serve", "--serve-jobs", "4", "--serve-cache-mb", "64", "--serve-socket",
       "/tmp/s.sock", "--serve-deadline-ms", "500", "--serve-max-queue", "32",
       "--serve-max-line-bytes", "4096", "--serve-log", "s.log", "--serve-log-max-mb", "8",
       "--serve-trace", "s.trace", "--serve-metrics-file", "s.prom",
       "--serve-metrics-every", "50", "--serve-slow-ms", "250"},
      {"--system", "lumi", "--op", "alltoall", "--mechanism", "mpi", "--gpus", "8",
       "--jobs", "4", "--min", "8", "--max", "8", "--iters", "3", "--dump-schedule"},
  };
  const char* const numbers[] = {"99999999999999999999999", "-9223372036854775808",
                                 "9223372036854775807", "18446744073709551616",
                                 "1e309",  "0x10", "-0", "", " 7", "7 "};
  std::string err;
  for (const auto& base : bases) {
    std::vector<const char*> argv;
    for (const std::string& t : base) argv.push_back(t.c_str());
    ASSERT_TRUE(parse(argv, err).has_value()) << err;
  }
  Rng rng(0xc11);
  int rejected = 0, accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::string> tokens = bases[rng.uniform_int(bases.size())];
    const int edits = 1 + static_cast<int>(rng.uniform_int(3));
    for (int e = 0; e < edits && !tokens.empty(); ++e) {
      const std::size_t at = rng.uniform_int(tokens.size());
      std::string& tok = tokens[at];
      switch (rng.uniform_int(6)) {
        case 0:
          if (!tok.empty()) {
            const std::size_t c = rng.uniform_int(tok.size());
            tok[c] = static_cast<char>(tok[c] ^ (1 << rng.uniform_int(8)));
          }
          break;
        case 1: tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at)); break;
        case 2: {
          const std::string copy = tok;
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(
                                             rng.uniform_int(tokens.size() + 1)),
                        copy);
          break;
        }
        case 3: tokens.resize(at); break;
        case 4: tok.resize(rng.uniform_int(tok.size() + 1)); break;
        default: tok = numbers[rng.uniform_int(std::size(numbers))]; break;
      }
    }
    std::vector<const char*> argv;
    for (const std::string& t : tokens) argv.push_back(t.c_str());
    err.clear();
    if (parse(argv, err).has_value()) {
      ++accepted;
      continue;
    }
    ++rejected;
    std::string shown;
    for (const std::string& t : tokens) shown += "[" + t + "]";
    EXPECT_FALSE(err.empty()) << shown;
    EXPECT_EQ(err.find('\n'), std::string::npos) << shown << ": " << err;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace gpucomm
