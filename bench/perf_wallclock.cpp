// Wall-clock performance tracking (not a paper figure).
//
// Three sections, all emitted through --json so CI can archive the trend
// (BENCH_perf.json — informational, no gate):
//
//  1. solver: the progressive-filling allocator on randomized problems,
//     reference maxmin_fair_rates vs the FairshareSolver fast path used by
//     Network. The two must produce bit-identical rates (checked here every
//     repetition; the bench aborts on any mismatch).
//
//  2. end_to_end: a fig10-style sweep of exact-sim allreduce cells
//     (system x library x scale x rep), run serially and on the --jobs
//     worker pool (default 4 when the flag is absent). Cell results must
//     match between the two runs bit-for-bit.
//
//  3. incremental: a flow-event replay over a regional fabric (up to 16,384
//     links and 2^20 flows), driven through the Network's full-resolve
//     reference mode (the PR 6 cost model: every component re-solved on
//     every event) and the incremental/partitioned mode. Every completion
//     timestamp must match bit-for-bit between the modes (a 1-ulp rate divergence shifts a picosecond deadline); the
//     wall-clock ratio is the tracked speedup and must stay >= 2x on the
//     largest row.
//
// Wall-clock numbers vary with the host; the speedup columns are the
// quantity tracked across commits.
//
// Flags (beyond the common bench flags): --min-cpus N declares the minimum
// host core count the invoker expects (CI passes it so a runner downgrade
// fails the job loudly instead of silently emitting "skipped" rows).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "bench_common.hpp"
#include "gpucomm/harness/parallel.hpp"
#include "gpucomm/net/fairshare.hpp"
#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"

using namespace gpucomm;
using namespace gpucomm::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- section 1: solver ------------------------------------------------------

/// A randomized allocation problem shaped like the ones Network produces:
/// short routes over a shared fabric, a minority of capped flows, a few
/// empty routes (pure local transfers) and zero-capacity (down) links.
FairshareProblem random_problem(std::size_t links, std::size_t flows,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cap_dist(25e9, 400e9);
  std::uniform_int_distribution<std::size_t> link_dist(0, links - 1);
  std::uniform_int_distribution<int> len_dist(2, 8);
  std::uniform_int_distribution<int> pct(0, 99);

  FairshareProblem p;
  p.capacity.resize(links);
  for (std::size_t l = 0; l < links; ++l) {
    p.capacity[l] = pct(rng) < 2 ? 0.0 : cap_dist(rng);
  }
  p.flows.resize(flows);
  p.caps.assign(flows, std::numeric_limits<Bandwidth>::infinity());
  for (std::size_t i = 0; i < flows; ++i) {
    if (pct(rng) < 3) continue;  // empty route: no network constraint
    const int len = len_dist(rng);
    std::vector<LinkId>& route = p.flows[i];
    for (int k = 0; k < len; ++k) {
      const LinkId l = static_cast<LinkId>(link_dist(rng));
      if (std::find(route.begin(), route.end(), l) == route.end()) route.push_back(l);
    }
    if (pct(rng) < 20) p.caps[i] = cap_dist(rng) / 4;
  }
  return p;
}

void solver_section(Table& t) {
  struct Scale {
    std::size_t links, flows;
    int reps;
  };
  for (const Scale s : {Scale{256, 512, 400}, Scale{1024, 4096, 60}, Scale{4096, 16384, 15}}) {
    const FairshareProblem p = random_problem(s.links, s.flows, /*seed=*/0xf00d + s.flows);
    std::vector<const Route*> routes;
    routes.reserve(p.flows.size());
    for (const std::vector<LinkId>& r : p.flows) routes.push_back(&r);

    const std::vector<Bandwidth> want = maxmin_fair_rates(p);
    FairshareSolver solver;

    const auto t_ref = std::chrono::steady_clock::now();
    for (int r = 0; r < s.reps; ++r) {
      const std::vector<Bandwidth> got = maxmin_fair_rates(p);
      if (got != want) {
        std::cerr << "error: reference solver is not deterministic\n";
        std::exit(1);
      }
    }
    const double ref_ms = ms_since(t_ref);

    const auto t_fast = std::chrono::steady_clock::now();
    for (int r = 0; r < s.reps; ++r) {
      const std::vector<Bandwidth>& got = solver.solve(p.capacity, routes, p.caps);
      if (got != want) {
        std::cerr << "error: FairshareSolver diverged from maxmin_fair_rates\n";
        std::exit(1);
      }
    }
    const double fast_ms = ms_since(t_fast);

    t.add_row({std::to_string(s.links), std::to_string(s.flows), std::to_string(s.reps),
               fmt(ref_ms, 1), fmt(fast_ms, 1), fmt(ref_ms / fast_ms, 2)});
  }
}

// --- section 2: end_to_end --------------------------------------------------

constexpr Bytes kBuffer = 64_MiB;
constexpr int kExactLimitGpus = 32;

struct Cell {
  SystemConfig cfg;
  Mechanism mech;
  int gpus;
  std::uint64_t seed;
};

double run_cell(const Cell& c) {
  ClusterOptions copt;
  copt.nodes = c.gpus / c.cfg.gpus_per_node;
  copt.placement = Placement::kScatterSwitches;
  copt.seed = c.seed;
  Cluster cluster(c.cfg, copt);
  CommOptions opt;
  opt.env = c.cfg.tuned_env();
  auto comm = make_comm(c.mech, cluster, first_n_gpus(cluster, c.gpus), opt);
  return goodput_gbps(kBuffer, comm->time_allreduce(kBuffer));
}

void end_to_end_section(Table& t, int min_cpus) {
  std::vector<Cell> cells;
  for (const SystemConfig& cfg : all_systems()) {
    for (int gpus = cfg.gpus_per_node; gpus <= kExactLimitGpus; gpus *= 2) {
      for (const Mechanism mech : {Mechanism::kCcl, Mechanism::kMpi}) {
        for (int rep = 0; rep < 2; ++rep) {
          cells.push_back({cfg, mech, gpus, cell_seed(42, cells.size(), rep)});
        }
      }
    }
  }

  std::vector<double> serial(cells.size());
  const auto t_serial = std::chrono::steady_clock::now();
  run_cells(1, cells.size(), [&](std::size_t i) { serial[i] = run_cell(cells[i]); });
  const double serial_ms = ms_since(t_serial);

  // The speedup is bounded by the host's core count; record it so the
  // archived trend is interpretable across runner generations. On a 1-CPU
  // runner the pool cannot beat the serial run, so the comparison row is an
  // explicit skip marker rather than a meaningless ~1.0x data point.
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::string cpus = std::to_string(host_cpus);
  t.add_row({"1", std::to_string(cells.size()), cpus, fmt(serial_ms, 0), "1.00"});
  if (host_cpus < static_cast<unsigned>(min_cpus)) {
    // The invoker declared it expects a multi-core comparison table; a
    // silently-skipped row would archive as a gap nobody notices. Fail loud.
    std::cerr << "error: --min-cpus " << min_cpus << " but the host reports " << host_cpus
              << " core(s); the parallel-harness table cannot be produced\n";
    std::exit(1);
  }
  if (host_cpus <= 1) {
    t.add_row({"-", std::to_string(cells.size()), cpus, "-", "skipped: 1 cpu"});
    return;
  }

  const int workers = jobs() > 0 ? jobs() : 4;
  std::vector<double> parallel(cells.size());
  const auto t_par = std::chrono::steady_clock::now();
  run_cells(workers, cells.size(), [&](std::size_t i) { parallel[i] = run_cell(cells[i]); });
  const double par_ms = ms_since(t_par);

  if (parallel != serial) {
    std::cerr << "error: parallel cells diverged from the serial run\n";
    std::exit(1);
  }

  t.add_row({std::to_string(workers), std::to_string(cells.size()), cpus, fmt(par_ms, 0),
             fmt(serial_ms / par_ms, 2)});
}

// --- section 3: incremental event replay ------------------------------------

// A "regional" fabric: independent regions of 16 links each (two leaves of
// three GPUs and a shared spine), so most reallocation events are local to
// one region. This is the shape that favors the incremental solver; the
// full-resolve reference re-solves the whole active set on every event,
// which is exactly what every pre-PR-7 run paid.
struct ReplayScript {
  struct Entry {
    std::uint32_t region;
    std::uint8_t src, dst;  // GPU index within the region, 0..5
    Bytes bytes;
  };
  int regions = 0;
  int waves = 0;
  std::vector<Entry> entries;  // wave-major, one per (wave, region)
};

ReplayScript make_replay_script(int regions, int flows, std::uint64_t seed) {
  ReplayScript sc;
  sc.regions = regions;
  sc.waves = flows / regions;
  sc.entries.reserve(static_cast<std::size_t>(sc.waves) * regions);
  Rng rng(seed);
  for (int w = 0; w < sc.waves; ++w) {
    for (int r = 0; r < regions; ++r) {
      ReplayScript::Entry e;
      e.region = static_cast<std::uint32_t>(r);
      e.src = static_cast<std::uint8_t>(rng.uniform_int(6));
      e.dst = static_cast<std::uint8_t>(rng.uniform_int(6));
      if (e.dst == e.src) e.dst = (e.dst + 1) % 6;
      e.bytes = static_cast<Bytes>(128_KiB << rng.uniform_int(5));  // 128 KiB .. 2 MiB
      sc.entries.push_back(e);
    }
  }
  return sc;
}

/// Replay the script through one solver configuration; returns wall-clock ms
/// and appends every (flow index, completion ps) pair to `delivered`.
double run_replay(const ReplayScript& sc, SolverMode mode,
                  std::vector<std::pair<std::uint32_t, std::int64_t>>& delivered) {
  Graph g;
  struct Region {
    std::vector<LinkId> up;  // gpu -> leaf duplex, 6 per region
    LinkId trunk[2];         // leaf -> spine duplex
  };
  std::vector<Region> regions(sc.regions);
  for (Region& region : regions) {
    const DeviceId spine = g.add_device({DeviceKind::kSwitch, -1, 0, "spine"});
    DeviceId leaves[2];
    for (int l = 0; l < 2; ++l) {
      leaves[l] = g.add_device({DeviceKind::kSwitch, -1, l, "leaf"});
      region.trunk[l] =
          g.add_duplex_link(leaves[l], spine, gbps(200), microseconds(2), LinkType::kLeafSpine);
    }
    for (int k = 0; k < 6; ++k) {
      const DeviceId gpu = g.add_device({DeviceKind::kGpu, 0, k, "gpu"});
      region.up.push_back(
          g.add_duplex_link(gpu, leaves[k / 3], gbps(100), microseconds(1), LinkType::kNvLink));
    }
  }

  Engine engine;
  Network net(engine, g);
  net.set_solver_mode(mode);
  delivered.reserve(delivered.size() + sc.entries.size());

  // One engine event per wave; the network coalesces the wave's starts into
  // a single reallocation, completions then arrive one event each.
  for (int w = 0; w < sc.waves; ++w) {
    engine.at(microseconds(static_cast<double>(w) * 30.0), [&, w] {
      const std::size_t base = static_cast<std::size_t>(w) * sc.regions;
      for (int i = 0; i < sc.regions; ++i) {
        const ReplayScript::Entry& e = sc.entries[base + i];
        const Region& region = regions[e.region];
        Route route;
        route.push_back(region.up[e.src]);
        if (e.src / 3 != e.dst / 3) {
          route.push_back(region.trunk[e.src / 3]);
          route.push_back(region.trunk[e.dst / 3] + 1);
        }
        route.push_back(region.up[e.dst] + 1);
        const std::uint32_t index = static_cast<std::uint32_t>(base + i);
        net.start_flow({std::move(route), e.bytes, 0, 0}, [&delivered, index](SimTime t) {
          delivered.emplace_back(index, t.ps);
        });
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  return ms_since(t0);
}

void replay_section(Table& t) {
  struct Scale {
    int regions, flows;
  };
  double gate_speedup = 0;
  for (const Scale s : {Scale{64, 1 << 16}, Scale{256, 1 << 18}, Scale{1024, 1 << 20}}) {
    const ReplayScript sc = make_replay_script(s.regions, s.flows, /*seed=*/0xcafe + s.flows);
    std::vector<std::pair<std::uint32_t, std::int64_t>> full, inc;

    const double full_ms = run_replay(sc, SolverMode::kFullResolve, full);
    const double inc_ms = run_replay(sc, SolverMode::kIncremental, inc);
    if (inc != full) {
      std::cerr << "error: incremental replay diverged from the full-resolve reference\n";
      std::exit(1);
    }

    const double speedup = full_ms / inc_ms;
    gate_speedup = speedup;
    t.add_row({std::to_string(16 * s.regions), std::to_string(s.flows), fmt(full_ms, 1),
               fmt(inc_ms, 1), fmt(speedup, 2)});
  }
  if (gate_speedup < 2.0) {
    std::cerr << "error: incremental speedup below the 2x floor on the largest replay\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // bench::init rejects flags it does not know, so --min-cpus (specific to
  // this bench) is peeled off the argv first.
  int min_cpus = 0;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-cpus") == 0 && i + 1 < argc) {
      min_cpus = std::atoi(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  int rest = static_cast<int>(args.size());
  gpucomm::bench::init(rest, args.data(), gpucomm::bench::Parallel::kCells);
  header("perf", "wall-clock: solver fast path and parallel cell harness");

  std::cout << "\n--- solver: maxmin_fair_rates vs FairshareSolver (identical rates) ---\n";
  Table solver({"links", "flows", "reps", "reference_ms", "fastpath_ms", "speedup"});
  solver_section(solver);
  emit(solver, "perf_solver.csv");

  std::cout << "\n--- end-to-end: serial vs --jobs cell harness (identical results) ---\n";
  Table e2e({"jobs", "cells", "host_cpus", "wall_ms", "speedup"});
  end_to_end_section(e2e, min_cpus);
  emit(e2e, "perf_end_to_end.csv");

  std::cout << "\n--- incremental: event replay, full re-solve vs incremental "
               "(identical completions) ---\n";
  Table replay({"links", "flows", "full_ms", "incremental_ms", "speedup"});
  replay_section(replay);
  emit(replay, "perf_incremental.csv");
  return 0;
}
