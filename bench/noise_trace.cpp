// Per-iteration timing traces — the capability the paper built its own
// benchmark for ("both [OSU and nccl-tests] do not report individual
// per-iteration timings, which are needed to assess network noise and
// performance variability", Sec. III-A). Records every iteration of a
// cross-group 1-byte ping-pong and a 64 MiB transfer on Leonardo, default vs
// non-default service level, and dumps the full traces as CSV.
#include "bench_common.hpp"

using namespace gpucomm;
using namespace gpucomm::bench;

int main(int argc, char** argv) {
  gpucomm::bench::init(argc, argv);
  header("Noise trace", "Per-iteration latencies across Dragonfly+ groups (Leonardo)");

  const SystemConfig cfg = leonardo_config();
  ClusterOptions copt;
  copt.nodes = 4;
  copt.placement = Placement::kScatterGroups;
  Cluster cluster(cfg, copt);
  const auto pair_nodes = find_node_pair(cluster, NetworkDistance::kDiffGroup);
  if (!pair_nodes) return 1;
  const std::vector<int> pair{pair_nodes->first * cfg.gpus_per_node,
                              pair_nodes->second * cfg.gpus_per_node};

  const int iters = 300;
  Table trace({"iteration", "sl", "lat_1B_us", "goodput_64MiB_gbps"});
  Table summary({"sl", "lat_mean", "lat_p95", "lat_max", "gp_mean", "gp_min"});

  for (const int sl : {0, 1}) {
    CommOptions opt;
    opt.env = cfg.tuned_env();
    opt.env.ucx_ib_sl = sl;
    MpiComm mpi(cluster, pair, opt);
    const Samples lat = run_iterations(cluster, RunConfig{iters, 3}, [&] {
      return SimTime{mpi.time_pingpong(0, 1, 1).ps / 2};
    });
    const Samples bw = run_iterations(cluster, RunConfig{iters, 3}, [&] {
      return SimTime{mpi.time_pingpong(0, 1, 64_MiB).ps / 2};
    });
    for (int i = 0; i < iters; ++i) {
      const double gp = 64_MiB * 8.0 / (bw.us[i] * 1e-6) / 1e9;
      trace.add_row({std::to_string(i), std::to_string(sl), fmt(lat.us[i], 3), fmt(gp, 1)});
    }
    const Summary ls = lat.summary();
    const Summary gs = bw.goodput_summary(64_MiB);
    summary.add_row({std::to_string(sl), fmt(ls.mean), fmt(ls.p95), fmt(ls.max),
                     fmt(gs.mean, 1), fmt(gs.min, 1)});
  }

  emit(trace, "noise_trace_leonardo.csv");
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "\n(SL 0 shows the production-noise tail the aggregate statistics hide;\n"
            << " SL 1 is flat — exactly why the paper records per-iteration timings)\n";
  return 0;
}
