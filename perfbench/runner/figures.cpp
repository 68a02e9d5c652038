// Workload `figures`: the rows of the figure benches whose cost is routing,
// noise sampling, communicator set-up and the scale model, rebuilt in the
// benches' order with the benches' seed (42) and checked row by row against
// the checked-in data/*.csv. One op is one table row.
//
// Each block mirrors its bench's main() call for call, so every RNG draw
// happens in the same order and the rows come out identical; the exact-sim
// rows of fig09/fig10/fig11 belong to the `exact_scale` workload.
#include <string>
#include <vector>

#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/harness/table.hpp"
#include "gpucomm/scale/scale_model.hpp"
#include "gpucomm/systems/registry.hpp"
#include "scale_rows.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gpucomm;

/// The benches' message-size sweep (powers of four from 1 B to 1 GiB).
std::vector<Bytes> size_sweep() {
  std::vector<Bytes> sizes;
  for (Bytes b = 1; b <= 1_GiB; b *= 4) sizes.push_back(b);
  if (sizes.back() != 1_GiB) sizes.push_back(1_GiB);
  return sizes;
}

std::vector<Mechanism> intra_mechanisms(const SystemConfig& cfg) {
  std::vector<Mechanism> m{Mechanism::kStaging, Mechanism::kCcl, Mechanism::kMpi};
  if (cfg.gpu.peer_access) m.insert(m.begin() + 1, Mechanism::kDeviceCopy);
  return m;
}

// ablation_allreduce_algo's algorithm labels.
const char* ccl_algo(Bytes buffer, int gpus, int gpus_per_node) {
  const int nodes = gpus / gpus_per_node;
  if (nodes > 1 && buffer <= 16_KiB && nodes >= 16) return "tree";
  return nodes > 1 ? "hier-ring" : "rings/rs-ag";
}

const char* mpi_algo(const SystemConfig& sys, Bytes buffer, int gpus) {
  if (sys.mpi.host_staged_allreduce) return "host-ring";
  if (buffer <= 64_KiB && (gpus & (gpus - 1)) == 0) return "recursive-dbl";
  return "gpu-staged-ring";
}

Placement placement_for(NetworkDistance d) {
  switch (d) {
    case NetworkDistance::kSameSwitch: return Placement::kPacked;
    case NetworkDistance::kSameGroup: return Placement::kScatterSwitches;
    default: return Placement::kScatterGroups;
  }
}

class Figures final : public Workload {
 public:
  explicit Figures(Ctx& ctx) : systems_(all_systems()) {
    for (const SystemConfig& cfg : systems_) {
      for (const char* fig : {"fig03_", "fig05_", "fig06_", "ablation_allreduce_algo_", "fig07_",
                              "fig08_", "fig09_", "fig10_"}) {
        ctx.load_reference(fig + cfg.name + ".csv");
      }
    }
    ctx.load_reference(fig11_csv(CollKind::kAlltoall));
    ctx.load_reference(fig11_csv(CollKind::kAllreduce));
  }

  void pass(Ctx& ctx) override {
    fig03(ctx);
    intra_collective(ctx, "fig05_", CollKind::kAlltoall);
    intra_collective(ctx, "fig06_", CollKind::kAllreduce);
    ablation_allreduce_algo(ctx);
    fig07(ctx);
    fig08(ctx);
    model_rows(ctx, fig09_spec());
    model_rows(ctx, fig10_spec());
    fig11_model(ctx);
  }

 private:
  void fig03(Ctx& ctx) {
    for (const SystemConfig& cfg : systems_) {
      if (!ctx.more()) return;
      auto cluster = ctx.build_cluster(cfg, {.nodes = 1});
      CommOptions opt;
      opt.env = cfg.tuned_env();
      const std::string csv = "fig03_" + cfg.name + ".csv";
      for (const Bytes b : size_sweep()) {
        for (const Mechanism m : intra_mechanisms(cfg)) {
          if (!ctx.more()) break;
          Row row;
          if (ctx.op([&] {
                auto comm = ctx.make_comm(m, *cluster, {0, 1}, opt);
                const Samples s = ctx.run_iterations(*cluster, run_config_for(b), [&] {
                  return SimTime{comm->time_pingpong(0, 1, b).ps / 2};
                });
                row = {format_bytes(b), to_string(m), fmt(s.summary().median),
                       fmt(s.goodput_summary(b).median, 1)};
              })) {
            ctx.check(csv, 2, row);
          }
        }
      }
      ctx.account(*cluster);
    }
  }

  // fig05 (alltoall) and fig06 (allreduce): every mechanism over all GPUs of
  // one node.
  void intra_collective(Ctx& ctx, const std::string& fig, CollKind kind) {
    for (const SystemConfig& cfg : systems_) {
      if (!ctx.more()) return;
      auto cluster = ctx.build_cluster(cfg, {.nodes = 1});
      CommOptions opt;
      opt.env = cfg.tuned_env();
      std::vector<int> gpus;
      for (int i = 0; i < cfg.gpus_per_node; ++i) gpus.push_back(i);
      const std::string csv = fig + cfg.name + ".csv";
      for (const Bytes b : size_sweep()) {
        if (b < static_cast<Bytes>(cfg.gpus_per_node)) continue;
        for (const Mechanism m : intra_mechanisms(cfg)) {
          if (!ctx.more()) break;
          Row row;
          if (ctx.op([&] {
                auto comm = ctx.make_comm(m, *cluster, gpus, opt);
                const SimTime dur = ctx.comm_op([&] {
                  return kind == CollKind::kAlltoall ? comm->time_alltoall(b)
                                                     : comm->time_allreduce(b);
                });
                row = {format_bytes(b), to_string(m), fmt(dur.micros()),
                       fmt(goodput_gbps(b, dur), 1)};
              })) {
            ctx.check(csv, 2, row);
          }
        }
      }
      ctx.account(*cluster);
    }
  }

  void ablation_allreduce_algo(Ctx& ctx) {
    for (const SystemConfig& cfg : systems_) {
      if (!ctx.more()) return;
      const int nodes = 16;
      const int gpus = nodes * cfg.gpus_per_node;
      auto cluster = ctx.build_cluster(cfg, {.nodes = nodes});
      CommOptions opt;
      opt.env = cfg.tuned_env();
      const auto ranks = first_n_gpus(*cluster, gpus);
      auto ccl = ctx.make<CclComm>(*cluster, ranks, opt);
      auto mpi = ctx.make<MpiComm>(*cluster, ranks, opt);
      const std::string csv = "ablation_allreduce_algo_" + cfg.name + ".csv";
      for (Bytes b = 4_KiB; b <= 256_MiB && ctx.more(); b *= 4) {
        Row row;
        if (ctx.op([&] {
              const double tc = ctx.comm_op([&] { return ccl->time_allreduce(b); }).micros();
              const double tm = ctx.comm_op([&] { return mpi->time_allreduce(b); }).micros();
              row = {format_bytes(b), fmt(tc, 1), ccl_algo(b, gpus, cfg.gpus_per_node),
                     fmt(tm, 1), mpi_algo(cfg, b, gpus), fmt(tm / tc, 2)};
            })) {
          ctx.check(csv, 1, row);
        }
      }
      ctx.account(*cluster);
    }
  }

  void fig07(Ctx& ctx) {
    struct Stack {
      const char* label;
      Mechanism mech;
      MemSpace space;
    };
    const Stack stacks[] = {{"mpi-host", Mechanism::kMpi, MemSpace::kHost},
                            {"mpi-gpu", Mechanism::kMpi, MemSpace::kDevice},
                            {"ccl-gpu", Mechanism::kCcl, MemSpace::kDevice}};
    for (const SystemConfig& cfg : systems_) {
      const std::string csv = "fig07_" + cfg.name + ".csv";
      for (const Bytes b : size_sweep()) {
        for (const Stack& stack : stacks) {
          if (!ctx.more()) return;
          Row row;
          if (ctx.op([&] {
                auto cluster = ctx.build_cluster(cfg, {.nodes = 2});
                CommOptions opt;
                opt.env = cfg.tuned_env();
                opt.space = stack.space;
                auto comm = ctx.make_comm(stack.mech, *cluster,
                                          first_n_gpus(*cluster, 2 * cfg.gpus_per_node), opt);
                const SimTime t2 = ctx.comm_op(
                    [&] { return comm->time_pingpong(0, cfg.gpus_per_node, b); });
                const double per_pair = goodput_gbps(b, SimTime{t2.ps / 2});
                row = {format_bytes(b), stack.label, fmt(t2.micros() / 2),
                       fmt(per_pair * cfg.nics_per_node, 1)};
                ctx.account(*cluster);
              })) {
            ctx.check(csv, 2, row);
          }
        }
      }
    }
  }

  void fig08(Ctx& ctx) {
    for (const SystemConfig& cfg : systems_) {
      const std::string csv = "fig08_" + cfg.name + ".csv";
      for (const NetworkDistance d : {NetworkDistance::kSameSwitch, NetworkDistance::kSameGroup,
                                      NetworkDistance::kDiffGroup}) {
        if (!ctx.more()) return;
        ClusterOptions copt;
        copt.nodes = 6;
        copt.placement = placement_for(d);
        auto cluster = ctx.build_cluster(cfg, copt);
        const auto nodes = find_node_pair(*cluster, d);
        if (nodes) {
          const std::vector<int> pair{nodes->first * cfg.gpus_per_node,
                                      nodes->second * cfg.gpus_per_node};
          for (const MemSpace space : {MemSpace::kDevice, MemSpace::kHost}) {
            if (!ctx.more()) break;
            Row row;
            if (ctx.op([&] {
                  CommOptions opt;
                  opt.env = cfg.tuned_env();
                  opt.space = space;
                  auto mpi = ctx.make<MpiComm>(*cluster, pair, opt);
                  const Summary lat = ctx.run_iterations(*cluster, RunConfig{100, 3}, [&] {
                                           return SimTime{mpi->time_pingpong(0, 1, 1).ps / 2};
                                         }).summary();
                  const Summary gp = ctx.run_iterations(*cluster, RunConfig{40, 2}, [&] {
                                          return SimTime{mpi->time_pingpong(0, 1, 1_GiB).ps / 2};
                                        }).goodput_summary(1_GiB);
                  const double nics = cfg.nics_per_node;
                  row = {to_string(d), space == MemSpace::kDevice ? "gpu" : "host",
                         fmt(lat.mean), fmt(lat.median), fmt(lat.p95), fmt(lat.max),
                         fmt(gp.mean * nics, 0), fmt(gp.median * nics, 0),
                         fmt(gp.min * nics, 0)};
                })) {
              ctx.check(csv, 2, row);
            }
          }
        }
        ctx.account(*cluster);
      }
    }
  }

  // The model rows of fig09/fig10 (past the exact-sim limit); stall rows are
  // checked but are not ops, since they simulate nothing.
  void model_rows(Ctx& ctx, const ScaleSweep& sweep) {
    for (const SystemConfig& cfg : systems_) {
      const std::string csv = sweep.fig + "_" + cfg.name + ".csv";
      for (int gpus = cfg.gpus_per_node; gpus <= 4096; gpus *= 2) {
        for (const Library lib : {Library::kCcl, Library::kMpi}) {
          if (!ctx.more()) return;
          if (gpus > paper_cap(cfg, lib)) continue;
          if (sweep.kind == CollKind::kAlltoall && alltoall_stalls(cfg, lib, gpus)) {
            ctx.check(csv, 2, {std::to_string(gpus), to_string(lib), "stall", "benchmark hang"});
            continue;
          }
          if (gpus <= sweep.exact_limit_gpus) continue;
          Row row;
          if (ctx.op([&] {
                const ScaleResult r = scale_model(ctx, cfg, sweep.kind, lib, sweep.buffer, gpus);
                row = {std::to_string(gpus), to_string(lib), fmt(r.goodput_gbps, 2), "model"};
              })) {
            ctx.check(csv, 2, row);
          }
        }
      }
    }
  }

  // The model cells of fig11 (8 to 64 nodes); the 2- and 4-node cells are
  // exact simulations and belong to `exact_scale`.
  void fig11_model(Ctx& ctx) {
    const SystemConfig cfg = lumi_config();
    for (const CollKind kind : {CollKind::kAlltoall, CollKind::kAllreduce}) {
      const std::string csv = fig11_csv(kind);
      for (Bytes b = 1_KiB; b <= 1_GiB; b *= 8) {
        if (!ctx.more()) return;
        Row row{format_bytes(b), "", ""};
        if (ctx.op([&] {
              for (const int nodes : {8, 16, 32, 64}) {
                const int gpus = nodes * cfg.gpus_per_node;
                const ScaleResult c = scale_model(ctx, cfg, kind, Library::kCcl, b, gpus);
                const ScaleResult m = scale_model(ctx, cfg, kind, Library::kMpi, b, gpus);
                const double r =
                    c.stalled || m.goodput_gbps <= 0 ? 0 : c.goodput_gbps / m.goodput_gbps;
                row.push_back(r > 0 ? fmt(r, 2) : "stall");
              }
            })) {
          ctx.check(csv, 1, row);
        }
      }
    }
  }

  std::vector<SystemConfig> systems_;
};

}  // namespace

std::unique_ptr<Workload> make_figures(Ctx& ctx) { return std::make_unique<Figures>(ctx); }

}  // namespace perfbench
