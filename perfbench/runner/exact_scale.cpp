// Workload `exact_scale`: the exact flow simulations of fig09 (2 MiB
// alltoall up to 64 GPUs), fig10 (1 GiB allreduce up to 32 GPUs) and fig11
// (LUMI, 2 and 4 nodes), built as the benches build them and checked against
// data/*.csv, then one LUMI GPU-aware-MPI 2 MiB alltoall at 128 GPUs checked
// against the simulated time recorded below. One op is one Communicator
// time_* call; cluster builds and communicator set-up count in wall time.
//
// The two parts use the network solver's reuse stack in opposite ways: the
// small cells hit the per-component allocation cache about half the time,
// while the 128-GPU point couples all flows into components that exceed the
// incremental threshold and are solved in full. Their solver counters are
// kept apart ("cells" and "coupled").
#include <cstdint>
#include <string>
#include <vector>

#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/harness/table.hpp"
#include "gpucomm/systems/registry.hpp"
#include "scale_rows.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gpucomm;

constexpr int kCoupledGpus = 128;
/// Simulated duration of the 128-GPU point (picoseconds), recorded from the
/// library at the commit that added this benchmark; no data/*.csv holds it.
constexpr std::int64_t kCoupledExpectedPs = 397889261;

class ExactScale final : public Workload {
 public:
  explicit ExactScale(Ctx& ctx) : systems_(all_systems()) {
    for (const SystemConfig& cfg : systems_) {
      ctx.load_reference("fig09_" + cfg.name + ".csv");
      ctx.load_reference("fig10_" + cfg.name + ".csv");
    }
    ctx.load_reference(fig11_csv(CollKind::kAlltoall));
    ctx.load_reference(fig11_csv(CollKind::kAllreduce));
  }

  void pass(Ctx& ctx) override {
    exact_cells(ctx, fig09_spec());
    exact_cells(ctx, fig10_spec());
    fig11_exact(ctx);
    coupled_point(ctx);
  }

  void layers(const Ctx&, Metrics& m) const override { m["comm.coupled_op_s"] = coupled_op_s_; }

 private:
  // fig09/fig10 exact-sim rows, in the benches' cell order.
  void exact_cells(Ctx& ctx, const ScaleSweep& sweep) {
    for (const SystemConfig& cfg : systems_) {
      const std::string csv = sweep.fig + "_" + cfg.name + ".csv";
      for (int gpus = cfg.gpus_per_node; gpus <= sweep.exact_limit_gpus; gpus *= 2) {
        for (const Library lib : {Library::kCcl, Library::kMpi}) {
          if (!ctx.more()) return;
          if (gpus > paper_cap(cfg, lib)) continue;
          if (sweep.kind == CollKind::kAlltoall && alltoall_stalls(cfg, lib, gpus)) continue;
          ClusterOptions copt;
          copt.nodes = gpus / cfg.gpus_per_node;
          copt.placement = Placement::kScatterSwitches;
          auto cluster = ctx.build_cluster(cfg, copt);
          CommOptions opt;
          opt.env = cfg.tuned_env();
          auto comm = ctx.make_comm(lib == Library::kCcl ? Mechanism::kCcl : Mechanism::kMpi,
                                    *cluster, first_n_gpus(*cluster, gpus), opt);
          SimTime t;
          if (ctx.op([&] {
                t = ctx.comm_op([&] {
                  return sweep.kind == CollKind::kAlltoall ? comm->time_alltoall(sweep.buffer)
                                                           : comm->time_allreduce(sweep.buffer);
                });
              })) {
            ctx.check(csv, 2, {std::to_string(gpus), to_string(lib),
                               fmt(goodput_gbps(sweep.buffer, t), 2), "exact-sim"});
          }
          ctx.account(*cluster, "cells");
        }
      }
    }
  }

  // fig11's 2- and 4-node cells: RCCL and MPI on one LUMI cluster per cell.
  void fig11_exact(Ctx& ctx) {
    const SystemConfig cfg = lumi_config();
    for (const CollKind kind : {CollKind::kAlltoall, CollKind::kAllreduce}) {
      for (Bytes b = 1_KiB; b <= 1_GiB; b *= 8) {
        Row row{format_bytes(b)};
        for (const int nodes : {2, 4}) {
          if (!ctx.more()) return;
          auto cluster = ctx.build_cluster(cfg, {.nodes = nodes});
          CommOptions opt;
          opt.env = cfg.tuned_env();
          const auto gpus = first_n_gpus(*cluster, nodes * cfg.gpus_per_node);
          auto ccl = ctx.make<CclComm>(*cluster, gpus, opt);
          auto mpi = ctx.make<MpiComm>(*cluster, gpus, opt);
          const auto time = [&](Communicator& c) {
            return ctx.comm_op([&] {
              return kind == CollKind::kAlltoall ? c.time_alltoall(b) : c.time_allreduce(b);
            });
          };
          SimTime tc;
          SimTime tm;
          const bool ok = ctx.op([&] { tc = time(*ccl); }) && ctx.op([&] { tm = time(*mpi); });
          const double r = tm.seconds() / tc.seconds();
          row.push_back(!ok ? "failed" : r > 0 ? fmt(r, 2) : "stall");
          ctx.account(*cluster, "cells");
        }
        row.resize(7);
        ctx.check(fig11_csv(kind), 1, row);
      }
    }
  }

  void coupled_point(Ctx& ctx) {
    if (!ctx.more()) return;
    const SystemConfig cfg = lumi_config();
    ClusterOptions copt;
    copt.nodes = kCoupledGpus / cfg.gpus_per_node;
    copt.placement = Placement::kScatterSwitches;
    auto cluster = ctx.build_cluster(cfg, copt);
    CommOptions opt;
    opt.env = cfg.tuned_env();
    auto comm = ctx.make_comm(Mechanism::kMpi, *cluster, first_n_gpus(*cluster, kCoupledGpus), opt);
    SimTime t;
    const std::int64_t t0 = now_ns();
    if (ctx.op([&] { t = ctx.comm_op([&] { return comm->time_alltoall(2_MiB); }); })) {
      if (t.ps != kCoupledExpectedPs) {
        ctx.fail("coupled 128-GPU alltoall: got " + std::to_string(t.ps) + " ps, want " +
                 std::to_string(kCoupledExpectedPs));
      }
    }
    coupled_op_s_ = (now_ns() - t0) * 1e-9;
    ctx.account(*cluster, "coupled");
  }

  std::vector<SystemConfig> systems_;
  double coupled_op_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_exact_scale(Ctx& ctx) { return std::make_unique<ExactScale>(ctx); }

}  // namespace perfbench
