// The fig09/fig10/fig11 sweep definitions shared by `figures` (model rows)
// and `exact_scale` (exact-sim rows), copied from the benches so both
// workloads split one table the way the bench fills it.
#pragma once

#include <string>

#include "context.hpp"
#include "gpucomm/scale/scale_model.hpp"

namespace perfbench {

struct ScaleSweep {
  std::string fig;  // CSV stem prefix
  gpucomm::CollKind kind;
  gpucomm::Bytes buffer;
  int exact_limit_gpus;  // rows up to here are exact simulations
};

inline ScaleSweep fig09_spec() {
  using namespace gpucomm;
  return {"fig09", CollKind::kAlltoall, 2_MiB, 64};
}
inline ScaleSweep fig10_spec() {
  using namespace gpucomm;
  return {"fig10", CollKind::kAllreduce, 1_GiB, 32};
}

inline std::string fig11_csv(gpucomm::CollKind kind) {
  return kind == gpucomm::CollKind::kAlltoall ? "fig11_lumi_alltoall.csv"
                                              : "fig11_lumi_allreduce.csv";
}

/// The paper's per-system measurement caps (job-size limits, Sec. V-C).
inline int paper_cap(const gpucomm::SystemConfig& cfg, gpucomm::Library lib) {
  if (cfg.name == "leonardo") return 1024;
  if (cfg.name == "alps") return lib == gpucomm::Library::kMpi ? 2048 : 4096;
  return 4096;
}

/// NCCL/RCCL alltoall hangs at the paper's reported rank counts.
inline bool alltoall_stalls(const gpucomm::SystemConfig& cfg, gpucomm::Library lib, int gpus) {
  return lib == gpucomm::Library::kCcl && cfg.ccl.alltoall_stall_ranks > 0 &&
         gpus >= cfg.ccl.alltoall_stall_ranks;
}

/// One scale-model call inside a scale.model span.
inline gpucomm::ScaleResult scale_model(Ctx& ctx, const gpucomm::SystemConfig& cfg,
                                        gpucomm::CollKind kind, gpucomm::Library lib,
                                        gpucomm::Bytes buffer, int gpus) {
  Span s(ctx.tracer, "scale.model");
  return kind == gpucomm::CollKind::kAlltoall ? gpucomm::alltoall_at_scale(cfg, lib, buffer, gpus)
                                              : gpucomm::allreduce_at_scale(cfg, lib, buffer, gpus);
}

}  // namespace perfbench
