// The benchmark's workloads. Constructing one is its set-up (registry and
// reference loading, stream generation); pass() runs its fixed op list once;
// verify() runs checks that must stay outside the timed region; probe()
// (traced run only) times the routing and noise layers on throwaway
// clusters; layers() adds the workload's own per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "context.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void pass(Ctx& ctx) = 0;
  virtual void verify(Ctx&) {}
  virtual void probe(Ctx& ctx);
  virtual void layers(const Ctx&, Metrics&) const {}
};

std::unique_ptr<Workload> make_figures(Ctx& ctx);
std::unique_ptr<Workload> make_exact_scale(Ctx& ctx);
std::unique_ptr<Workload> make_serve_sweep(Ctx& ctx, std::uint64_t seed);

}  // namespace perfbench
