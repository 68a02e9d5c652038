// The routing and noise probes of the traced run. Both run after the op
// list, on throwaway clusters: inter_node_route and resample consume RNG
// state, so a probe must never touch a cluster the workload measures.
#include <set>
#include <utility>

#include "gpucomm/systems/registry.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace gpucomm;

namespace {
constexpr int kResamples = 5;
}

void Workload::probe(Ctx& ctx) {
  // intra_node_route over every ordered GPU pair of every node, on a copy of
  // each cluster shape the workload built.
  std::set<std::pair<int, Placement>> layouts;
  std::size_t hops = 0;
  for (const Shape& shape : ctx.shapes) {
    ClusterOptions copt;
    copt.nodes = shape.nodes;
    copt.placement = shape.placement;
    copt.enable_noise = shape.noise;
    std::unique_ptr<Cluster> cluster;
    {
      Span s(ctx.tracer, "probe.cluster");
      cluster = std::make_unique<Cluster>(system_by_name(shape.system), copt);
    }
    const int per_node = cluster->gpus_per_node();
    for (int node = 0; node < cluster->num_nodes(); ++node) {
      for (int a = 0; a < per_node; ++a) {
        for (int b = 0; b < per_node; ++b) {
          if (a == b) continue;
          Span s(ctx.tracer, "routing.intra_route");
          hops += cluster->intra_node_route(node * per_node + a, node * per_node + b).size();
        }
      }
    }
    layouts.insert({shape.nodes, shape.placement});
  }
  if (hops == 0) ctx.fail("routing probe found no intra-node routes");

  // NoiseField::resample on a Leonardo cluster of each node count/placement.
  const SystemConfig leonardo = system_by_name("leonardo");
  for (const auto& [nodes, placement] : layouts) {
    ClusterOptions copt;
    copt.nodes = nodes;
    copt.placement = placement;
    Cluster cluster(leonardo, copt);
    NoiseField* noise = cluster.noise_field();
    if (noise == nullptr) continue;
    for (int i = 0; i < kResamples; ++i) {
      Span s(ctx.tracer, "noise.resample");
      noise->resample();
    }
  }
}

}  // namespace perfbench
