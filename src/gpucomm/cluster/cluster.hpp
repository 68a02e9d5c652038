// The assembled simulated machine: engine + device graph + fabric + flow
// network + per-node devices, built from a SystemConfig.
//
// Ranks follow the paper's methodology (Sec. III-A): one MPI process per
// GPU, pinned so each rank drives the GPU/NIC/NUMA domain closest to it.
// Global GPU index g lives on node g / gpus_per_node, local index
// g % gpus_per_node.
#pragma once

#include <memory>
#include <vector>

#include "gpucomm/hw/node.hpp"
#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/engine.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/system_config.hpp"
#include "gpucomm/topology/fabric.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {

enum class Placement : std::uint8_t {
  kPacked,           // fill switch after switch (same-switch neighbours)
  kScatterSwitches,  // round-robin switches inside one group (same-group pairs)
  kScatterGroups,    // round-robin groups (different-group pairs; production-like)
};

struct ClusterOptions {
  int nodes = 1;
  Placement placement = Placement::kPacked;
  /// Instantiate the production-noise field when the system has one
  /// (Leonardo). Disable to model a drained system.
  bool enable_noise = true;
  std::uint64_t seed = 42;
};

struct TopologySnapshot;

class Cluster {
 public:
  Cluster(SystemConfig config, ClusterOptions options);
  /// Build around a prebuilt topology (cluster/topo_snapshot.hpp): the graph
  /// and node tables are copied and the fabric is cloned, so the resulting
  /// cluster behaves bit-identically to one built from scratch with the
  /// snapshot's (config, nodes, placement) — only the construction cost
  /// differs. `options.nodes` and `options.placement` must match the
  /// snapshot's shape.
  Cluster(const TopologySnapshot& topo, ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const SystemConfig& config() const { return config_; }
  Engine& engine() { return engine_; }
  Network& network() { return *network_; }
  const Graph& graph() const { return graph_; }
  Fabric& fabric() { return *fabric_; }
  const Fabric& fabric() const { return *fabric_; }
  Rng& rng() { return rng_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int gpus_per_node() const { return config_.gpus_per_node; }
  int total_gpus() const { return num_nodes() * gpus_per_node(); }
  const NodeDevices& node(int idx) const { return nodes_[idx]; }

  /// Global GPU index -> location / devices.
  int node_of_gpu(int gpu) const { return gpu / gpus_per_node(); }
  int local_index(int gpu) const { return gpu % gpus_per_node(); }
  DeviceId gpu_device(int gpu) const;
  DeviceId nic_of_gpu(int gpu) const;
  DeviceId numa_of_gpu(int gpu) const;
  bool same_node(int gpu_a, int gpu_b) const { return node_of_gpu(gpu_a) == node_of_gpu(gpu_b); }

  /// Shortest GPU-fabric route between two GPUs on the same node. With a
  /// fault provider attached, downed links are routed around; an empty route
  /// means every GPU-fabric path is currently cut.
  Route intra_node_route(int gpu_a, int gpu_b) const;

  /// Inter-node route endpoint->NIC->fabric->NIC->endpoint. Endpoints are
  /// the GPUs (GDR path) or the NUMA domains (host buffers); each rank uses
  /// its closest NIC. Adaptive fabric choices consume the cluster RNG. With
  /// a fault provider attached, dead links are avoided — including failing
  /// over to another NIC of the node when the nominal one is unreachable —
  /// and an empty route means the destination is currently unreachable.
  Route inter_node_route(DeviceId src_endpoint, int src_gpu, DeviceId dst_endpoint, int dst_gpu);

  /// Network distance between the NICs of two GPUs (Fig. 8 classes).
  NetworkDistance distance(int gpu_a, int gpu_b) const;

  /// The production-noise field, if instantiated (nullptr otherwise).
  NoiseField* noise_field() { return noise_.get(); }

  /// Attach the fault subsystem's state provider (nullptr detaches; the
  /// FaultInjector registers itself here). Forwards to the network and makes
  /// every route the cluster hands out avoid downed links, failing over to a
  /// peer NIC of the node when a rank's nominal NIC is dead. With no provider
  /// attached all routing paths are branch-identical to a healthy machine.
  void set_faults(const fault::FaultModel* faults);
  const fault::FaultModel* faults() const { return faults_; }

  /// True when `link` is currently usable (always true without a provider).
  bool link_usable(LinkId link) const { return faults_ == nullptr || faults_->link_up(link); }

  /// Attach a telemetry sink (nullptr detaches). Forwards to the network and
  /// is picked up lazily by communicators, so it can be set any time before
  /// the traffic of interest is posted. Non-owning.
  void set_telemetry(telemetry::Sink* sink) {
    telemetry_ = sink;
    network_->set_telemetry(sink);
  }
  telemetry::Sink* telemetry() const { return telemetry_; }

 private:
  /// Shared tail of both constructors: flow network + noise field.
  void finish_init(const ClusterOptions& options);

  SystemConfig config_;
  Engine engine_;
  Graph graph_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<NoiseField> noise_;
  std::vector<NodeDevices> nodes_;
  Rng rng_;
  telemetry::Sink* telemetry_ = nullptr;
  const fault::FaultModel* faults_ = nullptr;
};

}  // namespace gpucomm
