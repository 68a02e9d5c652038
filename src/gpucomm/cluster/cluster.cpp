#include "gpucomm/cluster/cluster.hpp"

#include <cassert>
#include <stdexcept>

#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/noise/noise_model.hpp"

namespace gpucomm {

Cluster::Cluster(SystemConfig config, ClusterOptions options)
    : config_(std::move(config)), rng_(options.seed) {
  // Fabric first: switch construction precedes node attachment.
  fabric_ = make_fabric(graph_, config_, options.placement);

  if (static_cast<std::size_t>(options.nodes) > fabric_->max_nodes())
    throw std::invalid_argument("more nodes requested than the fabric can host");

  nodes_.reserve(options.nodes);
  for (int n = 0; n < options.nodes; ++n) {
    nodes_.push_back(build_node(graph_, config_.arch, n));
    fabric_->attach_node(graph_, nodes_.back());
  }

  finish_init(options);
}

Cluster::Cluster(const TopologySnapshot& topo, ClusterOptions options)
    : config_(topo.config),
      graph_(topo.graph),
      fabric_(topo.fabric->clone()),
      nodes_(topo.node_devices),
      rng_(options.seed) {
  if (options.nodes != topo.nodes || options.placement != topo.placement)
    throw std::invalid_argument("cluster options do not match the topology snapshot");
  finish_init(options);
}

void Cluster::finish_init(const ClusterOptions& options) {
  network_ = std::make_unique<Network>(engine_, graph_);
  network_->set_congestion(
      {config_.congestion.flow_threshold, config_.congestion.rate_factor});
  if (options.enable_noise && config_.noise.production_noise) {
    noise_ = std::make_unique<ProductionNoise>(graph_, config_.noise, rng_.fork("noise"));
    network_->set_noise(noise_.get());
  }
}

Cluster::~Cluster() = default;

DeviceId Cluster::gpu_device(int gpu) const {
  return nodes_[node_of_gpu(gpu)].gpus[local_index(gpu)];
}

DeviceId Cluster::nic_of_gpu(int gpu) const {
  return nodes_[node_of_gpu(gpu)].closest_nic[local_index(gpu)];
}

DeviceId Cluster::numa_of_gpu(int gpu) const {
  return nodes_[node_of_gpu(gpu)].closest_numa[local_index(gpu)];
}

void Cluster::set_faults(const fault::FaultModel* faults) {
  faults_ = faults;
  network_->set_faults(faults);
}

Route Cluster::intra_node_route(int gpu_a, int gpu_b) const {
  assert(same_node(gpu_a, gpu_b));
  RouteOptions opts = gpu_fabric_options();
  if (faults_ != nullptr) {
    const auto fabric_only = std::move(opts.link_filter);
    opts.link_filter = [this, fabric_only](LinkId id, const Link& l) {
      return fabric_only(id, l) && faults_->link_up(id);
    };
  }
  const auto route = shortest_route(graph_, gpu_device(gpu_a), gpu_device(gpu_b), opts);
  if (route.has_value()) return *route;
  assert(faults_ != nullptr && "intra-node GPU fabric must be connected");
  return {};  // every GPU-fabric path is cut right now
}

Route Cluster::inter_node_route(DeviceId src_endpoint, int src_gpu, DeviceId dst_endpoint,
                                int dst_gpu) {
  if (faults_ == nullptr) {
    const DeviceId src_nic = nic_of_gpu(src_gpu);
    const DeviceId dst_nic = nic_of_gpu(dst_gpu);
    Route r;
    const LinkId up = graph_.find_link(src_endpoint, src_nic);
    assert(up != kInvalidLink && "endpoint must attach to its NIC");
    r.push_back(up);
    const Route fab = fabric_->route(graph_, src_nic, dst_nic, rng_);
    r.insert(r.end(), fab.begin(), fab.end());
    const LinkId down = graph_.find_link(dst_nic, dst_endpoint);
    assert(down != kInvalidLink);
    r.push_back(down);
    return r;
  }

  const LinkFilter link_ok = [this](LinkId id) { return faults_->link_up(id); };
  // Candidate NICs in deterministic failover order: the rank's nominal NIC
  // first, then the node's remaining NICs (reached over the intra-node
  // fabric, e.g. the peer GCD's NIC on LUMI).
  const auto candidates = [this](int gpu) {
    const NodeDevices& node = nodes_[node_of_gpu(gpu)];
    std::vector<DeviceId> out{node.closest_nic[local_index(gpu)]};
    for (const DeviceId nic : node.nics) {
      if (nic != out.front()) out.push_back(nic);
    }
    return out;
  };
  // Endpoint <-> NIC legs stay inside the endpoint's node (never transiting
  // the fabric or another node's devices).
  const auto node_leg = [this, &link_ok](DeviceId from, DeviceId to) {
    RouteOptions opts;
    opts.link_filter = [this, &link_ok](LinkId id, const Link& l) {
      return link_ok(id) && graph_.device(l.src).node == graph_.device(l.dst).node;
    };
    const auto leg = shortest_route(graph_, from, to, opts);
    return leg.value_or(Route{});
  };
  for (const DeviceId src_nic : candidates(src_gpu)) {
    const Route head = node_leg(src_endpoint, src_nic);
    if (head.empty()) continue;
    for (const DeviceId dst_nic : candidates(dst_gpu)) {
      const Route tail = node_leg(dst_nic, dst_endpoint);
      if (tail.empty()) continue;
      const Route fab = fabric_->route(graph_, src_nic, dst_nic, rng_, link_ok);
      if (fab.empty()) continue;
      Route r = head;
      r.insert(r.end(), fab.begin(), fab.end());
      r.insert(r.end(), tail.begin(), tail.end());
      return r;
    }
  }
  return {};  // destination currently unreachable
}

NetworkDistance Cluster::distance(int gpu_a, int gpu_b) const {
  if (same_node(gpu_a, gpu_b)) return NetworkDistance::kSameNode;
  return fabric_->classify(nic_of_gpu(gpu_a), nic_of_gpu(gpu_b));
}

}  // namespace gpucomm
