#include "gpucomm/cluster/topo_snapshot.hpp"

#include <stdexcept>

#include "gpucomm/topology/dragonfly.hpp"
#include "gpucomm/topology/dragonfly_plus.hpp"
#include "gpucomm/topology/fat_tree.hpp"
#include "gpucomm/topology/intra_node.hpp"

namespace gpucomm {

std::unique_ptr<Fabric> make_fabric(Graph& g, const SystemConfig& cfg, Placement placement) {
  const FabricSpec& spec = cfg.fabric;
  if (spec.kind == FabricKind::kDragonfly) {
    DragonflyParams p = spec.dragonfly;
    p.wire.rate = cfg.nic.rate;  // the NIC wire runs at the NIC's rate
    switch (placement) {
      case Placement::kPacked: p.attach = DragonflyParams::Attach::kPacked; break;
      case Placement::kScatterSwitches:
        p.attach = DragonflyParams::Attach::kScatterSwitches;
        break;
      case Placement::kScatterGroups: p.attach = DragonflyParams::Attach::kScatterGroups; break;
    }
    return std::make_unique<Dragonfly>(g, p);
  }
  if (spec.kind == FabricKind::kDragonflyPlus) {
    DragonflyPlusParams p = spec.dragonfly_plus;
    p.edge.rate = cfg.nic.rate;  // the NIC wire runs at the NIC's rate
    switch (placement) {
      case Placement::kPacked: p.attach = DragonflyPlusParams::Attach::kPacked; break;
      case Placement::kScatterSwitches:
        p.attach = DragonflyPlusParams::Attach::kScatterSwitches;
        break;
      case Placement::kScatterGroups:
        p.attach = DragonflyPlusParams::Attach::kScatterGroups;
        break;
    }
    return std::make_unique<DragonflyPlus>(g, p);
  }
  FatTreeParams p = spec.fat_tree;
  p.edge_link.rate = cfg.nic.rate;
  switch (placement) {
    case Placement::kPacked: p.attach = FatTreeParams::Attach::kPacked; break;
    case Placement::kScatterSwitches:
      p.attach = FatTreeParams::Attach::kScatterSwitches;
      break;
    case Placement::kScatterGroups: p.attach = FatTreeParams::Attach::kScatterGroups; break;
  }
  return std::make_unique<FatTree>(g, p);
}

std::size_t TopologySnapshot::memory_bytes() const {
  std::size_t bytes = sizeof(TopologySnapshot);
  bytes += graph.device_count() * (sizeof(Device) + 32);  // label + adjacency slack
  bytes += graph.link_count() * (sizeof(Link) + 2 * sizeof(LinkId));  // + out/in lists
  for (const NodeDevices& n : node_devices) {
    bytes += sizeof(NodeDevices) +
             (n.gpus.size() + n.numas.size() + n.nics.size() + n.closest_nic.size() +
              n.closest_numa.size()) *
                 sizeof(DeviceId);
  }
  return bytes;
}

std::shared_ptr<const TopologySnapshot> build_topology_snapshot(const SystemConfig& cfg,
                                                                int nodes,
                                                                Placement placement) {
  auto snap = std::make_shared<TopologySnapshot>();
  snap->config = cfg;
  snap->nodes = nodes;
  snap->placement = placement;
  snap->fabric = make_fabric(snap->graph, cfg, placement);
  if (static_cast<std::size_t>(nodes) > snap->fabric->max_nodes())
    throw std::invalid_argument("more nodes requested than the fabric can host");
  snap->node_devices.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    snap->node_devices.push_back(build_node(snap->graph, cfg.arch, n));
    snap->fabric->attach_node(snap->graph, snap->node_devices.back());
  }
  return snap;
}

}  // namespace gpucomm
