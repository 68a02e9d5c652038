#include "gpucomm/topology/graph.hpp"

#include <algorithm>
#include <cassert>

namespace gpucomm {

const char* to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kGpu: return "gpu";
    case DeviceKind::kHost: return "host";
    case DeviceKind::kNic: return "nic";
    case DeviceKind::kSwitch: return "switch";
  }
  return "?";
}

const char* to_string(LinkType type) {
  switch (type) {
    case LinkType::kNvLink: return "nvlink";
    case LinkType::kInfinityFabric: return "xgmi";
    case LinkType::kPcie: return "pcie";
    case LinkType::kHostBus: return "hostbus";
    case LinkType::kNicWire: return "nicwire";
    case LinkType::kIntraGroup: return "intragroup";
    case LinkType::kGlobal: return "global";
    case LinkType::kLeafSpine: return "leafspine";
  }
  return "?";
}

DeviceId Graph::add_device(Device d) {
  const DeviceId id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(std::move(d));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

LinkId Graph::add_link(Link l) {
  assert(l.src < devices_.size() && l.dst < devices_.size());
  assert(l.capacity > 0);
  const LinkId id = static_cast<LinkId>(links_.size());
  out_[l.src].push_back(id);
  in_[l.dst].push_back(id);
  links_.push_back(l);
  return id;
}

LinkId Graph::add_duplex_link(DeviceId a, DeviceId b, Bandwidth capacity, SimTime latency,
                              LinkType type, std::uint16_t multiplicity,
                              std::uint16_t virtual_lanes) {
  Link fwd{a, b, capacity, latency, type, multiplicity, virtual_lanes};
  Link rev{b, a, capacity, latency, type, multiplicity, virtual_lanes};
  const LinkId id = add_link(fwd);
  add_link(rev);
  return id;
}

LinkId Graph::find_link(DeviceId src, DeviceId dst) const {
  for (const LinkId id : out_[src]) {
    if (links_[id].dst == dst) return id;
  }
  return kInvalidLink;
}

std::vector<DeviceId> Graph::devices_of_kind(DeviceKind kind, std::int32_t node) const {
  std::vector<DeviceId> out;
  for (DeviceId id = 0; id < devices_.size(); ++id) {
    const Device& d = devices_[id];
    if (d.kind == kind && (node < 0 || d.node == node)) out.push_back(id);
  }
  return out;
}

SimTime route_latency(const Graph& g, const Route& r) {
  SimTime total = SimTime::zero();
  for (const LinkId id : r) total += g.link(id).latency;
  return total;
}

Bandwidth route_bottleneck(const Graph& g, const Route& r) {
  Bandwidth bw = 1e30;
  for (const LinkId id : r) bw = std::min(bw, g.link(id).capacity);
  return r.empty() ? 0.0 : bw;
}

}  // namespace gpucomm
