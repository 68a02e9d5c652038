// Device/link multigraph underlying both intra-node and fabric topologies.
//
// Devices are GPUs, host memories (NUMA domains), NICs, and switches.
// A Link is a *directed* edge; full-duplex cables are two Links. Parallel
// physical links between the same pair (e.g. the 4 NVLinks of a Leonardo GPU
// pair) are stored as one Link with `multiplicity` n and aggregate capacity,
// matching how the hardware stripes traffic across them; analyses that need
// per-physical-link loads (edge forwarding index) divide by multiplicity.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpucomm/sim/time.hpp"
#include "gpucomm/sim/units.hpp"

namespace gpucomm {

using DeviceId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr DeviceId kInvalidDevice = UINT32_MAX;
inline constexpr LinkId kInvalidLink = UINT32_MAX;

enum class DeviceKind : std::uint8_t { kGpu, kHost, kNic, kSwitch };

enum class LinkType : std::uint8_t {
  kNvLink,          // intra-node GPU-GPU (NVIDIA)
  kInfinityFabric,  // intra-node GPU-GPU / GPU-host (AMD)
  kPcie,            // GPU/NIC <-> host
  kHostBus,         // host memory <-> host memory (local copy path)
  kNicWire,         // NIC <-> first-hop switch
  kIntraGroup,      // switch <-> switch, same Dragonfly group
  kGlobal,          // switch <-> switch, different groups
  kLeafSpine,       // Dragonfly+ leaf <-> spine inside a group
};

const char* to_string(DeviceKind kind);
const char* to_string(LinkType type);

struct Device {
  DeviceKind kind;
  /// Node the device belongs to; -1 for fabric switches.
  std::int32_t node = -1;
  /// Index within its kind on the node (gpu 0..3, nic 0..3, numa 0..7, ...).
  std::int32_t index = 0;
  std::string label;
};

struct Link {
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  /// Aggregate capacity over all parallel physical links, bits/s, one direction.
  Bandwidth capacity = 0;
  SimTime latency;  // propagation + serialization floor for this hop
  LinkType type = LinkType::kNvLink;
  /// Number of parallel physical links aggregated into this edge.
  std::uint16_t multiplicity = 1;
  /// Number of virtual lanes (service-level queues) on this link.
  std::uint16_t virtual_lanes = 1;
};

class Graph {
 public:
  DeviceId add_device(Device d);

  /// Add one directed link; returns its id.
  LinkId add_link(Link l);

  /// Add a full-duplex link (two directed edges with identical properties).
  /// Returns the id of the src->dst direction; the reverse is id+1.
  LinkId add_duplex_link(DeviceId a, DeviceId b, Bandwidth capacity, SimTime latency,
                         LinkType type, std::uint16_t multiplicity = 1,
                         std::uint16_t virtual_lanes = 1);

  const Device& device(DeviceId id) const { return devices_[id]; }
  const Link& link(LinkId id) const { return links_[id]; }
  std::size_t device_count() const { return devices_.size(); }
  std::size_t link_count() const { return links_.size(); }

  /// Outgoing link ids of a device, ascending.
  const std::vector<LinkId>& out_links(DeviceId id) const { return out_[id]; }
  /// Incoming link ids of a device, ascending: the reverse adjacency the
  /// routers search from the destination.
  const std::vector<LinkId>& in_links(DeviceId id) const { return in_[id]; }

  /// First direct link src->dst, or kInvalidLink.
  LinkId find_link(DeviceId src, DeviceId dst) const;

  /// All devices of a kind (optionally restricted to one node).
  std::vector<DeviceId> devices_of_kind(DeviceKind kind, std::int32_t node = -1) const;

 private:
  std::vector<Device> devices_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
};

/// A route is the ordered list of directed links a transfer traverses.
using Route = std::vector<LinkId>;

/// Predicate over directed links used by fault-aware routing: returns false
/// for links that must not be used (failed). An empty function means every
/// link is usable.
using LinkFilter = std::function<bool(LinkId)>;

/// Sum of per-hop latencies along a route.
SimTime route_latency(const Graph& g, const Route& r);

/// Minimum capacity along a route (the nominal bottleneck).
Bandwidth route_bottleneck(const Graph& g, const Route& r);

}  // namespace gpucomm
