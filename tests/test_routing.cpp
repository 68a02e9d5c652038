#include <gtest/gtest.h>

#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/fault/fault_injector.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/registry.hpp"
#include "gpucomm/topology/intra_node.hpp"
#include "gpucomm/topology/routing.hpp"

namespace gpucomm {
namespace {

/// Line graph 0-1-2-3 plus a shortcut 0-3 of low bandwidth.
struct LineFixture {
  Graph g;
  DeviceId d[4];
  LineFixture() {
    for (int i = 0; i < 4; ++i)
      d[i] = g.add_device({DeviceKind::kGpu, 0, i, std::string("d").append(std::to_string(i))});
    for (int i = 0; i < 3; ++i)
      g.add_duplex_link(d[i], d[i + 1], gbps(100), nanoseconds(10), LinkType::kNvLink);
  }
};

TEST(RoutingTest, TrivialSelfRoute) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[1], f.d[1]);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(RoutingTest, DirectNeighbor) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[0], f.d[1]);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(f.g.link((*r)[0]).dst, f.d[1]);
}

TEST(RoutingTest, MultiHopPathIsMinimal) {
  LineFixture f;
  const auto r = shortest_route(f.g, f.d[0], f.d[3]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);
  // Route is contiguous: each link starts where the previous ended.
  DeviceId cur = f.d[0];
  for (const LinkId l : *r) {
    EXPECT_EQ(f.g.link(l).src, cur);
    cur = f.g.link(l).dst;
  }
  EXPECT_EQ(cur, f.d[3]);
}

TEST(RoutingTest, ShortcutPreferredWhenShorter) {
  LineFixture f;
  f.g.add_duplex_link(f.d[0], f.d[3], gbps(10), nanoseconds(10), LinkType::kNvLink);
  const auto r = shortest_route(f.g, f.d[0], f.d[3]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 1u);  // hop count wins over bandwidth
}

TEST(RoutingTest, LexicographicTieBreak) {
  // Diamond: 0 -> {1, 2} -> 3; both 2-hop. The smaller next device id wins.
  Graph g;
  DeviceId d[4];
  for (int i = 0; i < 4; ++i)
    g.add_device({DeviceKind::kGpu, 0, i, ""});
  for (int i = 0; i < 4; ++i) d[i] = static_cast<DeviceId>(i);
  g.add_duplex_link(d[0], d[2], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[0], d[1], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[1], d[3], gbps(100), nanoseconds(10), LinkType::kNvLink);
  g.add_duplex_link(d[2], d[3], gbps(100), nanoseconds(10), LinkType::kNvLink);
  const auto r = shortest_route(g, d[0], d[3]);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(g.link((*r)[0]).dst, d[1]);  // via device 1, not 2
}

TEST(RoutingTest, LinkFilterRestrictsPaths) {
  LineFixture f;
  f.g.add_duplex_link(f.d[0], f.d[3], gbps(10), nanoseconds(10), LinkType::kPcie);
  RouteOptions opts;
  opts.link_filter = [](LinkId, const Link& l) { return l.type == LinkType::kNvLink; };
  const auto r = shortest_route(f.g, f.d[0], f.d[3], opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);  // the PCIe shortcut is filtered out
}

TEST(RoutingTest, UnreachableReturnsNullopt) {
  Graph g;
  const DeviceId a = g.add_device({DeviceKind::kGpu, 0, 0, ""});
  const DeviceId b = g.add_device({DeviceKind::kGpu, 1, 0, ""});
  EXPECT_FALSE(shortest_route(g, a, b).has_value());
  EXPECT_EQ(hop_distance(g, a, b), kHopsUnreachable);
}

TEST(RoutingTest, DiagDistinguishesDisconnectionFromHopBudget) {
  // Disconnected endpoints: kUnreachable, regardless of budget.
  Graph g;
  const DeviceId a = g.add_device({DeviceKind::kGpu, 0, 0, ""});
  const DeviceId b = g.add_device({DeviceKind::kGpu, 1, 0, ""});
  RouteDiag diag;
  EXPECT_FALSE(shortest_route(g, a, b, {}, &diag).has_value());
  EXPECT_EQ(diag.failure, RouteFailure::kUnreachable);

  // Connected but over budget: kHopBudget, and the -2 sentinel.
  LineFixture f;
  RouteOptions opts;
  opts.max_hops = 2;
  EXPECT_FALSE(shortest_route(f.g, f.d[0], f.d[3], opts, &diag).has_value());
  EXPECT_EQ(diag.failure, RouteFailure::kHopBudget);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[3], opts), kHopsBudgetExceeded);

  // A successful query resets the diagnostic.
  opts.max_hops = 3;
  EXPECT_TRUE(shortest_route(f.g, f.d[0], f.d[3], opts, &diag).has_value());
  EXPECT_EQ(diag.failure, RouteFailure::kNone);
}

TEST(RoutingTest, LinkFilterDisconnectionIsUnreachable) {
  // A filter that rejects every link partitions the graph: the failure is
  // disconnection (no path at any hop count), not budget exhaustion.
  LineFixture f;
  RouteOptions opts;
  opts.link_filter = [](LinkId, const Link&) { return false; };
  RouteDiag diag;
  EXPECT_FALSE(shortest_route(f.g, f.d[0], f.d[3], opts, &diag).has_value());
  EXPECT_EQ(diag.failure, RouteFailure::kUnreachable);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[3], opts), kHopsUnreachable);
}

TEST(RoutingTest, HopDistance) {
  LineFixture f;
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[0]), 0);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[1]), 1);
  EXPECT_EQ(hop_distance(f.g, f.d[0], f.d[3]), 3);
}

TEST(RoutingTest, MaxHopsLimits) {
  LineFixture f;
  RouteOptions opts;
  opts.max_hops = 2;
  EXPECT_FALSE(shortest_route(f.g, f.d[0], f.d[3], opts).has_value());
  opts.max_hops = 3;
  EXPECT_TRUE(shortest_route(f.g, f.d[0], f.d[3], opts).has_value());
}

// --- differential: a whole-graph reverse-adjacency router as oracle ---------

// Reference router: builds the filtered reverse adjacency of the whole graph
// up front, then searches it, instead of filtering Graph::in_links as the
// search reaches them. The filters used below are pure, so one oracle answers
// every query under one filter exactly as a per-query rebuild would.
class OracleRouter {
 public:
  OracleRouter(const Graph& g, RouteOptions opts)
      : g_(g), opts_(std::move(opts)), in_(g.device_count()) {
    for (LinkId id = 0; id < g.link_count(); ++id) {
      const Link& l = g.link(id);
      if (opts_.link_filter && !opts_.link_filter(id, l)) continue;
      in_[l.dst].push_back(id);
    }
  }

  std::optional<Route> route(DeviceId src, DeviceId dst, RouteDiag* diag = nullptr) const {
    if (diag != nullptr) diag->failure = RouteFailure::kNone;
    if (src == dst) return Route{};
    const std::vector<int> dist = distances_to(dst, opts_.max_hops);
    if (dist[src] < 0) {
      if (diag != nullptr) diag->failure = classify(src, dst);
      return std::nullopt;
    }
    Route route;
    DeviceId cur = src;
    while (cur != dst) {
      LinkId best_link = kInvalidLink;
      DeviceId best_next = kInvalidDevice;
      for (const LinkId id : g_.out_links(cur)) {
        const Link& l = g_.link(id);
        if (opts_.link_filter && !opts_.link_filter(id, l)) continue;
        if (dist[l.dst] != dist[cur] - 1) continue;
        if (best_next == kInvalidDevice || l.dst < best_next ||
            (l.dst == best_next && id < best_link)) {
          best_next = l.dst;
          best_link = id;
        }
      }
      if (best_link == kInvalidLink) return std::nullopt;
      route.push_back(best_link);
      cur = best_next;
    }
    return route;
  }

  int hops(DeviceId src, DeviceId dst) const {
    if (src == dst) return 0;
    const std::vector<int> dist = distances_to(dst, opts_.max_hops);
    if (dist[src] >= 0) return dist[src];
    return classify(src, dst) == RouteFailure::kUnreachable ? kHopsUnreachable
                                                            : kHopsBudgetExceeded;
  }

  const RouteOptions& options() const { return opts_; }

 private:
  std::vector<int> distances_to(DeviceId dst, int max_hops) const {
    std::vector<int> dist(g_.device_count(), -1);
    std::queue<DeviceId> q;
    dist[dst] = 0;
    q.push(dst);
    while (!q.empty()) {
      const DeviceId cur = q.front();
      q.pop();
      if (dist[cur] >= max_hops) continue;
      for (const LinkId id : in_[cur]) {
        const DeviceId prev = g_.link(id).src;
        if (dist[prev] < 0) {
          dist[prev] = dist[cur] + 1;
          q.push(prev);
        }
      }
    }
    return dist;
  }

  RouteFailure classify(DeviceId src, DeviceId dst) const {
    const std::vector<int> full = distances_to(dst, std::numeric_limits<int>::max());
    return full[src] < 0 ? RouteFailure::kUnreachable : RouteFailure::kHopBudget;
  }

  const Graph& g_;
  RouteOptions opts_;
  std::vector<std::vector<LinkId>> in_;
};

/// shortest_route (with its RouteDiag) and hop_distance agree with the oracle
/// for src -> dst.
void expect_matches_oracle(const Graph& g, const OracleRouter& oracle, DeviceId src,
                           DeviceId dst) {
  RouteDiag diag, want_diag;
  const auto got = shortest_route(g, src, dst, oracle.options(), &diag);
  const auto want = oracle.route(src, dst, &want_diag);
  ASSERT_EQ(got.has_value(), want.has_value()) << src << " -> " << dst;
  if (got.has_value()) {
    EXPECT_EQ(*got, *want) << src << " -> " << dst;
  }
  EXPECT_EQ(diag.failure, want_diag.failure) << src << " -> " << dst;
  EXPECT_EQ(hop_distance(g, src, dst, oracle.options()), oracle.hops(src, dst))
      << src << " -> " << dst;
}

/// Graph::in_links holds every link exactly once, under its destination, in
/// ascending id order.
void expect_in_links_invariant(const Graph& g) {
  std::vector<int> seen(g.link_count(), 0);
  for (DeviceId d = 0; d < g.device_count(); ++d) {
    const std::vector<LinkId>& in = g.in_links(d);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_LT(in[i], g.link_count());
      EXPECT_EQ(g.link(in[i]).dst, d);
      if (i > 0) {
        EXPECT_LT(in[i - 1], in[i]);
      }
      ++seen[in[i]];
    }
  }
  for (LinkId l = 0; l < g.link_count(); ++l) EXPECT_EQ(seen[l], 1) << "link " << l;
}

TEST(RoutingDifferential, InLinksKeptInAscendingOrderPerDestination) {
  LineFixture f;
  f.g.add_duplex_link(f.d[0], f.d[3], gbps(10), nanoseconds(10), LinkType::kPcie);
  f.g.add_link({f.d[2], f.d[0], gbps(10), nanoseconds(10), LinkType::kPcie, 1, 1});
  expect_in_links_invariant(f.g);
  EXPECT_EQ(f.g.in_links(f.d[0]), (std::vector<LinkId>{1, 7, 8}));
}

TEST(RoutingDifferential, SeededRandomMultigraphs) {
  // Parallel links, one-way links, asymmetric filters and tight hop budgets:
  // every ordered pair of every graph, against the oracle.
  Rng rng(20240917);
  for (int trial = 0; trial < 60; ++trial) {
    Graph g;
    const int n = 2 + static_cast<int>(rng.uniform_int(14));
    for (int i = 0; i < n; ++i) g.add_device({DeviceKind::kGpu, 0, i, ""});
    const int m = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(3 * n)));
    for (int i = 0; i < m; ++i) {
      const auto a = static_cast<DeviceId>(rng.uniform_int(n));
      const auto b = static_cast<DeviceId>(rng.uniform_int(n));
      if (a == b) continue;
      const int copies = rng.bernoulli(0.25) ? 2 : 1;  // parallel links
      for (int c = 0; c < copies; ++c) {
        if (rng.bernoulli(0.3)) {
          g.add_link({a, b, gbps(100), nanoseconds(10), LinkType::kNvLink, 1, 1});
        } else {
          g.add_duplex_link(a, b, gbps(100), nanoseconds(10),
                            rng.bernoulli(0.5) ? LinkType::kNvLink : LinkType::kPcie);
        }
      }
    }
    expect_in_links_invariant(g);

    // Filters: none; drop one direction of some links (a salted id hash);
    // drop a link type. Budgets: unbounded-ish, tight, minimal.
    const std::uint64_t salt = rng.next_u64();
    std::vector<RouteOptions> variants(3);
    variants[1].link_filter = [salt](LinkId id, const Link&) {
      return ((static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull ^ salt) % 5 != 0;
    };
    variants[2].link_filter = [](LinkId, const Link& l) { return l.type == LinkType::kNvLink; };
    for (RouteOptions opts : variants) {
      for (const int max_hops : {64, 2, 1}) {
        opts.max_hops = max_hops;
        const OracleRouter oracle(g, opts);
        for (DeviceId s = 0; s < g.device_count(); ++s) {
          for (DeviceId d = 0; d < g.device_count(); ++d) {
            expect_matches_oracle(g, oracle, s, d);
          }
        }
      }
    }
  }
}

/// Every GPU pair of `cluster`: same-node pairs under the GPU-fabric filter
/// (plus fault state, when a fault model is attached) through both
/// Cluster::intra_node_route and the raw router; every GPU to each NIC of
/// its node under the endpoint-leg filter inter_node_route uses.
void expect_cluster_matches_oracle(const Cluster& cluster) {
  const Graph& g = cluster.graph();
  const fault::FaultModel* faults = cluster.faults();
  const auto up = [faults](LinkId id) { return faults == nullptr || faults->link_up(id); };

  RouteOptions fabric = gpu_fabric_options();
  fabric.link_filter = [up](LinkId id, const Link& l) {
    return (l.type == LinkType::kNvLink || l.type == LinkType::kInfinityFabric) && up(id);
  };
  const OracleRouter fabric_oracle(g, fabric);
  for (int a = 0; a < cluster.total_gpus(); ++a) {
    for (int b = 0; b < cluster.total_gpus(); ++b) {
      const DeviceId da = cluster.gpu_device(a);
      const DeviceId db = cluster.gpu_device(b);
      expect_matches_oracle(g, fabric_oracle, da, db);
      if (a != b && cluster.same_node(a, b)) {
        EXPECT_EQ(cluster.intra_node_route(a, b), fabric_oracle.route(da, db).value_or(Route{}))
            << a << " -> " << b;
      }
    }
  }

  RouteOptions leg;
  leg.link_filter = [&g, up](LinkId id, const Link& l) {
    return up(id) && g.device(l.src).node == g.device(l.dst).node;
  };
  const OracleRouter leg_oracle(g, leg);
  for (int a = 0; a < cluster.total_gpus(); ++a) {
    for (const DeviceId nic : cluster.node(cluster.node_of_gpu(a)).nics) {
      expect_matches_oracle(g, leg_oracle, cluster.gpu_device(a), nic);
      expect_matches_oracle(g, leg_oracle, nic, cluster.gpu_device(a));
    }
  }
}

TEST(RoutingDifferential, EveryGpuPairOfEverySystem) {
  for (const std::string& name : all_system_names()) {
    for (const int nodes : {1, 2, 16}) {
      SCOPED_TRACE(name + " x" + std::to_string(nodes));
      Cluster cluster(system_by_name(name), {.nodes = nodes, .enable_noise = false});
      expect_in_links_invariant(cluster.graph());
      expect_cluster_matches_oracle(cluster);
    }
  }
}

TEST(RoutingDifferential, EveryGpuPairWithADownedGpuLink) {
  // Cut the first GPU-fabric link out of GPU 0 (both directions) through the
  // fault injector: the routes that crossed it detour, identically.
  for (const std::string& name : all_system_names()) {
    for (const int nodes : {1, 2, 16}) {
      SCOPED_TRACE(name + " x" + std::to_string(nodes));
      Cluster cluster(system_by_name(name), {.nodes = nodes, .enable_noise = false});
      const Graph& g = cluster.graph();
      LinkId cut = kInvalidLink;
      for (const LinkId l : g.out_links(cluster.gpu_device(0))) {
        const LinkType t = g.link(l).type;
        if (t == LinkType::kNvLink || t == LinkType::kInfinityFabric) {
          cut = l;
          break;
        }
      }
      ASSERT_NE(cut, kInvalidLink);
      fault::FaultSchedule sched;
      for (const LinkId l : {cut, g.find_link(g.link(cut).dst, g.link(cut).src)}) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kLinkDown;
        e.link = l;
        sched.events.push_back(e);
      }
      fault::FaultInjector inj(cluster, sched);
      cluster.engine().run();
      ASSERT_EQ(inj.links_down(), 2);
      expect_cluster_matches_oracle(cluster);
    }
  }
}

TEST(RoutingDifferential, FilteredFabricRoutesWithADownedWire) {
  // filtered_fabric_route is shortest_route under a per-pair switch filter:
  // every NIC pair of a 2-node cluster, with the first switch-to-switch link
  // cut, against the oracle under the same filter.
  for (const std::string& name : all_system_names()) {
    SCOPED_TRACE(name);
    Cluster cluster(system_by_name(name), {.nodes = 2, .enable_noise = false});
    const Graph& g = cluster.graph();
    LinkId cut = kInvalidLink;
    for (LinkId l = 0; l < g.link_count() && cut == kInvalidLink; ++l) {
      if (g.device(g.link(l).src).kind == DeviceKind::kSwitch &&
          g.device(g.link(l).dst).kind == DeviceKind::kSwitch) {
        cut = l;
      }
    }
    const LinkFilter link_ok = [cut](LinkId id) { return id != cut; };
    std::vector<DeviceId> nics = cluster.node(0).nics;
    nics.insert(nics.end(), cluster.node(1).nics.begin(), cluster.node(1).nics.end());
    for (const DeviceId a : nics) {
      for (const DeviceId b : nics) {
        if (a == b) continue;
        RouteOptions opts;
        opts.link_filter = [&](LinkId id, const Link& l) {
          if (!link_ok(id)) return false;
          const bool src_switch = g.device(l.src).kind == DeviceKind::kSwitch;
          const bool dst_switch = g.device(l.dst).kind == DeviceKind::kSwitch;
          if (src_switch && dst_switch) return true;
          return (l.src == a && dst_switch) || (src_switch && l.dst == b);
        };
        const OracleRouter oracle(g, opts);
        EXPECT_EQ(filtered_fabric_route(g, a, b, link_ok), oracle.route(a, b).value_or(Route{}))
            << a << " -> " << b;
      }
    }
  }
}

TEST(RoutingDifferential, SnapshotBuiltClusterKeepsInLinks) {
  for (const std::string& name : all_system_names()) {
    SCOPED_TRACE(name);
    const auto snap = build_topology_snapshot(system_by_name(name), 2, Placement::kPacked);
    Cluster fresh(system_by_name(name), {.nodes = 2, .enable_noise = false});
    Cluster copied(*snap, {.nodes = 2, .enable_noise = false});
    expect_in_links_invariant(copied.graph());
    for (DeviceId d = 0; d < fresh.graph().device_count(); ++d) {
      EXPECT_EQ(copied.graph().in_links(d), fresh.graph().in_links(d));
    }
    expect_cluster_matches_oracle(copied);
  }
}

}  // namespace
}  // namespace gpucomm
