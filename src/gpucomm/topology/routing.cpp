#include "gpucomm/topology/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

namespace gpucomm {

namespace {
// Breadth-first distances from every device to `dst` (reverse search over the
// graph's in-links, filtered per query), so the forward greedy walk can
// follow the shortest-path DAG. Exploration stops at `max_hops` links.
std::vector<int> distances_to(const Graph& g, DeviceId dst, const RouteOptions& opts,
                              int max_hops) {
  std::vector<int> dist(g.device_count(), -1);
  std::queue<DeviceId> q;
  dist[dst] = 0;
  q.push(dst);
  while (!q.empty()) {
    const DeviceId cur = q.front();
    q.pop();
    if (dist[cur] >= max_hops) continue;
    for (const LinkId id : g.in_links(cur)) {
      const Link& l = g.link(id);
      if (dist[l.src] >= 0) continue;
      if (opts.link_filter && !opts.link_filter(id, l)) continue;
      dist[l.src] = dist[cur] + 1;
      q.push(l.src);
    }
  }
  return dist;
}

// When the bounded search failed, decide whether src is truly disconnected
// from dst or merely beyond the hop budget (an unbounded BFS reaches it).
RouteFailure classify_failure(const Graph& g, DeviceId src, DeviceId dst,
                              const RouteOptions& opts) {
  const std::vector<int> full =
      distances_to(g, dst, opts, std::numeric_limits<int>::max());
  return full[src] < 0 ? RouteFailure::kUnreachable : RouteFailure::kHopBudget;
}
}  // namespace

std::optional<Route> shortest_route(const Graph& g, DeviceId src, DeviceId dst,
                                    const RouteOptions& opts, RouteDiag* diag) {
  if (diag != nullptr) diag->failure = RouteFailure::kNone;
  if (src == dst) return Route{};
  const std::vector<int> dist = distances_to(g, dst, opts, opts.max_hops);
  if (dist[src] < 0) {
    if (diag != nullptr) diag->failure = classify_failure(g, src, dst, opts);
    return std::nullopt;
  }

  Route route;
  DeviceId cur = src;
  while (cur != dst) {
    // Follow the shortest-path DAG; among candidate next hops take the
    // smallest device id, and among parallel links to it the smallest link id.
    LinkId best_link = kInvalidLink;
    DeviceId best_next = kInvalidDevice;
    for (const LinkId id : g.out_links(cur)) {
      const Link& l = g.link(id);
      if (opts.link_filter && !opts.link_filter(id, l)) continue;
      if (dist[l.dst] != dist[cur] - 1) continue;
      if (best_next == kInvalidDevice || l.dst < best_next ||
          (l.dst == best_next && id < best_link)) {
        best_next = l.dst;
        best_link = id;
      }
    }
    if (best_link == kInvalidLink) return std::nullopt;  // filter removed the DAG edge
    route.push_back(best_link);
    cur = best_next;
  }
  return route;
}

int hop_distance(const Graph& g, DeviceId src, DeviceId dst, const RouteOptions& opts) {
  if (src == dst) return 0;
  const std::vector<int> dist = distances_to(g, dst, opts, opts.max_hops);
  if (dist[src] >= 0) return dist[src];
  return classify_failure(g, src, dst, opts) == RouteFailure::kUnreachable
             ? kHopsUnreachable
             : kHopsBudgetExceeded;
}

Route filtered_fabric_route(const Graph& g, DeviceId src_nic, DeviceId dst_nic,
                            const LinkFilter& link_ok) {
  RouteOptions opts;
  opts.link_filter = [&](LinkId id, const Link& l) {
    if (link_ok && !link_ok(id)) return false;
    const bool src_switch = g.device(l.src).kind == DeviceKind::kSwitch;
    const bool dst_switch = g.device(l.dst).kind == DeviceKind::kSwitch;
    if (src_switch && dst_switch) return true;
    // The only non-switch hops allowed are leaving the source NIC and
    // entering the destination NIC.
    return (l.src == src_nic && dst_switch) || (src_switch && l.dst == dst_nic);
  };
  const auto r = shortest_route(g, src_nic, dst_nic, opts);
  return r.has_value() ? *r : Route{};
}

}  // namespace gpucomm
