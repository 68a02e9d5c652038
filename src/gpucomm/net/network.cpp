#include "gpucomm/net/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace gpucomm {

namespace {
// Residuals below this are treated as complete (guards FP rounding).
constexpr double kEpsilonBits = 1e-6;
}  // namespace

Network::Network(Engine& engine, const Graph& graph)
    : engine_(engine), graph_(graph), last_advance_(engine.now()) {}

Network::~Network() { net::SolverStatsRegistry::global().add(stats_); }

void Network::set_noise(NoiseField* noise) {
  noise_ = noise;
  request_full_solve(FullReason::kConfig);
}

void Network::set_faults(const fault::FaultModel* faults) {
  faults_ = faults;
  request_full_solve(FullReason::kConfig);
}

void Network::set_congestion(SwitchCongestion c) {
  congestion_ = c;
  request_full_solve(FullReason::kConfig);
}

void Network::set_telemetry(telemetry::Sink* sink) {
  telemetry_ = sink;
  request_full_solve(FullReason::kConfig);
}

void Network::request_full_solve(FullReason reason) {
  // First cause wins: a pending kFirst/kLinkState is not downgraded.
  if (full_reason_ == FullReason::kNone) full_reason_ = reason;
}

Bandwidth Network::effective_capacity(LinkId link, int vl) const {
  Bandwidth cap = graph_.link(link).capacity;
  if (faults_ != nullptr) cap *= faults_->capacity_factor(link);
  if (noise_ != nullptr && vl == noise_->noisy_vl()) {
    const double bg = std::clamp(noise_->background_utilization(link), 0.0, 0.95);
    cap *= (1.0 - bg);
  }
  return cap;
}

bool Network::route_has_down_link(const Route& route) const {
  for (const LinkId l : route) {
    if (!faults_->link_up(l)) return true;
  }
  return false;
}

void Network::ensure_tables() {
  const std::size_t links = graph_.link_count();
  if (link_head_.size() < links) {
    link_head_.resize(links, -1);
    link_mark_.resize(links, 0);
    link_devx_.resize(links, 0);
    link_sat_.resize(links, 0);
    link_sat_count_.resize(links, 0);
    link_vis_.resize(links, 0);
    capacity_.resize(links, 0.0);
    dev_links_built_ = false;  // graph grew; the closure CSR is stale
  }
  const std::size_t devices = graph_.device_count();
  if (dev_mark_.size() < devices) dev_mark_.resize(devices, 0);
}

void Network::ensure_id_slot(FlowId id) {
  if (id - id_base_ >= slot_of_id_.size()) {
    // Trim the dead prefix (ids below the oldest live flow) when it
    // dominates the index, so memory tracks the active set rather than every
    // id ever issued. order_ is ascending, so the oldest live id is O(1).
    // `id` itself is live from the caller's perspective (start_flow indexes
    // it right after this call), so with no older flows it is the base.
    const FlowId live_base = order_.empty() ? id : id_[order_.front()];
    // Flows that die on arrival (downed route / no constraint) consume an id
    // without ever touching the index, so live_base can run past the end.
    const std::size_t dead = std::min(static_cast<std::size_t>(live_base - id_base_),
                                      slot_of_id_.size());
    if (dead > 1024 && dead * 2 > slot_of_id_.size()) {
      slot_of_id_.erase(slot_of_id_.begin(),
                        slot_of_id_.begin() + static_cast<std::ptrdiff_t>(dead));
      id_base_ = live_base;
    }
    slot_of_id_.resize(static_cast<std::size_t>(id - id_base_) + 1, 0);
  }
}

Bandwidth Network::flow_rate(FlowId id) const {
  if (id < id_base_ || id - id_base_ >= slot_of_id_.size()) return 0;
  const std::uint32_t slot = slot_of_id_[static_cast<std::size_t>(id - id_base_)];
  return slot != 0 ? rate_[slot - 1] : 0;
}

std::uint32_t Network::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(id_.size());
  id_.push_back(0);
  route_.emplace_back();
  vl_.push_back(0);
  rate_cap_.push_back(0);
  total_bits_.push_back(0);
  residual_bits_.push_back(0);
  rate_.push_back(0);
  token_.push_back(0);
  bottleneck_.push_back(kInvalidLink);
  ent_head_.push_back(-1);
  on_delivered_.emplace_back();
  on_interrupted_.emplace_back();
  slot_mark_.push_back(0);
  return slot;
}

void Network::link_flow_entries(std::uint32_t slot) {
  std::int32_t head = -1;
  for (const LinkId l : route_[slot]) {
    std::int32_t e;
    if (!free_entries_.empty()) {
      e = free_entries_.back();
      free_entries_.pop_back();
      ent_slot_[e] = slot;
      ent_link_[e] = l;
    } else {
      e = static_cast<std::int32_t>(ent_slot_.size());
      ent_slot_.push_back(slot);
      ent_link_.push_back(l);
      ent_next_link_.push_back(-1);
      ent_prev_link_.push_back(-1);
      ent_next_flow_.push_back(-1);
    }
    ent_prev_link_[e] = -1;
    ent_next_link_[e] = link_head_[l];
    if (link_head_[l] != -1) ent_prev_link_[link_head_[l]] = e;
    link_head_[l] = e;
    ent_next_flow_[e] = head;
    head = e;
  }
  ent_head_[slot] = head;
}

void Network::unlink_flow_entries(std::uint32_t slot) {
  for (std::int32_t e = ent_head_[slot]; e != -1;) {
    const std::int32_t next = ent_next_flow_[e];
    const LinkId l = ent_link_[e];
    if (ent_prev_link_[e] != -1) {
      ent_next_link_[ent_prev_link_[e]] = ent_next_link_[e];
    } else {
      link_head_[l] = ent_next_link_[e];
    }
    if (ent_next_link_[e] != -1) ent_prev_link_[ent_next_link_[e]] = ent_prev_link_[e];
    free_entries_.push_back(e);
    e = next;
  }
  ent_head_[slot] = -1;
}

FlowId Network::start_flow(FlowSpec spec, std::function<void(SimTime)> on_delivered) {
  ensure_tables();
  const FlowId id = next_id_++;
  const double total_bits = static_cast<double>(spec.bytes) * 8.0;
  bits_posted_ += total_bits;

  telemetry::FlowToken token = 0;
  if (telemetry_ != nullptr) {
    token = spec.token != 0 ? spec.token
                            : telemetry_->issue(spec.tag, spec.bytes, engine_.now());
    telemetry_->flow_started(token, spec.tag, spec.route, spec.vl, spec.bytes,
                             engine_.now());
  }

  // A flow posted onto a route with a downed link dies immediately (zero
  // bytes serialized) instead of joining the active set: no traffic ever
  // crosses a dead link.
  if (faults_ != nullptr && route_has_down_link(spec.route)) {
    RemovedFlow dead;
    dead.id = id;
    dead.route = std::move(spec.route);
    dead.vl = spec.vl;
    dead.total_bits = total_bits;
    dead.residual_bits = total_bits;
    dead.token = token;
    dead.on_interrupted = std::move(spec.on_interrupted);
    interrupt(std::move(dead));
    return id;
  }

  if (total_bits <= 0 || (spec.route.empty() && spec.rate_cap <= 0)) {
    // No constraint at all: deliver after latency only.
    RemovedFlow instant;
    instant.id = id;
    instant.route = std::move(spec.route);
    instant.vl = spec.vl;
    instant.total_bits = total_bits;
    instant.token = token;
    instant.on_delivered = std::move(on_delivered);
    deliver(std::move(instant));
    return id;
  }

  advance_residuals();
  ensure_id_slot(id);
  const std::uint32_t slot = acquire_slot();
  id_[slot] = id;
  route_[slot] = std::move(spec.route);
  vl_[slot] = spec.vl;
  rate_cap_[slot] = spec.rate_cap;
  total_bits_[slot] = total_bits;
  residual_bits_[slot] = total_bits;
  rate_[slot] = 0;
  token_[slot] = token;
  bottleneck_[slot] = kInvalidLink;
  on_delivered_[slot] = std::move(on_delivered);
  on_interrupted_[slot] = std::move(spec.on_interrupted);
  slot_of_id_[static_cast<std::size_t>(id - id_base_)] = slot + 1;
  order_.push_back(slot);
  link_flow_entries(slot);
  pending_new_slots_.push_back(slot);
  mark_dirty();
  return id;
}

Network::RemovedFlow Network::extract_flow(std::uint32_t slot) {
  unlink_flow_entries(slot);
  RemovedFlow f;
  f.id = id_[slot];
  f.route = std::move(route_[slot]);
  f.vl = vl_[slot];
  f.total_bits = total_bits_[slot];
  f.residual_bits = residual_bits_[slot];
  f.token = token_[slot];
  f.on_delivered = std::move(on_delivered_[slot]);
  f.on_interrupted = std::move(on_interrupted_[slot]);
  on_delivered_[slot] = nullptr;
  on_interrupted_[slot] = nullptr;
  slot_of_id_[static_cast<std::size_t>(f.id - id_base_)] = 0;
  free_slots_.push_back(slot);
  return f;
}

void Network::mark_dirty() {
  if (realloc_pending_) return;
  realloc_pending_ = true;
  // Zero-delay event: coalesces a whole batch of starts/completions at the
  // same timestamp into one rate computation.
  engine_.after(SimTime::zero(), [this] {
    realloc_pending_ = false;
    reallocate_and_schedule();
  });
}

void Network::advance_residuals() {
  const SimTime now = engine_.now();
  if (now == last_advance_) return;
  const double dt = (now - last_advance_).seconds();
  for (const std::uint32_t slot : order_) {
    residual_bits_[slot] = std::max(0.0, residual_bits_[slot] - rate_[slot] * dt);
  }
  last_advance_ = now;
}

void Network::build_dev_links() {
  const std::size_t devices = graph_.device_count();
  const std::size_t links = graph_.link_count();
  dev_link_offset_.assign(devices + 1, 0);
  for (LinkId l = 0; l < links; ++l) {
    const Link& lk = graph_.link(l);
    ++dev_link_offset_[lk.src + 1];
    if (lk.dst != lk.src) ++dev_link_offset_[lk.dst + 1];
  }
  for (std::size_t d = 1; d <= devices; ++d) dev_link_offset_[d] += dev_link_offset_[d - 1];
  dev_links_.resize(dev_link_offset_[devices]);
  std::vector<std::uint32_t> cursor(dev_link_offset_.begin(), dev_link_offset_.end() - 1);
  for (LinkId l = 0; l < links; ++l) {
    const Link& lk = graph_.link(l);
    dev_links_[cursor[lk.src]++] = l;
    if (lk.dst != lk.src) dev_links_[cursor[lk.dst]++] = l;
  }
  dev_links_built_ = true;
}

void Network::expand_link(LinkId link) {
  const auto push_slots_of = [this](LinkId l) {
    if (link_mark_[l] == mark_epoch_) return;
    link_mark_[l] = mark_epoch_;
    for (std::int32_t e = link_head_[l]; e != -1; e = ent_next_link_[e]) {
      const std::uint32_t s = ent_slot_[e];
      if (slot_mark_[s] != mark_epoch_) {
        slot_mark_[s] = mark_epoch_;
        comp_slots_.push_back(s);
      }
    }
  };
  push_slots_of(link);
  if (!closure_switches_ || link_devx_[link] == mark_epoch_) return;
  // Congestion couples flows through shared switch buffers even when they
  // share no link: a hot flow warms every switch on its route and same-VL
  // flows crossing those switches are degraded (apply_congestion_component).
  // Components therefore close over the switch endpoints of member links --
  // but only of links that carry a member flow; empty switch-to-switch links
  // must not chain the whole fabric into one component.
  link_devx_[link] = mark_epoch_;
  const Link& lk = graph_.link(link);
  for (const DeviceId d : {lk.src, lk.dst}) {
    if (graph_.device(d).kind != DeviceKind::kSwitch || dev_mark_[d] == mark_epoch_) {
      continue;
    }
    dev_mark_[d] = mark_epoch_;
    for (std::uint32_t i = dev_link_offset_[d]; i < dev_link_offset_[d + 1]; ++i) {
      push_slots_of(dev_links_[i]);
    }
  }
}

void Network::bfs_component(std::uint32_t seed_slot) {
  if (slot_mark_[seed_slot] == mark_epoch_) return;
  const std::size_t start = comp_slots_.size();
  slot_mark_[seed_slot] = mark_epoch_;
  comp_slots_.push_back(seed_slot);
  // Frontier drain: each discovered slot expands its route's links, which
  // enqueue further slots. Index-based because comp_slots_ grows in place.
  for (std::size_t i = start; i < comp_slots_.size(); ++i) {
    const std::uint32_t slot = comp_slots_[i];
    for (const LinkId l : route_[slot]) expand_link(l);
  }
  // Component members solve in ascending FlowId order so every per-link
  // subtraction sequence matches the pre-PR-7 whole-set solve bit for bit.
  std::sort(comp_slots_.begin() + static_cast<std::ptrdiff_t>(start), comp_slots_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return id_[a] < id_[b]; });
  comp_offset_.push_back(static_cast<std::uint32_t>(comp_slots_.size()));
}

void Network::partition_all() {
  for (const std::uint32_t slot : order_) bfs_component(slot);
}

void Network::reallocate_and_schedule() {
  advance_residuals();

  if (completion_scheduled_) {
    engine_.cancel(completion_event_);
    completion_scheduled_ = false;
  }
  ++stats_.reallocations;
  if (order_.empty()) {
    pending_new_slots_.clear();
    pending_seed_links_.clear();
    return;
  }
  ensure_tables();

  // A changed (or unversioned) noise field may have moved any link's
  // capacity: only a full solve is sound.
  if (noise_ != nullptr) {
    const std::uint64_t v = noise_->version();
    if (v == 0 || v != noise_version_seen_) {
      noise_version_seen_ = v;
      request_full_solve(FullReason::kNoise);
    }
  }

  closure_switches_ = congestion_.rate_factor < 1.0;
  if (closure_switches_ && !dev_links_built_) build_dev_links();
  comp_slots_.clear();
  comp_offset_.assign(1, 0);
  ++mark_epoch_;

  if (mode_ == SolverMode::kFullResolve) {
    // Re-solve every component from scratch: the pre-PR-7 O(network)-per-
    // event cost model, kept as the reference the differential tests compare
    // against. (See the SolverMode doc for why the reference partitions too.)
    partition_all();
    ++stats_.reference_solves;
  } else if (full_reason_ != FullReason::kNone) {
    partition_all();
    ++stats_.full_solves;
    switch (full_reason_) {
      case FullReason::kFirst: ++stats_.fallback_first; break;
      case FullReason::kLinkState: ++stats_.fallback_link_state; break;
      case FullReason::kNoise: ++stats_.fallback_noise; break;
      case FullReason::kConfig: ++stats_.fallback_config; break;
      case FullReason::kNone: break;
    }
  } else {
    // Incremental: re-solve only the components containing an event seed --
    // flows started since the last reallocation, and the links a completed
    // or interrupted flow vacated (its bandwidth redistributes there).
    for (const std::uint32_t slot : pending_new_slots_) bfs_component(slot);
    for (const LinkId l : pending_seed_links_) {
      const std::size_t start = comp_slots_.size();
      expand_link(l);
      for (std::size_t i = start; i < comp_slots_.size(); ++i) {
        const std::uint32_t slot = comp_slots_[i];
        for (const LinkId rl : route_[slot]) expand_link(rl);
      }
      if (comp_slots_.size() > start) {
        std::sort(comp_slots_.begin() + static_cast<std::ptrdiff_t>(start),
                  comp_slots_.end(),
                  [this](std::uint32_t a, std::uint32_t b) { return id_[a] < id_[b]; });
        comp_offset_.push_back(static_cast<std::uint32_t>(comp_slots_.size()));
      }
    }
    if (4 * comp_slots_.size() >= 3 * order_.size()) {
      // Affected set close to the whole network: partition the rest too and
      // book it as a threshold fallback.
      partition_all();
      ++stats_.full_solves;
      ++stats_.fallback_threshold;
    } else if (comp_offset_.size() == 1) {
      ++stats_.no_work_events;
    } else {
      ++stats_.incremental_events;
    }
  }
  pending_new_slots_.clear();
  pending_seed_links_.clear();
  full_reason_ = FullReason::kNone;

  solve_components();
  if (telemetry_ != nullptr) emit_allocation();

  SimTime earliest = SimTime::infinity();
  for (const std::uint32_t slot : order_) {
    if (rate_[slot] > 0) {
      const double secs = residual_bits_[slot] / rate_[slot];
      const SimTime done =
          engine_.now() + SimTime{static_cast<std::int64_t>(std::ceil(secs * 1e12))};
      earliest = std::min(earliest, done);
    }
  }
  if (!earliest.is_infinite()) {
    completion_event_ = engine_.at(earliest, [this] {
      completion_scheduled_ = false;
      on_completion_event();
    });
    completion_scheduled_ = true;
  }
}

void Network::solve_components() {
  for (std::size_t i = 0; i + 1 < comp_offset_.size(); ++i) {
    solve_component(comp_offset_[i], comp_offset_[i + 1]);
  }
}

void Network::solve_component(std::uint32_t begin, std::uint32_t end) {
  const std::uint32_t* slots = comp_slots_.data() + begin;
  const std::uint32_t n = end - begin;
  const bool tracing = telemetry_ != nullptr;

  ++stats_.component_solves;
  const unsigned bucket = static_cast<unsigned>(std::bit_width(n)) - 1;
  ++stats_.component_size_log2[std::min(bucket, 20u)];

  // Assemble the subproblem: member routes in ascending FlowId order, the
  // per-flow caps, and the effective capacity of every link they cross.
  sub_routes_.clear();
  sub_caps_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t slot = slots[i];
    // When flows on different VLs share a link each sees the full
    // (noise-adjusted) capacity in the problem, and the max-min allocator
    // shares it across all of them -- a work-conserving approximation of
    // round-robin VL arbitration.
    for (const LinkId l : route_[slot]) capacity_[l] = effective_capacity(l, vl_[slot]);
    sub_routes_.push_back(&route_[slot]);
    sub_caps_.push_back(rate_cap_[slot] > 0 ? rate_cap_[slot]
                                            : std::numeric_limits<double>::infinity());
  }

  const std::vector<Bandwidth>& rates =
      solver_.solve(capacity_, sub_routes_, sub_caps_, tracing ? &trace_ : nullptr);
  for (std::uint32_t i = 0; i < n; ++i) rate_[slots[i]] = rates[i];
  if (congestion_.rate_factor < 1.0) apply_congestion_component(slots, n);
  if (tracing) {
    for (std::uint32_t i = 0; i < n; ++i) {
      bottleneck_[slots[i]] = trace_.bottleneck[i];
      for (const LinkId l : route_[slots[i]]) link_sat_[l] = 0;
    }
    for (const auto& [l, flows] : trace_.saturated) {
      link_sat_[l] = 1;
      link_sat_count_[l] = flows;
    }
  }
}

void Network::apply_congestion_component(const std::uint32_t* slots, std::uint32_t count) {
  // A (link, vl) is incast-congested when >= flow_threshold flows saturate
  // it. The backlog propagates upstream through the buffers of every switch
  // the congesting flows traverse (credit/PFC backpressure), so flows of the
  // same VL crossing any of those switches lose rate. All coupling stays
  // inside the component: flows sharing a link share its component, and the
  // switch closure (expand_link) merges components whose flows share a
  // switch, so a per-component pass reproduces the global computation.
  if (cg_link_epoch_.size() < graph_.link_count()) {
    cg_link_epoch_.resize(graph_.link_count(), 0);
    cg_link_first_.resize(graph_.link_count(), -1);
  }
  if (cg_dev_epoch_.size() < graph_.device_count()) {
    cg_dev_epoch_.resize(graph_.device_count(), 0);
    cg_dev_first_.resize(graph_.device_count(), -1);
  }
  ++cg_epoch_;
  cg_lvl_.clear();
  cg_dvl_.clear();
  cg_ent_slot_.clear();
  cg_ent_next_.clear();

  const auto find_lvl = [this](LinkId l, int vl) -> std::int32_t {
    if (cg_link_epoch_[l] != cg_epoch_) return -1;
    for (std::int32_t i = cg_link_first_[l]; i != -1; i = cg_lvl_[i].next) {
      if (cg_lvl_[i].vl == vl) return i;
    }
    return -1;
  };

  // Pass 1: per (link, vl) flow count, allocated-rate sum (ascending-FlowId
  // accumulation order, matching the pre-PR-7 whole-set pass), and an intrusive list
  // of the crossing flows.
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    if (route_[slot].empty()) continue;
    const int vl = vl_[slot];
    for (const LinkId l : route_[slot]) {
      std::int32_t lv = find_lvl(l, vl);
      if (lv == -1) {
        if (cg_link_epoch_[l] != cg_epoch_) {
          cg_link_epoch_[l] = cg_epoch_;
          cg_link_first_[l] = -1;
        }
        lv = static_cast<std::int32_t>(cg_lvl_.size());
        cg_lvl_.push_back({vl, 0, 0.0, -1, cg_link_first_[l], l, false});
        cg_link_first_[l] = lv;
      }
      CgLinkVl& e = cg_lvl_[static_cast<std::size_t>(lv)];
      ++e.count;
      e.sum += rate_[slot];
      cg_ent_slot_.push_back(slot);
      cg_ent_next_.push_back(e.flows_head);
      e.flows_head = static_cast<std::int32_t>(cg_ent_slot_.size()) - 1;
    }
  }

  // Pass 2: candidate links. An incast needs the converging flows to come
  // from many *distinct sources* -- a single rank streaming a deep window
  // through its own NIC is well-behaved traffic, not congestion.
  bool any = false;
  for (CgLinkVl& e : cg_lvl_) {
    if (e.count < congestion_.flow_threshold) continue;
    if (e.sum < 0.98 * effective_capacity(e.link, e.vl)) continue;
    cg_origins_.clear();
    for (std::int32_t ent = e.flows_head; ent != -1; ent = cg_ent_next_[ent]) {
      cg_origins_.push_back(graph_.link(route_[cg_ent_slot_[ent]].front()).src);
    }
    std::sort(cg_origins_.begin(), cg_origins_.end());
    const auto distinct =
        std::unique(cg_origins_.begin(), cg_origins_.end()) - cg_origins_.begin();
    if (static_cast<int>(distinct) < congestion_.flow_threshold) continue;
    e.congested = true;
    any = true;
  }
  if (!any) return;

  // Pass 3: hot flows (crossing a congested link) warm every switch on their
  // route (their buffers hold the backlog).
  const auto warm_dev = [this](DeviceId d, int vl) {
    if (graph_.device(d).kind != DeviceKind::kSwitch) return;
    if (cg_dev_epoch_[d] != cg_epoch_) {
      cg_dev_epoch_[d] = cg_epoch_;
      cg_dev_first_[d] = -1;
    }
    for (std::int32_t i = cg_dev_first_[d]; i != -1; i = cg_dvl_[i].next) {
      if (cg_dvl_[i].vl == vl) return;
    }
    cg_dvl_.push_back({vl, cg_dev_first_[d]});
    cg_dev_first_[d] = static_cast<std::int32_t>(cg_dvl_.size()) - 1;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    bool hot = false;
    for (const LinkId l : route_[slot]) {
      const std::int32_t lv = find_lvl(l, vl);
      if (lv != -1 && cg_lvl_[static_cast<std::size_t>(lv)].congested) {
        hot = true;
        break;
      }
    }
    if (!hot) continue;
    for (const LinkId l : route_[slot]) {
      const Link& lk = graph_.link(l);
      warm_dev(lk.src, vl);
      warm_dev(lk.dst, vl);
    }
  }

  // Pass 4: every flow crossing a warm switch on its VL is degraded.
  const auto dev_warm = [this](DeviceId d, int vl) {
    if (cg_dev_epoch_[d] != cg_epoch_) return false;
    for (std::int32_t i = cg_dev_first_[d]; i != -1; i = cg_dvl_[i].next) {
      if (cg_dvl_[i].vl == vl) return true;
    }
    return false;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t slot = slots[i];
    const int vl = vl_[slot];
    bool crosses = false;
    for (const LinkId l : route_[slot]) {
      const Link& lk = graph_.link(l);
      if (dev_warm(lk.src, vl) || dev_warm(lk.dst, vl)) {
        crosses = true;
        break;
      }
    }
    if (crosses) rate_[slot] *= congestion_.rate_factor;
  }
}

void Network::emit_allocation() {
  const SimTime now = engine_.now();
  for (const std::uint32_t slot : order_) {
    if (token_[slot] == 0) continue;
    // Standalone = what the flow would get running alone (its route
    // bottleneck, or its private cap if tighter); allocated below it means
    // fair sharing is squeezing the flow.
    Bandwidth standalone = rate_cap_[slot] > 0 ? rate_cap_[slot] : 0;
    for (const LinkId l : route_[slot]) {
      const Bandwidth cap = effective_capacity(l, vl_[slot]);
      if (standalone <= 0 || cap < standalone) standalone = cap;
    }
    telemetry_->flow_rate(token_[slot], route_[slot], rate_[slot], standalone, now);
    if (standalone > 0 && rate_[slot] < standalone * (1.0 - 1e-9)) {
      telemetry_->flow_throttled(token_[slot], bottleneck_[slot], now);
    }
  }
  // Saturated links, in first-visit order over the active flows' routes --
  // the exact order the pre-PR-7 solver's trace listed them. Stale flags
  // on links no active flow crosses are never visited, hence never emitted.
  ++vis_epoch_;
  for (const std::uint32_t slot : order_) {
    for (const LinkId l : route_[slot]) {
      if (link_vis_[l] == vis_epoch_) continue;
      link_vis_[l] = vis_epoch_;
      if (link_sat_[l] != 0) telemetry_->link_saturated(l, link_sat_count_[l], now);
    }
  }
}

void Network::on_completion_event() {
  advance_residuals();
  // Complete every flow that has fully serialized (ties batch here). One
  // stable partition pass over order_: survivors slide down in place, so the
  // ascending-FlowId invariant is preserved.
  removed_scratch_.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t slot = order_[i];
    if (residual_bits_[slot] <= kEpsilonBits) {
      // The vacated links are next event's seeds: the completed flow's share
      // redistributes to whatever still crosses them.
      for (const LinkId l : route_[slot]) pending_seed_links_.push_back(l);
      removed_scratch_.push_back(extract_flow(slot));
    } else {
      order_[keep++] = slot;
    }
  }
  order_.resize(keep);
  for (RemovedFlow& f : removed_scratch_) deliver(std::move(f));
  removed_scratch_.clear();
  mark_dirty();
}

void Network::on_link_state_change() {
  if (faults_ == nullptr) return;
  advance_residuals();
  removed_scratch_.clear();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t slot = order_[i];
    if (route_has_down_link(route_[slot])) {
      removed_scratch_.push_back(extract_flow(slot));
    } else {
      order_[keep++] = slot;
    }
  }
  order_.resize(keep);
  for (RemovedFlow& f : removed_scratch_) interrupt(std::move(f));
  removed_scratch_.clear();
  // Survivors are re-rated against the new capacities (degraded or restored
  // links) at the same coalesced zero-delay event starts/completions use.
  // Which links changed is unknown here, so localization is unsound: force a
  // full solve.
  request_full_solve(FullReason::kLinkState);
  mark_dirty();
}

void Network::interrupt(RemovedFlow&& flow) {
  const double sent_bits = flow.total_bits - flow.residual_bits;
  bits_interrupted_ += sent_bits;
  ++flows_interrupted_;
  const Bytes sent = static_cast<Bytes>(sent_bits / 8.0);
  if (telemetry_ != nullptr && flow.token != 0) {
    telemetry_->flow_interrupted(flow.token, flow.route, sent, engine_.now());
  }
  if (flow.on_interrupted) {
    engine_.after(SimTime::zero(), [cb = std::move(flow.on_interrupted), sent, this] {
      cb(sent, engine_.now());
    });
  }
}

void Network::deliver(RemovedFlow&& flow) {
  SimTime delay = route_latency(graph_, flow.route);
  if (noise_ != nullptr && flow.vl == noise_->noisy_vl()) {
    for (const LinkId l : flow.route) delay += noise_->queueing_delay(l);
  }
  bits_delivered_ += flow.total_bits;
  if (telemetry_ != nullptr && flow.token != 0) {
    telemetry_->flow_completed(flow.token, flow.route,
                               static_cast<Bytes>(flow.total_bits / 8.0), engine_.now(),
                               engine_.now() + delay);
  }
  auto cb = std::move(flow.on_delivered);
  if (!cb) return;
  engine_.after(delay, [cb = std::move(cb), this] { cb(engine_.now()); });
}

}  // namespace gpucomm
