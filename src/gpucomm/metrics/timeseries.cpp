#include "gpucomm/metrics/timeseries.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>
#include <string>

#include "gpucomm/metrics/json.hpp"

namespace gpucomm::metrics {

namespace {
/// Ten-step intensity ramp for the utilization heatmap.
constexpr char kRamp[] = " .:-=+*#%@";
}  // namespace

TimeSeries::TimeSeries(const Graph& graph, SimTime bucket)
    : graph_(graph), width_(bucket), links_(graph.link_count()),
      active_(graph.link_count(), 0) {
  assert(width_.ps > 0);
}

TimeSeries::Bucket& TimeSeries::bucket(LinkId link, std::size_t index) {
  auto& v = links_[link];
  if (v.size() <= index) v.resize(index + 1);
  return v[index];
}

void TimeSeries::touch_active(const Route& route, SimTime now) {
  const auto idx = static_cast<std::size_t>(now.ps / width_.ps);
  for (const LinkId l : route) {
    Bucket& b = bucket(l, idx);
    b.peak_active = std::max(b.peak_active, active_[l]);
  }
}

void TimeSeries::integrate(FlowState& st, SimTime now) {
  if (now.ps <= st.last.ps) return;
  if (st.rate > 0 || st.standalone > 0) {
    std::int64_t t = st.last.ps;
    while (t < now.ps) {
      const std::int64_t idx = t / width_.ps;
      const std::int64_t seg_end = std::min(now.ps, (idx + 1) * width_.ps);
      const double dt = static_cast<double>(seg_end - t) * 1e-12;
      for (const LinkId l : st.route) {
        Bucket& b = bucket(l, static_cast<std::size_t>(idx));
        b.bits += st.rate * dt;
        b.demand_bits += st.standalone * dt;
        b.peak_active = std::max(b.peak_active, active_[l]);
      }
      t = seg_end;
    }
  }
  st.last = now;
}

void TimeSeries::flow_started(telemetry::FlowToken token, const telemetry::FlowTag&,
                              const Route& route, int vl, Bytes, SimTime now) {
  if (now > end_) end_ = now;
  FlowState st;
  st.route = route;
  st.vl = vl;
  st.last = now;
  for (const LinkId l : route) ++active_[l];
  touch_active(route, now);
  in_flight_[token] = std::move(st);
}

void TimeSeries::flow_rate(telemetry::FlowToken token, const Route&, Bandwidth rate,
                           Bandwidth standalone, SimTime now) {
  if (now > end_) end_ = now;
  const auto it = in_flight_.find(token);
  if (it == in_flight_.end()) return;
  integrate(it->second, now);
  it->second.rate = rate;
  it->second.standalone = standalone;
}

void TimeSeries::flow_throttled(telemetry::FlowToken, LinkId bottleneck, SimTime now) {
  if (now > end_) end_ = now;
  if (bottleneck == kInvalidLink) return;
  ++bucket(bottleneck, static_cast<std::size_t>(now.ps / width_.ps)).throttles;
}

void TimeSeries::close_flow(telemetry::FlowToken token, SimTime now) {
  const auto it = in_flight_.find(token);
  if (it == in_flight_.end()) return;
  integrate(it->second, now);
  for (const LinkId l : it->second.route) --active_[l];
  in_flight_.erase(it);
}

void TimeSeries::flow_completed(telemetry::FlowToken token, const Route&, Bytes,
                                SimTime serialized, SimTime) {
  if (serialized > end_) end_ = serialized;
  close_flow(token, serialized);
}

void TimeSeries::link_saturated(LinkId link, int, SimTime now) {
  if (now > end_) end_ = now;
  ++bucket(link, static_cast<std::size_t>(now.ps / width_.ps)).saturations;
}

void TimeSeries::flow_interrupted(telemetry::FlowToken token, const Route&, Bytes,
                                  SimTime now) {
  if (now > end_) end_ = now;
  close_flow(token, now);
}

void TimeSeries::finalize(SimTime now) {
  if (now > end_) end_ = now;
  for (auto& [token, st] : in_flight_) {
    (void)token;
    integrate(st, now);
  }
}

std::size_t TimeSeries::bucket_count() const {
  if (end_.ps <= 0) return 0;
  return static_cast<std::size_t>((end_.ps + width_.ps - 1) / width_.ps);
}

double TimeSeries::link_bits(LinkId link) const {
  double total = 0;
  for (const Bucket& b : links_[link]) total += b.bits;
  return total;
}

void TimeSeries::render_heatmap(std::ostream& os, int max_links) const {
  const std::size_t nb = bucket_count();
  struct Row {
    LinkId link = kInvalidLink;
    double bits = 0;
  };
  std::vector<Row> rows;
  for (LinkId l = 0; l < links_.size(); ++l) {
    const double bits = link_bits(l);
    if (bits > 0) rows.push_back({l, bits});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.bits != b.bits) return a.bits > b.bits;
    return a.link < b.link;
  });
  if (rows.size() > static_cast<std::size_t>(max_links)) rows.resize(max_links);

  os << "Link utilization heatmap (" << rows.size() << " busiest links, bucket = "
     << to_string(width_) << ", ramp \"" << kRamp << "\" = 0..100%)\n";
  if (rows.empty() || nb == 0) {
    os << "  (no traffic recorded)\n";
    return;
  }

  // Coarsen to at most 100 columns so wide runs stay terminal-friendly.
  const std::size_t group = (nb + 99) / 100;
  const std::size_t cols = (nb + group - 1) / group;
  std::size_t label_width = 0;
  std::vector<std::string> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Link& link = graph_.link(rows[i].link);
    std::string& label = labels[i];
    label.append("L").append(std::to_string(rows[i].link)).append(" ");
    label.append(graph_.device(link.src).label).append(">").append(graph_.device(link.dst).label);
    label_width = std::max(label_width, label.size());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "  " << labels[i] << std::string(label_width - labels[i].size(), ' ') << " |";
    const Link& link = graph_.link(rows[i].link);
    const auto& buckets = links_[rows[i].link];
    const double group_secs = static_cast<double>(group) * width_.seconds();
    for (std::size_t c = 0; c < cols; ++c) {
      double bits = 0;
      for (std::size_t k = c * group; k < std::min(nb, (c + 1) * group); ++k) {
        if (k < buckets.size()) bits += buckets[k].bits;
      }
      double u = link.capacity > 0 ? bits / (link.capacity * group_secs) : 0;
      u = std::clamp(u, 0.0, 1.0);
      int idx = static_cast<int>(u * 10.0);
      if (idx > 9) idx = 9;
      if (idx == 0 && bits > 0) idx = 1;  // any traffic is visible
      os << kRamp[idx];
    }
    os << "|\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(nb) * width_.micros());
  os << "  " << std::string(label_width, ' ') << " 0" << std::string(cols > 8 ? cols - 8 : 0, '-')
     << "> " << buf << " us\n";
}

void TimeSeries::write_csv(std::ostream& os) const {
  os << "link,src,dst,bucket,start_us,bits,util,demand_ratio,peak_active,throttles,"
        "saturations\n";
  for (LinkId l = 0; l < links_.size(); ++l) {
    const auto& buckets = links_[l];
    const Link& link = graph_.link(l);
    const double cap_bits = link.capacity * width_.seconds();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const Bucket& b = buckets[i];
      if (b.bits <= 0 && b.demand_bits <= 0 && b.peak_active == 0 && b.throttles == 0 &&
          b.saturations == 0) {
        continue;
      }
      os << l << "," << graph_.device(link.src).label << "," << graph_.device(link.dst).label
         << "," << i << "," << json_number(static_cast<double>(i) * width_.micros()) << ","
         << json_number(b.bits) << ","
         << json_number(cap_bits > 0 ? b.bits / cap_bits : 0) << ","
         << json_number(cap_bits > 0 ? b.demand_bits / cap_bits : 0) << "," << b.peak_active
         << "," << b.throttles << "," << b.saturations << "\n";
    }
  }
}

void TimeSeries::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("bucket_ps", width_.ps);
  w.kv("end_ps", end_.ps);
  w.key("links").begin_array();
  for (LinkId l = 0; l < links_.size(); ++l) {
    const auto& buckets = links_[l];
    if (buckets.empty()) continue;
    const Link& link = graph_.link(l);
    w.begin_object();
    w.kv("link", static_cast<std::int64_t>(l));
    w.kv("span", graph_.device(link.src).label + ">" + graph_.device(link.dst).label);
    w.kv("capacity_gbps", link.capacity / 1e9);
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const Bucket& b = buckets[i];
      if (b.bits <= 0 && b.demand_bits <= 0 && b.peak_active == 0 && b.throttles == 0 &&
          b.saturations == 0) {
        continue;
      }
      w.begin_object();
      w.kv("i", static_cast<std::int64_t>(i));
      w.kv("bits", b.bits);
      w.kv("demand_bits", b.demand_bits);
      w.kv("peak_active", b.peak_active);
      w.kv("throttles", static_cast<std::uint64_t>(b.throttles));
      w.kv("saturations", static_cast<std::uint64_t>(b.saturations));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace gpucomm::metrics
