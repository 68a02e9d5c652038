#include "gpucomm/metrics/profile_report.hpp"

#include <ostream>
#include <string>

#include "gpucomm/harness/table.hpp"

namespace gpucomm::metrics {

namespace {

std::string us(SimTime t) { return fmt(t.micros(), 3); }

std::string pct(SimTime part, SimTime whole) {
  if (whole.ps <= 0) return "-";
  return fmt(100.0 * static_cast<double>(part.ps) / static_cast<double>(whole.ps), 1) + "%";
}

std::string stage_label(const SpanProfile& s) {
  std::string label = s.kind;
  if (s.round >= 0) label.append(" ").append(std::to_string(s.round));
  if (!s.algorithm.empty()) label.append(" (").append(s.algorithm).append(")");
  return label;
}

}  // namespace

void print_profile(std::ostream& os, const std::vector<OpProfile>& ops, const Graph* graph,
                   int max_hotspots) {
  for (const OpProfile& op : ops) {
    os << "== profile: " << op.mechanism << " " << op.op << " " << format_bytes(op.bytes)
       << " — " << to_string(op.duration()) << " end-to-end ==\n";

    Table stages({"stage", "total us", "share", "serial us", "contend us", "propag us",
                  "recover us", "overhead us", "critical", "attempts"});
    SimTime sum;
    for (const SpanProfile& s : op.spans) {
      sum += s.total;
      std::string critical = "-";
      std::string attempts = "-";
      if (s.attempts > 0) {
        critical = std::to_string(s.src) + ">" + std::to_string(s.dst);
        attempts = std::to_string(s.attempts);
      }
      stages.add_row({stage_label(s), us(s.total), pct(s.total, op.duration()),
                      us(s.serialization), us(s.contention), us(s.propagation),
                      us(s.recovery), us(s.overhead), critical, attempts});
    }
    stages.print(os);
    os << "stage totals sum to " << to_string(sum) << " of " << to_string(op.duration())
       << " end-to-end (delta " << (op.duration() - sum).ps << " ps)\n";

    os << "top bottleneck links on the critical path:";
    if (op.hotspots.empty()) {
      os << " (none — critical-path flows ran at their standalone rates)\n";
    } else {
      os << "\n";
      Table hot({"link", "span", "contention us", "throttle events"});
      int count = 0;
      for (const LinkHotspot& h : op.hotspots) {
        if (count++ >= max_hotspots) break;
        std::string span = "-";
        if (graph != nullptr && h.link != kInvalidLink) {
          const Link& link = graph->link(h.link);
          span = graph->device(link.src).label;
          span.append(">").append(graph->device(link.dst).label);
        }
        hot.add_row({std::string("L").append(std::to_string(h.link)), span, us(h.contention),
                     std::to_string(h.throttles)});
      }
      hot.print(os);
    }
    os << "\n";
  }
}

}  // namespace gpucomm::metrics
