#include "trace.hpp"

#include <fstream>

#include "gpucomm/metrics/json.hpp"

namespace perfbench {

int Tracer::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans are RAII-scoped on one thread, so they close in LIFO order.
  open_.pop_back();
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += (s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double d = (s.end_ns - s.start_ns) * 1e-9;
    LayerTotals& t = out[s.name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  gpucomm::metrics::JsonWriter w(os, gpucomm::metrics::JsonWriter::Style::kCompact);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", static_cast<std::int64_t>(1));
    w.kv("tid", static_cast<std::int64_t>(1));
    w.kv("ts", (s.start_ns - origin) * 1e-3);
    w.kv("dur", (s.end_ns - s.start_ns) * 1e-3);
    w.key("args").begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
