#include "gpucomm/serve/obs.hpp"

namespace gpucomm::serve {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kParse: return "parse";
    case Stage::kRun: return "run";
    case Stage::kRender: return "render";
    case Stage::kE2e: return "e2e";
  }
  return "?";
}

Obs::Clock::time_point Obs::record(Stage stage, Clock::time_point start) {
  const Clock::time_point now = Clock::now();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count();
  const std::lock_guard<std::mutex> lock(mu_);
  h_[static_cast<std::size_t>(stage)].record(static_cast<std::uint64_t>(ns));
  return now;
}

Obs::Histograms Obs::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return h_;
}

LatencyStats Obs::latency() const {
  const Histograms hs = histograms();
  LatencyStats out;
  for (int s = 0; s < kStageCount; ++s) {
    const metrics::Log2Histogram& h = hs[static_cast<std::size_t>(s)];
    auto& st = out.stage[s];
    st.count = h.count();
    st.p50_us = h.quantile(0.5) / 1000.0;
    st.p90_us = h.quantile(0.9) / 1000.0;
    st.p99_us = h.quantile(0.99) / 1000.0;
    st.max_us = static_cast<double>(h.max()) / 1000.0;
  }
  return out;
}

}  // namespace gpucomm::serve
