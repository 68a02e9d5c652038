#include "speed.hpp"

#include <time.h>

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

// The kernel is the kind of work the simulator's hot loops do, kept small
// enough to stay in the L1 cache so that what the ops before it left in the
// caches does not change its time: floating-point divides and minima over
// a few hundred rates (fair-share filling) and data-dependent branches
// (insertion sorts of small arrays). Slowdowns from memory contention are
// not what it measures; on the reference host the core's speed tracked
// the simulator's far better than any memory-bound kernel tried. Its sizes
// are fixed: changing them changes the unit every result is expressed in.
constexpr int kFillWidth = 256;
constexpr int kFillRounds = 200;
constexpr int kSortWidth = 32;
constexpr int kSorts = 340;
constexpr int kWarmupShare = 8;  // the untimed run does 1/8 of the work

volatile std::uint64_t g_sink = 0;  // keeps the kernel's result alive

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t run_kernel(int share) {
  std::array<double, kFillWidth> cap{};
  std::array<double, kFillWidth> weight{};
  std::uint64_t x = 1;
  for (int i = 0; i < kFillWidth; ++i) {
    cap[i] = 1.0 + static_cast<double>(splitmix64(x) % 1000);
    weight[i] = 1.0 + static_cast<double>(splitmix64(x) % 7);
  }
  double filled = 0;
  for (int r = 0; r < kFillRounds / share; ++r) {
    double rate = 1e300;
    for (int i = 0; i < kFillWidth; ++i) rate = std::min(rate, cap[i] / weight[i]);
    for (int i = 0; i < kFillWidth; ++i) {
      cap[i] -= rate * weight[i];
      if (cap[i] <= 1e-9) cap[i] = 1.0 + static_cast<double>((i * 31 + r) % 997);
    }
    filled += rate;
  }

  std::uint64_t sum = 0;
  std::array<std::uint64_t, kSortWidth> v{};
  for (int s = 0; s < kSorts / share; ++s) {
    for (auto& e : v) e = splitmix64(x) >> 40;
    for (int i = 1; i < kSortWidth; ++i) {
      const std::uint64_t key = v[i];
      int j = i - 1;
      while (j >= 0 && v[j] > key) {
        v[j + 1] = v[j];
        --j;
      }
      v[j + 1] = key;
    }
    sum += v[kSortWidth / 2];
  }
  return sum ^ static_cast<std::uint64_t>(filled);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 1.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2;
}

/// Process CPU time on a nanosecond clock.
std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

void SpeedMeter::slice() {
  // A short untimed run first brings the kernel's code and branch history
  // back after the ops.
  g_sink = g_sink + run_kernel(kWarmupShare);
  SliceRecord r{};
  r.cpu_start_ns = cpu_now_ns();
  r.start_ns = now_ns();
  g_sink = g_sink + run_kernel(1);
  r.end_ns = now_ns();
  r.cpu_end_ns = cpu_now_ns();
  slices_.push_back(r);
}

double SpeedMeter::factor_at(std::int64_t t, bool cpu) const {
  if (slices_.empty()) return 1.0;
  // The kWindow slices nearest to t: a window around the first slice at or
  // after t, slid to stay inside the list.
  const auto it =
      std::lower_bound(slices_.begin(), slices_.end(), t,
                       [](const SliceRecord& s, std::int64_t v) { return s.start_ns < v; });
  const std::size_t n = slices_.size();
  const std::size_t w = std::min(kWindow, n);
  std::size_t at = static_cast<std::size_t>(it - slices_.begin());
  std::size_t lo = at > w / 2 ? at - w / 2 : 0;
  lo = std::min(lo, n - w);
  std::vector<double> ms;
  ms.reserve(w);
  for (std::size_t i = lo; i < lo + w; ++i) {
    const SliceRecord& s = slices_[i];
    ms.push_back(static_cast<double>(cpu ? s.cpu_end_ns - s.cpu_start_ns : s.end_ns - s.start_ns) *
                 1e-6);
  }
  return median_of(std::move(ms)) / kReferenceSliceMs;
}

double SpeedMeter::median_factor() const {
  std::vector<double> ms;
  for (const SliceRecord& s : slices_) {
    ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return median_of(std::move(ms)) / kReferenceSliceMs;
}

Normalized SpeedMeter::normalize() const {
  Normalized out;
  for (std::size_t i = 1; i < slices_.size(); ++i) {
    const SliceRecord& a = slices_[i - 1];
    const SliceRecord& b = slices_[i];
    const std::int64_t mid = a.end_ns + (b.start_ns - a.end_ns) / 2;
    out.wall_s += static_cast<double>(b.start_ns - a.end_ns) * 1e-9 / factor_at(mid, false);
    out.cpu_s += static_cast<double>(b.cpu_start_ns - a.cpu_end_ns) * 1e-9 / factor_at(mid, true);
  }
  return out;
}

double SpeedMeter::normalize_ms(std::int64_t start_ns, double ms) const {
  return ms / factor_at(start_ns + static_cast<std::int64_t>(ms * 5e5), false);
}

}  // namespace perfbench
