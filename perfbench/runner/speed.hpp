// Host-speed calibration for a shared machine.
//
// Other tenants of a shared host slow this process down, by up to 2x, and
// the slowdown drifts over minutes; both wall and CPU time rise with it (the
// process runs slower, it is not descheduled). Raw times of the same code
// measured ten minutes apart then differ by more than any useful regression
// bound. The meter runs a fixed reference kernel (a *slice*) between ops,
// whenever kSliceEveryMs of pass time have gone by since the last one, and
// records how long each slice took. The host's slowdown near a moment is the
// median time of the kWindow slices nearest to it over kReferenceSliceMs;
// the time between slices is divided by it, so a result reads as seconds on
// a host that runs one slice in kReferenceSliceMs. The kernel is the
// benchmark's own fixed code: a change to the library moves the op times and
// not the slices.
#pragma once

#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct SliceRecord {
  std::int64_t start_ns;  // steady clock
  std::int64_t end_ns;
  std::int64_t cpu_start_ns;  // process CPU clock
  std::int64_t cpu_end_ns;
};

/// Normalized time of one stretch of a pass.
struct Normalized {
  double wall_s = 0;
  double cpu_s = 0;
};

class SpeedMeter {
 public:
  static constexpr double kReferenceSliceMs = 0.25;
  static constexpr std::int64_t kSliceEveryMs = 25;
  static constexpr std::size_t kWindow = 31;

  /// Run one slice now and record it.
  void slice();
  /// True when kSliceEveryMs have gone by since the last slice.
  bool due() const {
    return !slices_.empty() && now_ns() - slices_.back().end_ns >= kSliceEveryMs * 1000000;
  }
  void clear() { slices_.clear(); }

  /// Median wall-time slowdown over every slice recorded.
  double median_factor() const;
  /// The time between the first and the last slice, slices excluded, each
  /// gap divided by the slowdown at its middle.
  Normalized normalize() const;
  /// An op's host time divided by the slowdown at its middle.
  double normalize_ms(std::int64_t start_ns, double ms) const;

 private:
  /// Wall-time (or CPU-time) slowdown near steady-clock time `t`; 1 is the
  /// reference speed.
  double factor_at(std::int64_t t, bool cpu) const;

  std::vector<SliceRecord> slices_;
};

}  // namespace perfbench
