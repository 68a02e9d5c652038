// Mergeable fixed-bucket log2 histogram for service latency accounting.
//
// Bucket b holds every value whose bit width is b (so bucket 0 is exactly
// {0}, bucket 1 is {1}, bucket 2 is [2,4), bucket b is [2^(b-1), 2^b)).
// Everything the histogram reports — count, sum, exact min/max, per-bucket
// tallies — merges by plain addition (min/max by min/max), so a merged
// snapshot over N per-worker histograms is a pure function of the multiset
// of recorded values: quantile estimates are invariant under how the values
// were sharded across workers. The scenario server keeps one set of these
// (one per request stage) behind its `stats`/`metrics` control queries.
//
// quantile() interpolates linearly inside the target bucket and clamps the
// estimate to the exact recorded [min, max], so quantile(0) == min and
// quantile(1) == max exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace gpucomm::metrics {

class Log2Histogram {
 public:
  /// One bucket per possible bit width of a uint64 value (0..64 clamped).
  static constexpr std::size_t kBuckets = 64;

  /// Bucket index for a value: its bit width, clamped to kBuckets - 1.
  static std::size_t bucket_of(std::uint64_t value);

  void record(std::uint64_t value);

  /// Add another histogram's contents to this one. Exact: the result is
  /// identical to having recorded both value streams into one histogram.
  void merge(const Log2Histogram& other);

  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// Exact extrema of the recorded values; both 0 when empty.
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(std::size_t b) const { return buckets_[b]; }

  /// Estimated q-quantile (q in [0,1]) of the recorded values, linearly
  /// interpolated inside the target bucket and clamped to [min(), max()].
  /// 0 when empty.
  double quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace gpucomm::metrics
