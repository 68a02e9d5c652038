// Production network-noise field (Sec. VI).
//
// On Leonardo all production traffic is mapped to service level 0, so jobs
// on SL0 share switch queues with the whole machine's traffic while a
// non-default SL behaves like a drained system (Sec. VI-A). The field draws
// a per-link background utilization (lognormal) for the shared fabric links
// and samples per-hop queueing delays with a heavy tail, calibrated against
// Fig. 8's latency/goodput spreads.
//
// Draws are deferred: resample() walks the noisy links in ascending id order,
// draws each link's hot/calm Bernoulli, records the stream position of its
// value draw and skips that draw with Rng::discard. A link's utilization is
// evaluated from its recorded position on its first read after the resample,
// so a resample costs one draw per noisy link and only the links a run reads
// pay for the value. The stream and every value are those of drawing every
// link eagerly in ascending id order.
//
// Draw-order contract: per noisy link, in ascending id order, the Bernoulli
// (one draw, only when the hot probability is positive) comes first, then the
// value -- one draw for a hot link (uniform), two for a calm one (lognormal),
// none when the calm mean is 0. A new noisy link kind, or a new value
// distribution, must keep a fixed draw count per link that resample() can
// discard, or the deferred field stops matching the eager stream.
#pragma once

#include <cstdint>
#include <vector>

#include "gpucomm/net/network.hpp"
#include "gpucomm/sim/random.hpp"
#include "gpucomm/systems/system_config.hpp"

namespace gpucomm {

class ProductionNoise final : public NoiseField {
 public:
  ProductionNoise(const Graph& graph, NoiseParams params, Rng rng);

  /// Evaluates the link's deferred draw on its first read after a resample.
  double background_utilization(LinkId link) const override;
  int noisy_vl() const override { return 0; }
  SimTime queueing_delay(LinkId link) override;
  void resample() override;
  /// Bumped on every resample so the incremental network core knows when
  /// link capacities moved (see NoiseField::version); starts at 1 because 0
  /// means "unversioned".
  std::uint64_t version() const override { return version_; }

  /// Mean utilization across noisy links (test hook).
  double mean_utilization() const;

 private:
  /// A link's state since the last resample: its utilization is in util_
  /// (kReady), or still to be drawn at pos_ as a hot or a calm link.
  enum class Draw : std::uint8_t { kReady, kHot, kCalm };

  bool noisy_link(LinkId link) const;
  void settle(LinkId link) const;

  const Graph& graph_;
  NoiseParams params_;
  Rng rng_;
  std::vector<LinkId> noisy_;          // shared fabric links, ascending
  mutable std::vector<double> util_;   // per link; 0 for non-fabric links
  mutable std::vector<Draw> pending_;  // per link
  std::vector<Rng> pos_;               // per link: stream position of the value draw
  std::uint64_t version_ = 1;
};

}  // namespace gpucomm
