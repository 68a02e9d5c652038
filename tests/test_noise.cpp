// Production-noise field behaviour (Sec. VI).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/noise/noise_model.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm {
namespace {

struct Fixture {
  SystemConfig cfg = leonardo_config();
  Cluster cluster{cfg, {.nodes = 4, .placement = Placement::kScatterGroups}};
  ProductionNoise* noise() {
    return dynamic_cast<ProductionNoise*>(cluster.noise_field());
  }
};

TEST(NoiseTest, FieldExistsOnLeonardo) {
  Fixture f;
  ASSERT_NE(f.noise(), nullptr);
  EXPECT_EQ(f.noise()->noisy_vl(), 0);
}

TEST(NoiseTest, OnlyFabricLinksCarryBackground) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const LinkType t = g.link(l).type;
    const bool fabric =
        t == LinkType::kGlobal || t == LinkType::kLeafSpine || t == LinkType::kIntraGroup;
    if (!fabric) {
      EXPECT_EQ(f.noise()->background_utilization(l), 0.0);
    }
  }
}

TEST(NoiseTest, UtilizationBounded) {
  Fixture f;
  for (int iter = 0; iter < 20; ++iter) {
    f.noise()->resample();
    const Graph& g = f.cluster.graph();
    for (LinkId l = 0; l < g.link_count(); ++l) {
      const double u = f.noise()->background_utilization(l);
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 0.9);
    }
  }
}

TEST(NoiseTest, ResampleChangesTheField) {
  Fixture f;
  const double before = f.noise()->mean_utilization();
  double changed = 0;
  for (int i = 0; i < 5; ++i) {
    f.noise()->resample();
    changed += std::abs(f.noise()->mean_utilization() - before);
  }
  EXPECT_GT(changed, 0.0);
}

TEST(NoiseTest, MeanUtilizationInCalibratedBand) {
  // With the hotspot process, global links average well above the calm mean.
  Fixture f;
  double total = 0;
  const int iters = 50;
  for (int i = 0; i < iters; ++i) {
    f.noise()->resample();
    total += f.noise()->mean_utilization();
  }
  const double mean = total / iters;
  EXPECT_GT(mean, 0.10);
  EXPECT_LT(mean, 0.50);
}

TEST(NoiseTest, QueueingDelayOnlyOnLoadedLinks) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  f.noise()->resample();
  for (LinkId l = 0; l < g.link_count(); ++l) {
    if (f.noise()->background_utilization(l) == 0.0) {
      EXPECT_EQ(f.noise()->queueing_delay(l), SimTime::zero());
    }
  }
}

TEST(NoiseTest, QueueingDelayHasHeavyTail) {
  Fixture f;
  const Graph& g = f.cluster.graph();
  // Find a loaded global link.
  f.noise()->resample();
  LinkId loaded = kInvalidLink;
  for (LinkId l = 0; l < g.link_count(); ++l) {
    if (g.link(l).type == LinkType::kGlobal && f.noise()->background_utilization(l) > 0.3) {
      loaded = l;
      break;
    }
  }
  ASSERT_NE(loaded, kInvalidLink);
  double max_us = 0, sum = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const double d = f.noise()->queueing_delay(loaded).micros();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 45.0 + 1e-9);  // per-hop cap (132 us over a 3-hop path)
    max_us = std::max(max_us, d);
    sum += d;
  }
  EXPECT_GT(max_us, 8.0 * (sum / n));  // heavy tail: max >> mean
}

TEST(NoiseTest, DeterministicUnderSeed) {
  SystemConfig cfg = leonardo_config();
  auto sample = [&cfg] {
    Cluster c(cfg, {.nodes = 2});
    auto* noise = dynamic_cast<ProductionNoise*>(c.noise_field());
    std::vector<double> out;
    for (int i = 0; i < 3; ++i) {
      noise->resample();
      out.push_back(noise->mean_utilization());
    }
    return out;
  };
  EXPECT_EQ(sample(), sample());
}

TEST(NoiseTest, FullFieldIsDeterministicAcrossResamples) {
  // Stronger than the mean check above: the entire per-link utilization
  // field, sampled over several resample() rounds, is reproducible from the
  // seed — the property fault-injection replay relies on.
  SystemConfig cfg = leonardo_config();
  auto sample = [&cfg] {
    Cluster c(cfg, {.nodes = 2});
    auto* noise = dynamic_cast<ProductionNoise*>(c.noise_field());
    std::vector<double> out;
    for (int round = 0; round < 4; ++round) {
      noise->resample();
      for (LinkId l = 0; l < c.graph().link_count(); ++l) {
        out.push_back(noise->background_utilization(l));
      }
    }
    return out;
  };
  EXPECT_EQ(sample(), sample());
}

TEST(NoiseTest, DisabledParamsProduceSilence) {
  // Alps' config has production noise off: a hand-built field stays at zero.
  Graph g;
  const DeviceId a = g.add_device({DeviceKind::kSwitch, -1, 0, "a"});
  const DeviceId b = g.add_device({DeviceKind::kSwitch, -1, 1, "b"});
  const LinkId l = g.add_duplex_link(a, b, gbps(200), nanoseconds(100), LinkType::kGlobal);
  ProductionNoise noise(g, alps_config().noise, Rng(1));
  noise.resample();
  EXPECT_EQ(noise.background_utilization(l), 0.0);
  EXPECT_EQ(noise.queueing_delay(l), SimTime::zero());
}

// --- deferred draws vs the eager field ---------------------------------------

/// Reference field: draws every noisy link's value eagerly on every resample,
/// in ascending link order, from one stream.
class EagerNoise {
 public:
  EagerNoise(const Graph& graph, NoiseParams params, Rng rng)
      : graph_(graph), params_(params), rng_(rng), util_(graph.link_count(), 0.0) {
    resample();
  }

  void resample() {
    if (!params_.production_noise) return;
    for (LinkId l = 0; l < util_.size(); ++l) {
      const LinkType t = graph_.link(l).type;
      if (t != LinkType::kGlobal && t != LinkType::kLeafSpine && t != LinkType::kIntraGroup) {
        continue;
      }
      const bool global = t == LinkType::kGlobal;
      const double mean = global ? params_.mean_global_util : params_.mean_local_util;
      const double hot_prob = global ? params_.hot_prob_global : params_.hot_prob_local;
      if (hot_prob > 0 && rng_.bernoulli(hot_prob)) {
        util_[l] = global ? rng_.uniform(params_.hot_util_min, params_.hot_util_max)
                          : rng_.uniform(0.5 * params_.hot_util_min, 0.65 * params_.hot_util_max);
        continue;
      }
      if (mean <= 0) {
        util_[l] = 0;
        continue;
      }
      const double sigma = params_.util_sigma;
      const double mu = std::log(mean) - 0.5 * sigma * sigma;
      util_[l] = std::clamp(rng_.lognormal(mu, sigma), 0.0, 0.9);
    }
  }

  double utilization(LinkId l) const { return util_[l]; }

  SimTime queueing_delay(LinkId link) {
    const double u = util_[link];
    if (u <= 0 || params_.delay_median_us <= 0) return SimTime::zero();
    const double scale = std::min(3.0, u / std::max(params_.mean_global_util, 1e-6));
    const double median_us = params_.delay_median_us * scale;
    double delay_us = rng_.lognormal(std::log(median_us), params_.delay_sigma);
    if (params_.tail_probability > 0 && rng_.bernoulli(params_.tail_probability)) {
      delay_us += rng_.bounded_pareto(1.0, params_.tail_max_us, 1.2);
    }
    delay_us = std::min(delay_us, params_.tail_max_us);
    return microseconds(delay_us);
  }

 private:
  const Graph& graph_;
  NoiseParams params_;
  Rng rng_;
  std::vector<double> util_;
};

TEST(NoiseDeferred, BitEqualToEagerFieldUnderAnyReadPattern) {
  // Over several resamples, links are read in shuffled order, some twice and
  // some never; every read must be bit-equal to the eager field, and the
  // queueing-delay draws that follow must continue the same stream.
  SystemConfig cfg = leonardo_config();
  Cluster cluster{cfg, {.nodes = 4, .placement = Placement::kScatterGroups, .enable_noise = false}};
  const Graph& g = cluster.graph();
  ProductionNoise deferred(g, cfg.noise, Rng(77));
  EagerNoise eager(g, cfg.noise, Rng(77));
  Rng order(5);
  std::vector<LinkId> links(g.link_count());
  std::iota(links.begin(), links.end(), LinkId{0});
  int noisy_reads = 0;
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      deferred.resample();
      eager.resample();
    }
    order.shuffle(links);
    // Read the first ~half of the shuffled links, a tenth of them twice;
    // leave the rest unread this round.
    const std::size_t reads = links.size() / 2;
    for (std::size_t i = 0; i < reads; ++i) {
      const LinkId l = links[i];
      const double want = eager.utilization(l);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(deferred.background_utilization(l)),
                std::bit_cast<std::uint64_t>(want))
          << "round " << round << ", link " << l;
      if (i % 10 == 0) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(deferred.background_utilization(l)),
                  std::bit_cast<std::uint64_t>(want));
      }
      if (want > 0) ++noisy_reads;
    }
    // Queueing delays over read and unread links alike.
    for (std::size_t i = 0; i < 200; ++i) {
      const LinkId l = links[(i * 97) % links.size()];
      EXPECT_EQ(deferred.queueing_delay(l), eager.queueing_delay(l))
          << "round " << round << ", link " << l;
    }
  }
  EXPECT_GT(noisy_reads, 1000);  // the check exercised real draws
  double eager_mean = 0;
  std::size_t noisy = 0;
  for (LinkId l = 0; l < g.link_count(); ++l) {
    const LinkType t = g.link(l).type;
    if (t == LinkType::kGlobal || t == LinkType::kLeafSpine || t == LinkType::kIntraGroup) {
      eager_mean += eager.utilization(l);
      ++noisy;
    }
  }
  EXPECT_EQ(deferred.mean_utilization(), eager_mean / static_cast<double>(noisy));
}

}  // namespace
}  // namespace gpucomm
