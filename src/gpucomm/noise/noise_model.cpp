#include "gpucomm/noise/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gpucomm {

ProductionNoise::ProductionNoise(const Graph& graph, NoiseParams params, Rng rng)
    : graph_(graph), params_(params), rng_(rng) {
  for (LinkId l = 0; l < graph_.link_count(); ++l) {
    if (noisy_link(l)) noisy_.push_back(l);
  }
  util_.assign(graph_.link_count(), 0.0);
  pending_.assign(graph_.link_count(), Draw::kReady);
  pos_.assign(graph_.link_count(), rng_);
  resample();
}

bool ProductionNoise::noisy_link(LinkId link) const {
  // Only shared fabric links carry other jobs' traffic; edge (NIC) links are
  // dedicated to the measured job's nodes.
  const LinkType t = graph_.link(link).type;
  return t == LinkType::kGlobal || t == LinkType::kLeafSpine || t == LinkType::kIntraGroup;
}

void ProductionNoise::resample() {
  if (!params_.production_noise) return;  // utilization stays 0: same version
  ++version_;
  for (const LinkId l : noisy_) {
    const bool global = graph_.link(l).type == LinkType::kGlobal;
    const double mean = global ? params_.mean_global_util : params_.mean_local_util;
    const double hot_prob = global ? params_.hot_prob_global : params_.hot_prob_local;
    if (hot_prob > 0 && rng_.bernoulli(hot_prob)) {
      pos_[l] = rng_;
      pending_[l] = Draw::kHot;
      rng_.discard(1);  // uniform
      continue;
    }
    if (mean <= 0) {
      util_[l] = 0;
      pending_[l] = Draw::kReady;
      continue;
    }
    pos_[l] = rng_;
    pending_[l] = Draw::kCalm;
    rng_.discard(2);  // lognormal: a Box-Muller normal takes two uniforms
  }
}

void ProductionNoise::settle(LinkId link) const {
  Rng rng = pos_[link];
  const bool global = graph_.link(link).type == LinkType::kGlobal;
  if (pending_[link] == Draw::kHot) {
    // A bursty production job is riding this link right now. Intra-group
    // (leaf-spine) links see milder bursts than the thin global links.
    util_[link] = global ? rng.uniform(params_.hot_util_min, params_.hot_util_max)
                         : rng.uniform(0.5 * params_.hot_util_min, 0.65 * params_.hot_util_max);
  } else {
    // Calm state: lognormal with the requested mean (mu = ln(mean) - s^2/2).
    const double mean = global ? params_.mean_global_util : params_.mean_local_util;
    const double sigma = params_.util_sigma;
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    util_[link] = std::clamp(rng.lognormal(mu, sigma), 0.0, 0.9);
  }
  pending_[link] = Draw::kReady;
}

double ProductionNoise::background_utilization(LinkId link) const {
  if (pending_[link] != Draw::kReady) settle(link);
  return util_[link];
}

SimTime ProductionNoise::queueing_delay(LinkId link) {
  const double u = background_utilization(link);
  if (u <= 0 || params_.delay_median_us <= 0) return SimTime::zero();
  // Body: lognormal around the calibrated median, scaled by how loaded this
  // link currently is relative to the mean global load.
  const double scale = std::min(3.0, u / std::max(params_.mean_global_util, 1e-6));
  const double median_us = params_.delay_median_us * scale;
  double delay_us = rng_.lognormal(std::log(median_us), params_.delay_sigma);
  // Tail: rare deep-queue events (incasts elsewhere in the fabric).
  if (params_.tail_probability > 0 && rng_.bernoulli(params_.tail_probability)) {
    delay_us += rng_.bounded_pareto(1.0, params_.tail_max_us, 1.2);
  }
  delay_us = std::min(delay_us, params_.tail_max_us);
  return microseconds(delay_us);
}

double ProductionNoise::mean_utilization() const {
  double total = 0;
  for (const LinkId l : noisy_) total += background_utilization(l);
  return noisy_.empty() ? 0.0 : total / static_cast<double>(noisy_.size());
}

}  // namespace gpucomm
