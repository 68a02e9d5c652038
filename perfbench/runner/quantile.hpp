// The Harrell-Davis quantile estimator.
//
// The op percentiles pool a few hundred ops of very different sizes; the
// order statistic at a rank then sits between sparse groups of ops, and op
// to op noise of about 10% moves it by more than that. The Harrell-Davis
// estimate is a weighted mean of every order statistic, with Beta weights
// centred on the rank (Harrell and Davis, Biometrika 69(3), 1982), so the
// neighbours of the rank share its noise. It estimates the same quantile.
#pragma once

#include <vector>

namespace perfbench {

/// The p-quantile (0 < p < 1) of `sorted` (ascending); 0 when it is empty.
double harrell_davis(const std::vector<double>& sorted, double p);

}  // namespace perfbench
