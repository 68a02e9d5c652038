#include "quantile.hpp"

#include <cmath>

namespace perfbench {

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < kEps) break;
  }
  return h;
}

// The regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * beta_fraction(a, b, x) / a;
  return 1 - front * beta_fraction(b, a, 1 - x) / b;
}

}  // namespace

double harrell_davis(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0;
  if (n == 1) return sorted[0];
  const double a = p * static_cast<double>(n + 1);
  const double b = (1 - p) * static_cast<double>(n + 1);
  double estimate = 0;
  double below = 0;  // I_{(i-1)/n}(a, b)
  for (std::size_t i = 1; i <= n; ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i) / static_cast<double>(n));
    estimate += (upto - below) * sorted[i - 1];
    below = upto;
  }
  return estimate;
}

}  // namespace perfbench
