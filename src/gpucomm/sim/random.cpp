#include "gpucomm/sim/random.hpp"

#include <cmath>
#include <numbers>

namespace gpucomm {

namespace {
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

// splitmix64: tiny, well-distributed, and trivially seedable.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += kGamma;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_tag(std::string_view tag) {
  // FNV-1a.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

Rng Rng::fork(std::string_view tag) const {
  std::uint64_t s = state_;
  const std::uint64_t mixed = splitmix64(s) ^ hash_tag(tag);
  return Rng(mixed != 0 ? mixed : 1);
}

std::uint64_t Rng::next_u64() { return splitmix64(state_); }

void Rng::discard(std::uint64_t n) { state_ += n * kGamma; }

double Rng::uniform() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection-free modulo is fine here: n is tiny relative to 2^64 in all of
  // our uses (rank counts, node counts), so the bias is negligible.
  return next_u64() % n;
}

double Rng::exponential(double mean) {
  double u = uniform();
  if (u >= 1.0) u = 0.9999999999999999;
  return -mean * std::log1p(-u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::bounded_pareto(double lo, double hi, double alpha) {
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

}  // namespace gpucomm
