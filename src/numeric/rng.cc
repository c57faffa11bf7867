#include "numeric/rng.h"

#include <cmath>

namespace digest {
namespace {

// SplitMix64, used for seeding and forking.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : state_.words) word = SplitMix64(sm);
  // All-zero state would be absorbing; SplitMix64 of any seed avoids it
  // with overwhelming probability, but guard anyway.
  const uint64_t* s = state_.words;
  if ((s[0] | s[1] | s[2] | s[3]) == 0) state_.words[0] = 0x1ULL;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextIndex(span));
}

double Rng::NextGaussian() {
  if (state_.has_spare_gaussian) {
    state_.has_spare_gaussian = false;
    return state_.spare_gaussian;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  state_.spare_gaussian = v * mul;
  state_.has_spare_gaussian = true;
  return u * mul;
}

double Rng::NextExponential(double lambda) {
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

size_t Rng::NextWeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return weights.size();
  double r = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point slack: return last positive-weight index.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng::Splitter::Splitter(const Rng& parent) {
  // Hash (state, index) down to one substream seed without touching the
  // parent. Each word gets its own odd salt so permutations of the state
  // words cannot cancel; the SplitMix64 finalizer between accumulation
  // steps provides avalanche, so Split(i) and Split(i+1) share no
  // structure (see rng_test.cc's collision/statistical battery). The
  // state words' part is the same for every index, so it is hashed here,
  // once.
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  const uint64_t salts[4] = {0xa0761d6478bd642fULL, 0xe7037ed1a0b428dbULL,
                             0x8ebc6af09c88c6e3ULL, 0x589965cc75374cc3ULL};
  for (int i = 0; i < 4; ++i) {
    acc ^= parent.state_.words[i] * salts[i];
    acc = SplitMix64(acc);
  }
  state_hash_ = acc;
}

Rng Rng::Splitter::operator()(uint64_t index) const {
  uint64_t acc = state_hash_ ^ index;
  return Rng(SplitMix64(acc));
}

}  // namespace digest
