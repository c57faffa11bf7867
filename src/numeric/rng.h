#ifndef DIGEST_NUMERIC_RNG_H_
#define DIGEST_NUMERIC_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace digest {

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// The whole library draws randomness through this class so that every
/// simulation, test, and benchmark is reproducible from a single seed.
/// The generator is splittable via Fork(), which derives an independent
/// stream (used to give every node / walker its own stream).
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The draws a walk step makes (NextU64, NextDouble, NextIndex,
  // NextBernoulli) are defined here so they inline into the step loop.

  /// Next raw 64-bit value.
  uint64_t NextU64() {
    uint64_t* s = state_.words;
    const uint64_t result = Rotl(s[0] + s[3], 23) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection to
  /// avoid modulo bias.
  uint64_t NextIndex(uint64_t bound) {
    if (bound == 0) return 0;
    return IndexDraw(bound) % bound;
  }

  /// ⌊(2^64 − 1) / bound⌋, the reciprocal NextIndex(bound, reciprocal)
  /// picks with; 0 for bound 0.
  static uint64_t PickReciprocal(uint64_t bound) {
    return bound == 0 ? 0 : UINT64_MAX / bound;
  }

  /// NextIndex(bound) without a 64-bit division: `reciprocal` must be
  /// PickReciprocal(bound). The same draws, redraw included, and the
  /// same index: q = mulhi(r, reciprocal) is ⌊r / bound⌋ or one less for
  /// every 64-bit r, so r − q · bound is the remainder or the remainder
  /// plus bound, and one conditional subtraction finishes it.
  uint64_t NextIndex(uint64_t bound, uint64_t reciprocal) {
    if (bound == 0) return 0;
    const uint64_t r = IndexDraw(bound);
    const uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(r) * reciprocal) >> 64);
    const uint64_t rest = r - q * bound;
    return rest >= bound ? rest - bound : rest;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Marsaglia polar method).
  double NextGaussian();

  /// Normal variate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// True with probability `p` (clamped to [0,1]). A NaN `p` draws once
  /// and returns false.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// NextBernoulli(p) as an integer, made once for a probability that is
  /// flipped many times (a walk's lazy coin, a snapshot's per-edge
  /// acceptance coins). Flip(Coin::Of(p)) makes the same draws and
  /// returns the same outcome as NextBernoulli(p) for every double p:
  ///
  ///  - p <= 0 (-0.0 and -inf included): tails, no draw;
  ///  - p >= 1 (+inf included): heads, no draw;
  ///  - NaN: one draw, always tails (`threshold` 0);
  ///  - otherwise one draw, heads iff (NextU64() >> 11) < `threshold`,
  ///    which is ceil(p · 2^53), in [1, 2^53).
  struct Coin {
    static constexpr uint64_t kTails = UINT64_MAX - 1;
    static constexpr uint64_t kHeads = UINT64_MAX;

    uint64_t threshold = kTails;

    static Coin Of(double p) {
      // NextBernoulli(p) draws u = NextU64() >> 11 and is heads iff
      // u · 2^-53 < p. Both sides scale by 2^53 exactly, and an integer
      // is below p · 2^53 iff it is below its ceiling, taken here as
      // floor + 1 unless p · 2^53 is whole (exact below 2^53).
      if (p <= 0.0) return Coin{kTails};
      if (p >= 1.0) return Coin{kHeads};
      if (std::isnan(p)) return Coin{0};
      const double scaled = p * 0x1.0p53;
      const uint64_t floor = static_cast<uint64_t>(scaled);
      return Coin{floor + (static_cast<double>(floor) < scaled ? 1 : 0)};
    }
    bool operator==(const Coin&) const = default;
  };

  /// Flips a coin made by Coin::Of.
  bool Flip(Coin coin) {
    if (coin.threshold >= Coin::kTails) return coin.threshold == Coin::kHeads;
    return (NextU64() >> 11) < coin.threshold;
  }

  /// Exponential variate with rate `lambda` (> 0).
  double NextExponential(double lambda);

  /// Index drawn proportionally to non-negative `weights`. Returns
  /// weights.size() if all weights are zero/empty.
  size_t NextWeightedIndex(const std::vector<double>& weights);

  /// Derives an independent generator from this one (SplitMix-style jump).
  Rng Fork();

  /// Derives the `index`-th substream of this generator WITHOUT advancing
  /// it. Unlike Fork() — which consumes one draw, so the k-th fork depends
  /// on how many forks preceded it — Split(i) is a pure function of
  /// (current state, i): any caller holding an equal-state generator gets
  /// the same substream for the same index, in any order and from any
  /// thread. The parallel walk executor keys one substream per walk index
  /// so that walk i draws identically no matter which worker runs it.
  ///
  /// Derivation: the four state words are hashed together with the index
  /// through SplitMix64's finalizer into a 64-bit substream seed. The
  /// mixing constants are SplitMix64's published ones — the golden-ratio
  /// increment 0x9e3779b97f4a7c15 (weyl sequence step) and the
  /// variance-maximizing multipliers 0xbf58476d1ce4e5b9 /
  /// 0x94d049bb133111eb from Stafford's Mix13 finalizer — giving full
  /// avalanche between adjacent indices. Per-word salts (distinct odd
  /// constants) keep permuted state words from colliding. A caller that
  /// splits one state many times (a walk batch: two substreams per walk)
  /// hashes the state words once through a Splitter.
  Rng Split(uint64_t index) const { return Splitter(*this)(index); }

  /// Split() with the parent's four state words hashed once, at
  /// construction: splitter(i) equals parent.Split(i) for every i, at the
  /// cost of the index's hash alone.
  class Splitter {
   public:
    explicit Splitter(const Rng& parent);
    Rng operator()(uint64_t index) const;

   private:
    uint64_t state_hash_;
  };

  /// Complete serializable generator state. Restoring a saved state makes
  /// the generator resume its stream exactly where the save happened —
  /// used by the engine checkpoint/restore path, which must replay the
  /// same draws an uninterrupted run would have made.
  struct State {
    uint64_t words[4] = {0, 0, 0, 0};
    bool has_spare_gaussian = false;
    double spare_gaussian = 0.0;

    /// Checkpoint field list (common/checkpoint_codec.h).
    template <class V>
    void Fields(V& v) {
      v("words", words);
      v("has_spare_gaussian", has_spare_gaussian);
      v("spare_gaussian", spare_gaussian);
    }
  };

  State SaveState() const { return state_; }
  void RestoreState(const State& state) { state_ = state; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // The draw NextIndex reduces modulo `bound` (> 0). A draw below
  // threshold = 2^64 mod bound is redrawn, so the remainder is unbiased.
  // The threshold is always below bound, so any draw >= bound is
  // accepted without computing it (a 64-bit division); the draw
  // sequence is the same either way.
  uint64_t IndexDraw(uint64_t bound) {
    uint64_t r = NextU64();
    if (r < bound) {
      const uint64_t threshold = (-bound) % bound;
      while (r < threshold) r = NextU64();
    }
    return r;
  }

  State state_;  ///< The xoshiro words and the spare Gaussian, in place.
};

}  // namespace digest

#endif  // DIGEST_NUMERIC_RNG_H_
