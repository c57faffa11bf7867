#include "sampling/lockstep_kernel.h"

#include <algorithm>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace digest {

#if defined(__x86_64__)

bool LockstepKernelAvailable() {
  static const bool available = __builtin_cpu_supports("avx512f");
  return available;
}

namespace {

// Every function below runs on AVX-512F only: StepCleanWalks calls in
// here only after LockstepKernelAvailable().
#define DIGEST_AVX512 [[gnu::target("avx512f"), gnu::always_inline]] inline

// Eight 64-bit lanes, one walk each. The arithmetic uses GCC's vector
// operators. Intrinsics only compare, select, multiply and gather, in
// forms that take every source operand explicitly: GCC 12's unmasked
// forms pass an uninitialised vector that -Wuninitialized flags at -O2
// and above (GCC bug 105593).
typedef uint64_t Lanes __attribute__((vector_size(64)));

constexpr uint64_t kLow32 = 0xffffffffULL;

// What every step reads: the snapshot's flat arrays and the lazy coin.
struct Tables {
  const OverlaySnapshot& overlay;
  Rng::Coin lazy_coin;
  const uint64_t* rows;
  const uint64_t* reciprocals;
  const NodeId* neighbors;
  const Rng::Coin* coins;
};

DIGEST_AVX512 Lanes Splat(uint64_t x) {
  return (Lanes)_mm512_set1_epi64(static_cast<long long>(x));
}

// The lanes where a < b, unsigned.
DIGEST_AVX512 __mmask8 Below(Lanes a, Lanes b) {
  return _mm512_cmplt_epu64_mask((__m512i)a, (__m512i)b);
}

DIGEST_AVX512 __mmask8 Equal(Lanes a, Lanes b) {
  return _mm512_cmpeq_epi64_mask((__m512i)a, (__m512i)b);
}

// b in the lanes of `mask`, a elsewhere.
DIGEST_AVX512 Lanes Select(__mmask8 mask, Lanes a, Lanes b) {
  return (Lanes)_mm512_mask_blend_epi64(mask, (__m512i)a, (__m512i)b);
}

// a + 1 in the lanes of `mask`, a elsewhere.
DIGEST_AVX512 Lanes CountIn(__mmask8 mask, Lanes a) {
  return (Lanes)_mm512_mask_add_epi64((__m512i)a, mask, (__m512i)a,
                                      _mm512_set1_epi64(1));
}

// base[index] in the lanes of `mask`, `old` elsewhere (nothing read).
DIGEST_AVX512 Lanes Gather(__mmask8 mask, Lanes old, Lanes index,
                           const void* base) {
  return (Lanes)_mm512_mask_i64gather_epi64((__m512i)old, mask,
                                            (__m512i)index, base, 8);
}

// The 32-bit base[index], zero-extended, in the lanes of `mask`; 0
// elsewhere.
DIGEST_AVX512 Lanes Gather32(__mmask8 mask, Lanes index, const void* base) {
  const __m256i words = _mm512_mask_i64gather_epi32(
      _mm256_setzero_si256(), mask, (__m512i)index, base, 4);
  return (Lanes)_mm512_maskz_cvtepu32_epi64(0xff, words);
}

// The low 32 bits of a times the low 32 bits of b (vpmuludq).
DIGEST_AVX512 Lanes MulLow32(Lanes a, Lanes b) {
  return (Lanes)_mm512_maskz_mul_epu32(0xff, (__m512i)a, (__m512i)b);
}

// The high 64 bits of a · b, from four 32 × 32 products: AVX-512F has
// no 64-bit high multiply.
DIGEST_AVX512 Lanes MulHigh(Lanes a, Lanes b) {
  const Lanes a_hi = a >> 32;
  const Lanes b_hi = b >> 32;
  const Lanes ll = MulLow32(a, b);
  const Lanes lh = MulLow32(a, b_hi);
  const Lanes hl = MulLow32(a_hi, b);
  const Lanes hh = MulLow32(a_hi, b_hi);
  const Lanes mid = (ll >> 32) + (lh & kLow32) + (hl & kLow32);
  return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

DIGEST_AVX512 Lanes Rotl(Lanes x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Each lane's xoshiro256++ words.
struct Words {
  Lanes s0, s1, s2, s3;
};

// The draw Rng::NextU64 makes from `s`, on every lane.
DIGEST_AVX512 Lanes Draw(const Words& s) {
  return Rotl(s.s0 + s.s3, 23) + s.s0;
}

// The words Rng::NextU64 leaves after its draw from `s`.
DIGEST_AVX512 Words Advanced(const Words& s) {
  const Lanes t = s.s1 << 17;
  const Lanes s2 = s.s2 ^ s.s0;
  const Lanes s3 = s.s3 ^ s.s1;
  const Lanes s1 = s.s1 ^ s2;
  const Lanes s0 = s.s0 ^ s3;
  return {s0, s1, s2 ^ t, Rotl(s3, 45)};
}

DIGEST_AVX512 Words Select(__mmask8 mask, const Words& a, const Words& b) {
  return {Select(mask, a.s0, b.s0), Select(mask, a.s1, b.s1),
          Select(mask, a.s2, b.s2), Select(mask, a.s3, b.s3)};
}

// Eight walks in lockstep: each lane's generator, position, the
// position's row word and pick reciprocal, planned steps and counts.
struct Group {
  Words rng;
  Lanes position;
  Lanes row;  // First CSR entry | degree << 32.
  Lanes reciprocal;
  Lanes steps;
  Lanes proposals;
  Lanes accepted;
};

// A group's lanes in memory, one array per field: where walks are read
// from and written to, and where the rare scalar step patches a lane.
struct GroupLanes {
  alignas(64) uint64_t words[4][kLockstepLanes];
  alignas(64) uint64_t position[kLockstepLanes];
  alignas(64) uint64_t row[kLockstepLanes];
  alignas(64) uint64_t reciprocal[kLockstepLanes];
  alignas(64) uint64_t steps[kLockstepLanes];
  alignas(64) uint64_t proposals[kLockstepLanes];
  alignas(64) uint64_t accepted[kLockstepLanes];
};

DIGEST_AVX512 Lanes LoadLanes(const uint64_t* lanes) {
  return (Lanes)_mm512_load_si512(lanes);
}

DIGEST_AVX512 void StoreLanes(uint64_t* lanes, Lanes value) {
  _mm512_store_si512(lanes, (__m512i)value);
}

DIGEST_AVX512 Group Fill(const GroupLanes& m) {
  return {.rng = {LoadLanes(m.words[0]), LoadLanes(m.words[1]),
                  LoadLanes(m.words[2]), LoadLanes(m.words[3])},
          .position = LoadLanes(m.position),
          .row = LoadLanes(m.row),
          .reciprocal = LoadLanes(m.reciprocal),
          .steps = LoadLanes(m.steps),
          .proposals = LoadLanes(m.proposals),
          .accepted = LoadLanes(m.accepted)};
}

DIGEST_AVX512 void Spill(const Group& g, GroupLanes& m) {
  StoreLanes(m.words[0], g.rng.s0);
  StoreLanes(m.words[1], g.rng.s1);
  StoreLanes(m.words[2], g.rng.s2);
  StoreLanes(m.words[3], g.rng.s3);
  StoreLanes(m.position, g.position);
  StoreLanes(m.row, g.row);
  StoreLanes(m.reciprocal, g.reciprocal);
  StoreLanes(m.steps, g.steps);
  StoreLanes(m.proposals, g.proposals);
  StoreLanes(m.accepted, g.accepted);
}

// The group of walks[0, kLockstepLanes), at the start of their plans.
// Adds their longest plan to `longest`.
DIGEST_AVX512 Group Load(const CleanWalk* walks, const Tables& t,
                         uint64_t& longest) {
  GroupLanes m;
  for (size_t lane = 0; lane < kLockstepLanes; ++lane) {
    const CleanWalk& walk = walks[lane];
    const Rng::State state = walk.rng.SaveState();
    for (int w = 0; w < 4; ++w) m.words[w][lane] = state.words[w];
    m.position[lane] = walk.position;
    m.row[lane] = t.rows[walk.position];
    m.reciprocal[lane] = t.reciprocals[walk.position];
    m.steps[lane] = walk.steps;
    m.proposals[lane] = 0;
    m.accepted[lane] = 0;
    longest = std::max<uint64_t>(longest, walk.steps);
  }
  return Fill(m);
}

DIGEST_AVX512 void Store(const Group& g, CleanWalk* walks) {
  GroupLanes m;
  Spill(g, m);
  for (size_t lane = 0; lane < kLockstepLanes; ++lane) {
    CleanWalk& walk = walks[lane];
    Rng::State state = walk.rng.SaveState();
    for (int w = 0; w < 4; ++w) state.words[w] = m.words[w][lane];
    walk.rng.RestoreState(state);
    walk.position = static_cast<NodeId>(m.position[lane]);
    walk.proposals = m.proposals[lane];
    walk.accepted = m.accepted[lane];
  }
}

// The step of the lanes in `mask`, which the vector step left untouched,
// on Advance's scalar loop: each such lane's pick draw was below its
// degree, where Rng::NextIndex may redraw.
[[gnu::noinline, gnu::cold]] void ScalarSteps(GroupLanes& m, __mmask8 mask,
                                              const Tables& t) {
  for (size_t lane = 0; lane < kLockstepLanes; ++lane) {
    if (((mask >> lane) & 1) == 0) continue;
    Rng::State state;
    for (int w = 0; w < 4; ++w) state.words[w] = m.words[w][lane];
    Rng rng;
    rng.RestoreState(state);
    const NodeId position = static_cast<NodeId>(m.position[lane]);
    WalkTelemetry telemetry;
    RandomWalk agent(position, t.lazy_coin);
    (void)agent.Advance({.overlay = t.overlay,
                         .rng = rng,
                         .fallback = position,
                         .telemetry = &telemetry},
                        1);
    state = rng.SaveState();
    for (int w = 0; w < 4; ++w) m.words[w][lane] = state.words[w];
    m.position[lane] = agent.current();
    m.row[lane] = t.rows[agent.current()];
    m.reciprocal[lane] = t.reciprocals[agent.current()];
    m.proposals[lane] += telemetry.proposals;
    m.accepted[lane] += telemetry.accepted;
  }
}

// Transition `step` of every lane whose plan has one: the scalar coin
// loop's branches as masks.
DIGEST_AVX512 void Step(Group& g, Lanes step, Lanes lazy_threshold,
                        const Tables& t) {
  const __mmask8 active = Below(step, g.steps);
  if (active == 0) return;
  // The lazy coin's draw. A lane stays put on heads or with an empty
  // row, its generator one draw on.
  const Lanes degree = g.row >> 32;
  const Words one = Advanced(g.rng);
  const __mmask8 stays =
      Below(Draw(g.rng) >> 11, lazy_threshold) | Equal(degree, Lanes{});
  const __mmask8 proposes = active & ~stays;
  g.rng = Select(active & stays, g.rng, one);
  // The pick, pick_draw % degree from the reciprocal: the quotient
  // estimate is the quotient or one less, so one conditional
  // subtraction finishes the remainder (Rng::NextIndex(bound,
  // reciprocal)). A draw below the degree may be redrawn; such a lane
  // takes the scalar step instead.
  const Lanes pick_draw = Draw(one);
  const Lanes quotient = MulHigh(pick_draw, g.reciprocal);
  const Lanes rest = pick_draw - (MulLow32(quotient, degree) +
                                  (MulLow32(quotient >> 32, degree) << 32));
  const Lanes index = Select(static_cast<__mmask8>(~Below(rest, degree)),
                             rest, rest - degree);
  const __mmask8 redraws = proposes & Below(pick_draw, degree);
  const __mmask8 picks = proposes & ~redraws;
  // The picked entry's neighbour and acceptance coin. A certain coin
  // (kHeads or kTails) draws nothing; any other draws a third time.
  const Lanes entry = (g.row & kLow32) + index;
  const Lanes neighbor = Gather32(picks, entry, t.neighbors);
  const Lanes coin = Gather(picks, Lanes{}, entry, t.coins);
  const Words two = Advanced(one);
  const __mmask8 certain =
      static_cast<__mmask8>(~Below(coin, Splat(Rng::Coin::kTails)));
  const __mmask8 heads = (certain & Equal(coin, Splat(Rng::Coin::kHeads))) |
                         (~certain & Below(Draw(two) >> 11, coin));
  const __mmask8 moves = picks & heads;
  g.rng = Select(picks & certain, g.rng, two);
  g.rng = Select(picks & ~certain, g.rng, Advanced(two));
  g.position = Select(moves, g.position, neighbor);
  g.row = Gather(moves, g.row, g.position, t.rows);
  g.reciprocal = Gather(moves, g.reciprocal, g.position, t.reciprocals);
  g.proposals = CountIn(picks, g.proposals);
  g.accepted = CountIn(moves, g.accepted);
  if (redraws != 0) [[unlikely]] {
    GroupLanes m;
    Spill(g, m);
    ScalarSteps(m, redraws, t);
    g = Fill(m);
  }
}

// Two groups, interleaved step by step so that one group's gathers
// overlap the other's arithmetic.
[[gnu::target("avx512f")]] void StepPair(CleanWalk* walks, const Tables& t) {
  uint64_t longest = 0;
  Group a = Load(walks, t, longest);
  Group b = Load(walks + kLockstepLanes, t, longest);
  const Lanes lazy_threshold = Splat(t.lazy_coin.threshold);
  for (uint64_t step = 0; step < longest; ++step) {
    const Lanes at = Splat(step);
    Step(a, at, lazy_threshold, t);
    Step(b, at, lazy_threshold, t);
  }
  Store(a, walks);
  Store(b, walks + kLockstepLanes);
}

[[gnu::target("avx512f")]] void StepOne(CleanWalk* walks, const Tables& t) {
  uint64_t longest = 0;
  Group a = Load(walks, t, longest);
  const Lanes lazy_threshold = Splat(t.lazy_coin.threshold);
  for (uint64_t step = 0; step < longest; ++step) {
    Step(a, Splat(step), lazy_threshold, t);
  }
  Store(a, walks);
}

#undef DIGEST_AVX512

}  // namespace

void StepLockstepGroups(const OverlaySnapshot& overlay, Rng::Coin lazy_coin,
                        std::span<CleanWalk> walks) {
  const Tables tables{.overlay = overlay,
                      .lazy_coin = lazy_coin,
                      .rows = overlay.RowWords(),
                      .reciprocals = overlay.PickReciprocals(),
                      .neighbors = overlay.NeighborEntries(),
                      .coins = overlay.CoinEntries()};
  constexpr size_t kPair = 2 * kLockstepLanes;
  size_t begin = 0;
  for (; walks.size() - begin >= kPair; begin += kPair) {
    StepPair(walks.data() + begin, tables);
  }
  if (begin < walks.size()) StepOne(walks.data() + begin, tables);
}

#else  // !defined(__x86_64__)

bool LockstepKernelAvailable() { return false; }

// Unreachable: LockstepKernelRuns is false without the kernel.
void StepLockstepGroups(const OverlaySnapshot& overlay, Rng::Coin lazy_coin,
                        std::span<CleanWalk> walks) {
  StepCleanWalks(overlay, lazy_coin, walks);
}

#endif

}  // namespace digest
