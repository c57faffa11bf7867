#include "sampling/random_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "net/topology.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

TEST(RandomWalkTest, StaysOnLiveNodes) {
  Rng rng(1);
  Result<Graph> g = MakeBarabasiAlbert(30, 2, rng);
  ASSERT_TRUE(g.ok());
  const OverlaySnapshot overlay(*g, UniformWeight());
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0};
  RandomWalk walk(0);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(walk.Advance(ctx, 1).ok());
    ASSERT_TRUE(g->HasNode(walk.current()));
  }
}

TEST(RandomWalkTest, MovesOnlyAlongEdges) {
  Rng rng(2);
  Result<Graph> g = MakeRing(10);
  ASSERT_TRUE(g.ok());
  const OverlaySnapshot overlay(*g, UniformWeight());
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 3};
  RandomWalk walk(3);
  NodeId prev = walk.current();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(walk.Advance(ctx, 1).ok());
    const NodeId cur = walk.current();
    EXPECT_TRUE(cur == prev || g->HasEdge(prev, cur));
    prev = cur;
  }
}

TEST(RandomWalkTest, MeterCountsProbesAndHops) {
  Rng rng(3);
  Result<Graph> g = MakeComplete(8);
  ASSERT_TRUE(g.ok());
  MessageMeter meter;
  const OverlaySnapshot overlay(*g, UniformWeight());
  RandomWalk walk(0);
  const size_t steps = 1000;
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0,
                        .meter = &meter};
  ASSERT_TRUE(walk.Advance(ctx, steps).ok());
  // Lazy half the time: ~500 proposals, all accepted on a complete graph
  // with uniform weights.
  EXPECT_NEAR(static_cast<double>(meter.weight_probes()), 500.0, 100.0);
  EXPECT_EQ(meter.walk_hops(), meter.weight_probes());
  EXPECT_EQ(meter.Total(), meter.walk_hops() + meter.weight_probes());
}

TEST(RandomWalkTest, RejectionsReduceHopsBelowProbes) {
  Rng rng(4);
  Result<Graph> g = MakeComplete(8);
  ASSERT_TRUE(g.ok());
  // Sharply nonuniform weight: many proposals get rejected.
  const OverlaySnapshot overlay(
      *g, [](NodeId v) { return v == 0 ? 100.0 : 1.0; });
  MessageMeter meter;
  RandomWalk walk(0);
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0,
                        .meter = &meter};
  ASSERT_TRUE(walk.Advance(ctx, 2000).ok());
  EXPECT_LT(meter.walk_hops(), meter.weight_probes());
}

TEST(RandomWalkTest, RestartsFromFallbackAfterCurrentNodeLeaves) {
  Rng rng(5);
  Result<Graph> g = MakeComplete(6);
  ASSERT_TRUE(g.ok());
  RandomWalk walk(2);
  // Remove the node under the agent.
  ASSERT_TRUE(g->RemoveNode(2).ok());
  const OverlaySnapshot overlay(*g, UniformWeight());
  ASSERT_TRUE(
      walk.Advance({.overlay = overlay, .rng = rng, .fallback = 4}, 1).ok());
  ASSERT_TRUE(g->HasNode(walk.current()));
}

TEST(RandomWalkTest, FailsWhenFallbackAlsoDead) {
  Rng rng(6);
  Result<Graph> g = MakeComplete(4);
  ASSERT_TRUE(g.ok());
  RandomWalk walk(1);
  ASSERT_TRUE(g->RemoveNode(1).ok());
  ASSERT_TRUE(g->RemoveNode(2).ok());
  const OverlaySnapshot overlay(*g, UniformWeight());
  EXPECT_EQ(
      walk.Advance({.overlay = overlay, .rng = rng, .fallback = 2}, 1).code(),
      StatusCode::kUnavailable);
}

TEST(RandomWalkTest, IsolatedNodeStays) {
  Rng rng(7);
  Graph g;
  g.AddNode();
  RandomWalk walk(0);
  const OverlaySnapshot overlay(g, UniformWeight());
  ASSERT_TRUE(
      walk.Advance({.overlay = overlay, .rng = rng, .fallback = 0}, 1).ok());
  EXPECT_EQ(walk.current(), 0u);
}

// What a clean and a hooked run of the same walk must agree on.
struct WalkEnd {
  Status status;
  NodeId position = kInvalidNode;
  uint64_t probes = 0;
  uint64_t hops = 0;
  WalkTelemetry telemetry;
  uint64_t next_draw = 0;  // The generator's end state.
};

// Advances a fresh walk from `start` by `steps` transitions, in calls of
// `per_call` steps. A non-null `diag` forces the hooked instantiation of
// the transition loop; it consumes no randomness.
WalkEnd RunWalk(const OverlaySnapshot& overlay, NodeId start, NodeId fallback,
                double laziness, size_t steps, size_t per_call,
                diag::WalkDiagBuffer* diag) {
  Rng rng(42);
  MessageMeter meter;
  WalkEnd end;
  RandomWalk walk(start, laziness);
  const WalkContext ctx{.overlay = overlay,
                        .rng = rng,
                        .fallback = fallback,
                        .meter = &meter,
                        .telemetry = &end.telemetry,
                        .diag = diag};
  for (size_t done = 0; done < steps && end.status.ok(); done += per_call) {
    end.status = walk.Advance(ctx, per_call);
  }
  end.position = walk.current();
  end.probes = meter.weight_probes();
  end.hops = meter.walk_hops();
  end.next_draw = rng.NextU64();
  return end;
}

// Steps `walks` as one clean batch (StepCleanWalks: lockstep groups of
// eight where the kernel runs, the rest on the scalar loop) and each
// walk again on its own Advance from the same plan: every end position,
// generator word, probe count and hop count must agree. Every start
// must be live, as the operator's plan leaves it.
void ExpectStepsLikeAdvance(const OverlaySnapshot& overlay,
                            Rng::Coin lazy_coin,
                            std::vector<CleanWalk> walks) {
  const std::vector<CleanWalk> plans = walks;
  StepCleanWalks(overlay, lazy_coin, walks);
  for (size_t j = 0; j < walks.size(); ++j) {
    SCOPED_TRACE("walk " + std::to_string(j));
    Rng rng = plans[j].rng;
    MessageMeter meter;
    RandomWalk walk(plans[j].position, lazy_coin);
    ASSERT_TRUE(walk.Advance({.overlay = overlay,
                              .rng = rng,
                              .fallback = plans[j].position,
                              .meter = &meter},
                             plans[j].steps)
                    .ok());
    EXPECT_EQ(walks[j].position, walk.current());
    const Rng::State batch_state = walks[j].rng.SaveState();
    const Rng::State walk_state = rng.SaveState();
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(batch_state.words[w], walk_state.words[w]) << "word " << w;
    }
    EXPECT_EQ(walks[j].proposals, meter.weight_probes());
    EXPECT_EQ(walks[j].accepted, meter.walk_hops());
  }
}

TEST(RandomWalkTest, CleanAndHookedInstantiationsDrawAlike) {
  Rng topo_rng(9);
  const Graph irregular = MakeBarabasiAlbert(40, 2, topo_rng).value();
  Graph left = MakeComplete(6).value();
  ASSERT_TRUE(left.RemoveNode(2).ok());
  Graph isolated;
  for (int i = 0; i < 3; ++i) isolated.AddNode();
  ASSERT_TRUE(isolated.AddEdge(1, 2).ok());
  const Graph ring = MakeRing(6).value();
  Graph dead = MakeComplete(4).value();
  ASSERT_TRUE(dead.RemoveNode(1).ok());
  ASSERT_TRUE(dead.RemoveNode(2).ok());
  const WeightFn varied = [](NodeId v) { return 1.0 + (v % 4); };
  // Weights at the edges of the double range: zero is never entered; a
  // denormal or 1e308 weight drives the ratio to underflow or overflow;
  // an infinite weight traps the walk (it always moves on, never off);
  // two adjacent infinite weights, or one 1e308 pair whose products
  // overflow, give the acceptance inf/inf = NaN, a one-draw reject; a
  // NaN weight rejects every move onto or off it, with one draw each.
  const double inf = std::numeric_limits<double>::infinity();
  const double extremes[] = {1.0,
                             0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1e308,
                             inf,
                             std::nan(""),
                             2.5};
  const WeightFn extreme = [&](NodeId v) { return extremes[v % 7]; };
  const Graph complete = MakeComplete(5).value();
  const WeightFn infinite_pair = [&](NodeId v) {
    return v == 1 || v == 2 ? inf : 1.0;
  };
  // A power-law overlay whose hubs pick among more than 100 neighbours,
  // with the zero, NaN and infinite weights above.
  Rng big_rng(2008);
  const Graph big = MakeBarabasiAlbert(3000, 3, big_rng).value();
  struct Case {
    const char* name;
    OverlaySnapshot overlay;
    NodeId start;
    NodeId fallback;
    uint64_t reinjections;
  };
  const Case cases[] = {
      {"irregular", OverlaySnapshot(irregular, varied), 0, 0, 0},
      {"start left", OverlaySnapshot(left, UniformWeight()), 2, 4, 1},
      {"isolated", OverlaySnapshot(isolated, UniformWeight()), 0, 1, 0},
      // Node 1 weighs nothing: it is never entered, and a walk started
      // on it escapes at its first proposal.
      {"zero-weight neighbour",
       OverlaySnapshot(ring, [](NodeId v) { return v == 1 ? 0.0 : 2.0; }),
       1, 0, 0},
      {"start and fallback dead", OverlaySnapshot(dead, UniformWeight()), 1,
       2, 0},
      {"extreme weights", OverlaySnapshot(irregular, extreme), 0, 0, 0},
      // Each walk is trapped at node 1 or 2, then proposes the other.
      {"infinite pair", OverlaySnapshot(complete, infinite_pair), 0, 0, 0},
      {"3000-peer power law", OverlaySnapshot(big, extreme), 0, 0, 0},
  };
  size_t max_degree = 0;
  for (NodeId v = 0; v < big.NextId(); ++v) {
    max_degree = std::max(max_degree, big.Degree(v));
  }
  ASSERT_GT(max_degree, 100u);
  const size_t steps = 300;
  for (double laziness :
       {0.0, 0x1.0p-53, 0.3, 0.5, 1.0 - 0x1.0p-53, 1.0, std::nan("")}) {
    // The lockstep kernel runs where the lazy coin draws.
    const bool lazy_coin_draws = !(laziness <= 0.0 || laziness >= 1.0);
    for (const Case& c : cases) {
      // The clean instantiation steps on the acceptance-coin table when
      // the snapshot holds one and computes each acceptance when it does
      // not; the hooked one always computes. All must draw alike.
      OverlaySnapshot with_coins = c.overlay;
      with_coins.BuildCoins<MetropolisAcceptance>();
      ASSERT_TRUE(with_coins.HasCoins());
      ASSERT_FALSE(c.overlay.HasCoins());
      const Rng::Coin lazy_coin = Rng::Coin::Of(laziness);
      EXPECT_EQ(LockstepKernelRuns(with_coins, lazy_coin),
                LockstepKernelAvailable() && lazy_coin_draws);
      EXPECT_FALSE(LockstepKernelRuns(c.overlay, lazy_coin));
      const OverlaySnapshot* const overlays[] = {&c.overlay, &with_coins};
      for (const OverlaySnapshot* overlay : overlays) {
        SCOPED_TRACE(std::string(c.name) + " laziness=" +
                     std::to_string(laziness) +
                     (overlay->HasCoins() ? " coins" : " no coins"));
        const WalkEnd clean = RunWalk(*overlay, c.start, c.fallback, laziness,
                                      steps, steps, nullptr);
        diag::WalkDiagBuffer diag;
        const WalkEnd hooked = RunWalk(*overlay, c.start, c.fallback,
                                       laziness, steps, steps, &diag);
        EXPECT_EQ(hooked.status.code(), clean.status.code());
        EXPECT_EQ(hooked.position, clean.position);
        EXPECT_EQ(hooked.probes, clean.probes);
        EXPECT_EQ(hooked.hops, clean.hops);
        EXPECT_TRUE(hooked.telemetry == clean.telemetry);
        EXPECT_EQ(hooked.next_draw, clean.next_draw);
        if (!clean.status.ok()) {
          // Neither the agent's node nor the fallback is live: the walk
          // fails its first transition, which still counts as an attempt.
          EXPECT_EQ(clean.status.code(), StatusCode::kUnavailable);
          EXPECT_EQ(clean.telemetry.attempts, 1u);
          EXPECT_EQ(clean.probes + clean.hops, 0u);
          EXPECT_EQ(clean.next_draw, Rng(42).NextU64());
          EXPECT_TRUE(diag.visits.empty());
          continue;
        }
        EXPECT_EQ(diag.visits.size(), steps);
        EXPECT_EQ(clean.telemetry.attempts, steps);
        EXPECT_EQ(clean.telemetry.proposals, clean.probes);
        // Every hop message is an accepted move or a re-injection.
        EXPECT_EQ(clean.hops, clean.telemetry.accepted + c.reinjections);
        EXPECT_TRUE(overlay->HasNode(clean.position));
        if (laziness <= 0.5) {
          EXPECT_GT(overlay->Weight(clean.position), 0.0);
        }
        // One step per call (the hedge race's pattern) walks alike too.
        const WalkEnd stepped = RunWalk(*overlay, c.start, c.fallback,
                                        laziness, steps, 1, nullptr);
        EXPECT_EQ(stepped.position, clean.position);
        EXPECT_TRUE(stepped.telemetry == clean.telemetry);
        EXPECT_EQ(stepped.next_draw, clean.next_draw);
        // Clean batches of 1, 8, 16 and 17 walks: one or two lockstep
        // groups, or two and a leftover on the scalar loop, planned as
        // the operator plans them (a dead start re-injected at the
        // fallback first, lengths mixed within each group).
        const NodeId planned =
            overlay->HasNode(c.start) ? c.start : c.fallback;
        for (size_t count : {1, 8, 16, 17}) {
          SCOPED_TRACE("batch of " + std::to_string(count));
          std::vector<CleanWalk> walks(count);
          for (size_t j = 0; j < count; ++j) {
            walks[j] = {.rng = Rng(1000 + j),
                        .position = planned,
                        .steps = steps - 50 * (j % 3)};
          }
          ExpectStepsLikeAdvance(*overlay, lazy_coin, walks);
        }
      }
    }
  }
  if (!LockstepKernelAvailable()) {
    GTEST_SKIP() << "no AVX-512F on this host: the batches above stepped "
                    "on the scalar loop only";
  }
}

// Rng's state one xoshiro256 step before `after`: the inverse of the
// state update in Rng::NextU64.
Rng::State StateBefore(const Rng::State& after) {
  const uint64_t* a = after.words;
  const uint64_t x = (a[3] >> 45) | (a[3] << 19);  // rotr(a3, 45)
  const uint64_t y = a[1] ^ a[2];
  Rng::State before;
  before.words[0] = a[0] ^ x;
  before.words[1] = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  before.words[2] = a[1] ^ before.words[1] ^ before.words[0];
  before.words[3] = x ^ before.words[1];
  return before;
}

TEST(RandomWalkTest, LockstepLaneBelowItsDegreeTakesTheScalarStep) {
  if (!LockstepKernelAvailable()) {
    GTEST_SKIP() << "no AVX-512F on this host: the lockstep kernel does "
                    "not run";
  }
  // Every row has degree 3, and uniform weights make every coin heads.
  const Graph g = MakeComplete(4).value();
  OverlaySnapshot overlay(g, UniformWeight());
  overlay.BuildCoins<MetropolisAcceptance>();
  const Rng::Coin lazy_coin = Rng::Coin::Of(0.5);
  ASSERT_TRUE(LockstepKernelRuns(overlay, lazy_coin));
  // A generator whose first draw proposes and whose second, the pick,
  // is `pick`: the state (pick, f, g, -pick) draws rotl(0, 23) + pick
  // next, and its free words are chosen so that the lazy draw one step
  // before proposes.
  const auto proposing_then = [&](uint64_t pick) {
    for (uint64_t free = 1;; ++free) {
      Rng::State after;
      after.words[0] = pick;
      after.words[1] = free;
      after.words[2] = free * 0x9e3779b97f4a7c15ULL;
      after.words[3] = uint64_t{0} - pick;
      Rng rng;
      rng.RestoreState(StateBefore(after));
      Rng probe = rng;
      if (probe.Flip(lazy_coin)) continue;  // Lazy: it would stay.
      EXPECT_EQ(probe.NextU64(), pick);
      return rng;
    }
  };
  // 2^64 mod 3 = 1, so NextIndex(3) redraws a first pick draw of 0 and
  // keeps one of 2: both lanes leave the vector step for the scalar one.
  ASSERT_EQ((-uint64_t{3}) % 3, 1u);
  std::vector<CleanWalk> walks(17);
  for (size_t j = 0; j < walks.size(); ++j) {
    walks[j] = {.rng = Rng(500 + j),
                .position = static_cast<NodeId>(j % 4),
                .steps = 40};
  }
  walks[3].rng = proposing_then(0);   // First group: a real redraw.
  walks[12].rng = proposing_then(2);  // Second group: below, no redraw.
  ExpectStepsLikeAdvance(overlay, lazy_coin, walks);
}

TEST(RandomWalkTest, NaNLazinessDrawsOnceAndNeverStays) {
  // NextBernoulli(NaN) draws once and is false, so a NaN-lazy walk
  // proposes at every step after one wasted draw; it must not walk like
  // the non-lazy chain, which draws nothing for its lazy coin.
  Rng topo_rng(12);
  const Graph g = MakeBarabasiAlbert(30, 2, topo_rng).value();
  const OverlaySnapshot overlay(g, [](NodeId v) { return 1.0 + (v % 3); });
  const WalkEnd nan_lazy =
      RunWalk(overlay, 0, 0, std::nan(""), 200, 200, nullptr);
  const WalkEnd non_lazy = RunWalk(overlay, 0, 0, 0.0, 200, 200, nullptr);
  EXPECT_EQ(nan_lazy.probes, 200u);
  EXPECT_EQ(non_lazy.probes, 200u);
  EXPECT_NE(nan_lazy.next_draw, non_lazy.next_draw);
  // Step by step, the same walk with the lazy draw made by hand.
  Rng rng(42);
  NodeId position = 0;
  for (int step = 0; step < 200; ++step) {
    EXPECT_FALSE(rng.NextBernoulli(std::nan("")));
    const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0};
    RandomWalk walk(position, 0.0);
    ASSERT_TRUE(walk.Advance(ctx, 1).ok());
    position = walk.current();
  }
  EXPECT_EQ(position, nan_lazy.position);
  EXPECT_EQ(rng.NextU64(), nan_lazy.next_draw);
}

TEST(RandomWalkTest, StaleProbeLeavesTheCarriedWeightTrue) {
  // Every probe is answered stale, so each acceptance test sees a
  // distorted weight. The walk must still carry its position's true
  // weight from step to step: one call of N steps walks exactly like N
  // calls of one step, each of which reads the weight afresh on entry.
  Rng topo_rng(11);
  const Graph g = MakeBarabasiAlbert(40, 2, topo_rng).value();
  const OverlaySnapshot overlay(g, [](NodeId v) { return 1.0 + (v % 4); });
  FaultPlanConfig config;
  config.stale_probe = 1.0;
  const size_t steps = 400;
  std::vector<WalkEnd> ends;
  for (size_t per_call : {steps, size_t{1}}) {
    Rng rng(5);
    FaultPlan plan(config, 13);
    WalkEnd end;
    RandomWalk walk(0);
    const WalkContext ctx{.overlay = overlay,
                          .rng = rng,
                          .fallback = 0,
                          .faults = &plan,
                          .telemetry = &end.telemetry};
    for (size_t done = 0; done < steps; done += per_call) {
      ASSERT_TRUE(walk.Advance(ctx, per_call).ok());
    }
    end.position = walk.current();
    end.next_draw = rng.NextU64();
    ends.push_back(end);
  }
  EXPECT_GT(ends[0].telemetry.accepted, 0u);
  EXPECT_EQ(ends[0].telemetry.stale_probes, ends[0].telemetry.proposals);
  EXPECT_EQ(ends[1].position, ends[0].position);
  EXPECT_TRUE(ends[1].telemetry == ends[0].telemetry);
  EXPECT_EQ(ends[1].next_draw, ends[0].next_draw);
}

TEST(RandomWalkTest, LongRunVisitsMatchTargetDistribution) {
  // Empirical occupancy of a single long walk vs the Metropolis target
  // (ergodic theorem), on an irregular graph with nonuniform weights.
  Rng rng(8);
  Result<Graph> g = MakeBarabasiAlbert(12, 2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight = [](NodeId v) { return 1.0 + (v % 4); };
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());

  RandomWalk walk(0);
  std::vector<double> visits(g->NextId(), 0.0);
  const int warmup = 2000;
  const int steps = 300000;
  const OverlaySnapshot overlay(*g, weight);
  const WalkContext ctx{.overlay = overlay, .rng = rng, .fallback = 0};
  ASSERT_TRUE(walk.Advance(ctx, warmup).ok());
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(walk.Advance(ctx, 1).ok());
    visits[walk.current()] += 1.0;
  }
  std::vector<double> empirical(fm->nodes.size());
  for (size_t r = 0; r < fm->nodes.size(); ++r) {
    empirical[r] = visits[fm->nodes[r]] / steps;
  }
  Result<double> tv = TotalVariationDistance(empirical, fm->pi);
  ASSERT_TRUE(tv.ok());
  EXPECT_LT(*tv, 0.02);
}

}  // namespace
}  // namespace digest
