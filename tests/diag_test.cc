// Unit tests of the sampler-introspection aggregator (src/diag/):
// closed-form checks of the stationary-gap statistics (TV distance,
// chi-square) and the burn-in diagnostics (lag-1 autocorrelation, ESS,
// R-hat) on hand-built walk buffers, churn rebasing of the visit
// target, hot-peer detection, the breach read-and-clear handshake with
// the engine, and determinism of the JSON summary.
#include "diag/diag.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <variant>
#include <vector>

#include "net/graph.h"
#include "net/overlay_snapshot.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace diag {
namespace {

/// A triangle: three live nodes 0,1,2, every pair adjacent.
Graph MakeTriangle() {
  Graph g;
  const NodeId a = g.AddNode();
  const NodeId b = g.AddNode();
  const NodeId c = g.AddNode();
  EXPECT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.AddEdge(b, c).ok());
  EXPECT_TRUE(g.AddEdge(a, c).ok());
  return g;
}

double UnitWeight(NodeId) { return 1.0; }

TEST(SamplerDiagTest, TvAndChiSquareAgainstUniformTarget) {
  // Unit weights on a triangle make the stationary target uniform 1/3.
  // 36 visits, all to node 0: empirical = (1, 0, 0), so
  //   TV  = ½(|1−⅓| + ⅓ + ⅓) = ⅔
  //   χ²  = ((⅔)² + (⅓)² + (⅓)²) / ⅓ = 2
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  for (int i = 0; i < 36; ++i) walk.RecordVisit(0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), /*proposals=*/0,
                   /*accepted=*/0, /*tracer=*/nullptr, /*registry=*/nullptr);
  const BatchDiagnostics& d = diag.last_batch();
  EXPECT_EQ(d.walks, 1u);
  EXPECT_EQ(d.steps, 36u);
  EXPECT_EQ(d.live_visits, 36u);
  EXPECT_EQ(d.live_peers, 3u);
  EXPECT_NEAR(d.tv_distance, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(d.chi_square, 2.0, 1e-12);
  EXPECT_TRUE(d.breach);  // ⅔ > threshold 0.25, 32-visit floor met.
}

TEST(SamplerDiagTest, PerfectHistogramHasZeroGap) {
  // Visits exactly proportional to the (non-uniform) weights: TV and
  // chi-square both vanish.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  // w = (1, 2, 3); 6 visits split 1:2:3.
  walk.RecordVisit(0);
  walk.RecordVisit(1);
  walk.RecordVisit(1);
  for (int i = 0; i < 3; ++i) walk.RecordVisit(2);
  diag.FoldWalk(walk);
  diag.FinishBatch(
      OverlaySnapshot(g,
                      [](NodeId v) { return static_cast<double>(v) + 1.0; }),
      /*proposals=*/0, /*accepted=*/0, nullptr, nullptr);
  EXPECT_NEAR(diag.last_batch().tv_distance, 0.0, 1e-12);
  EXPECT_NEAR(diag.last_batch().chi_square, 0.0, 1e-12);
  EXPECT_FALSE(diag.last_batch().breach);
}

TEST(SamplerDiagTest, MinVisitsGuardSuppressesBreach) {
  // A terrible histogram built from fewer than the 32-visit floor of
  // live visits is not evidence of poor mixing — no breach.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  for (int i = 0; i < 6; ++i) walk.RecordVisit(0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  EXPECT_GT(diag.last_batch().tv_distance, 0.25);
  EXPECT_FALSE(diag.last_batch().breach);
  EXPECT_FALSE(diag.TakeBreachSinceLastRead());
}

TEST(SamplerDiagTest, ChurnRebasesTargetAndPrunesDeadVisits) {
  // Walks visited all three corners, then node 2 left the overlay
  // before the batch closed: its visits are pruned (but counted) and
  // the target is rebased on the two survivors.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  for (int i = 0; i < 4; ++i) walk.RecordVisit(0);
  for (int i = 0; i < 4; ++i) walk.RecordVisit(1);
  for (int i = 0; i < 8; ++i) walk.RecordVisit(2);
  diag.FoldWalk(walk);
  ASSERT_TRUE(g.RemoveNode(2).ok());
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  const BatchDiagnostics& d = diag.last_batch();
  EXPECT_EQ(d.steps, 16u);
  EXPECT_EQ(d.live_visits, 8u);
  EXPECT_EQ(d.dropped_dead_visits, 8u);
  EXPECT_EQ(d.live_peers, 2u);
  // Survivors got 4 visits each out of 8 live: a perfect uniform match.
  EXPECT_NEAR(d.tv_distance, 0.0, 1e-12);
  EXPECT_FALSE(d.breach);
}

TEST(SamplerDiagTest, Lag1AndEssClosedForm) {
  // One walk over nodes with weights w = (1, 3); the visit series
  // 0,0,1,1 maps to x = 1,1,3,3: mean 2, centered (−1,−1,1,1), so
  //   var0 = 4, cov1 = 1, ρ = ¼, ESS = n(1−ρ)/(1+ρ) = 4·0.75/1.25 = 2.4.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  walk.RecordVisit(0);
  walk.RecordVisit(0);
  walk.RecordVisit(1);
  walk.RecordVisit(1);
  diag.FoldWalk(walk);
  diag.FinishBatch(
      OverlaySnapshot(g, [](NodeId v) { return v == 0 ? 1.0 : 3.0; }), 0, 0,
      nullptr, nullptr);
  EXPECT_NEAR(diag.last_batch().lag1_autocorr, 0.25, 1e-12);
  EXPECT_NEAR(diag.last_batch().ess, 2.4, 1e-12);
  // A single walk gives no between-walk contrast: R̂ stays at its
  // neutral default.
  EXPECT_EQ(diag.last_batch().rhat, 1.0);
}

TEST(SamplerDiagTest, RhatSeparatesDisagreeingWalks) {
  // Two walks stuck in different modes (constant series at different
  // levels) have zero within-walk variance contrast and disjoint means;
  // mix in slight within-walk noise so R̂ is finite, then check it is
  // far above the ≈1 of two well-mixed (identical) walks.
  Graph g = MakeTriangle();
  const auto weight = [](NodeId v) { return static_cast<double>(v) + 1.0; };

  SamplerDiag disagreeing;
  WalkDiagBuffer low;   // x: 1,2,1,2 — hovers low.
  WalkDiagBuffer high;  // x: 3,2,3,2 — hovers high.
  for (int i = 0; i < 2; ++i) {
    low.RecordVisit(0);
    low.RecordVisit(1);
    high.RecordVisit(2);
    high.RecordVisit(1);
  }
  disagreeing.FoldWalk(low);
  disagreeing.FoldWalk(high);
  disagreeing.FinishBatch(OverlaySnapshot(g, weight), 0, 0, nullptr, nullptr);

  SamplerDiag agreeing;
  WalkDiagBuffer same1 = low;
  WalkDiagBuffer same2 = low;
  agreeing.FoldWalk(same1);
  agreeing.FoldWalk(same2);
  agreeing.FinishBatch(OverlaySnapshot(g, weight), 0, 0, nullptr, nullptr);

  EXPECT_GT(disagreeing.last_batch().rhat, 1.2);
  EXPECT_NEAR(agreeing.last_batch().rhat, std::sqrt(3.0 / 4.0), 1e-12);
}

TEST(SamplerDiagTest, HotPeerDetectionOnStarLoad) {
  // Star-shaped message load: every hop lands on node 0. With four
  // leaves each touched once and the hub touched four times, the hub
  // exceeds twice the mean (diag.cc's kHotPeerFactor) and is flagged.
  Graph g;
  const NodeId hub = g.AddNode();
  std::vector<NodeId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(g.AddNode());
    ASSERT_TRUE(g.AddEdge(hub, leaves.back()).ok());
  }
  SamplerDiag diag;
  WalkDiagBuffer walk;
  for (const NodeId leaf : leaves) walk.RecordHop(leaf, hub);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  const BatchDiagnostics& d = diag.last_batch();
  EXPECT_EQ(d.loaded_peers, 5u);
  EXPECT_EQ(d.loaded_links, 4u);
  EXPECT_EQ(d.hot_peer, hub);
  EXPECT_EQ(d.max_load, 4u);
  EXPECT_NEAR(d.mean_load, 8.0 / 5.0, 1e-12);  // 8 touches, 5 peers.
  EXPECT_TRUE(d.hot);  // 4 > 2.0 × 1.6.
}

TEST(SamplerDiagTest, BalancedLoadIsNotHot) {
  // A cycle of hops spreads load evenly: max == mean, nothing is hot.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  walk.RecordHop(0, 1);
  walk.RecordHop(1, 2);
  walk.RecordHop(2, 0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  EXPECT_EQ(diag.last_batch().max_load, 2u);
  EXPECT_NEAR(diag.last_batch().mean_load, 2.0, 1e-12);
  EXPECT_FALSE(diag.last_batch().hot);
}

TEST(SamplerDiagTest, BreachFlagIsReadAndClear) {
  Graph g = MakeTriangle();
  SamplerDiag diag;

  WalkDiagBuffer bad;
  for (int i = 0; i < 36; ++i) bad.RecordVisit(0);
  diag.FoldWalk(bad);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  ASSERT_TRUE(diag.LastBatchBreach());

  // A clean batch after the breach: the sticky since-last-read flag
  // still reports the earlier breach exactly once.
  WalkDiagBuffer good;
  good.RecordVisit(0);
  good.RecordVisit(1);
  good.RecordVisit(2);
  diag.FoldWalk(good);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  EXPECT_FALSE(diag.LastBatchBreach());
  EXPECT_TRUE(diag.TakeBreachSinceLastRead());
  EXPECT_FALSE(diag.TakeBreachSinceLastRead());
}

TEST(SamplerDiagTest, AcceptanceCountersAndRate) {
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  walk.RecordVisit(0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), /*proposals=*/10,
                   /*accepted=*/7, nullptr, nullptr);
  EXPECT_EQ(diag.last_batch().proposals, 10u);
  EXPECT_EQ(diag.last_batch().accepted, 7u);
  EXPECT_NEAR(diag.last_batch().acceptance_rate, 0.7, 1e-12);
}

TEST(SamplerDiagTest, EmitsFourEventsAndRegistryKeysPerBatch) {
  Graph g = MakeTriangle();
  obs::MemoryTracer tracer;
  obs::Registry registry;
  SamplerDiag diag;
  WalkDiagBuffer walk;
  for (int i = 0; i < 36; ++i) walk.RecordVisit(0);
  walk.RecordProbe(0, 1);
  walk.RecordHop(0, 1);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), /*proposals=*/1,
                   /*accepted=*/1, &tracer, &registry);

  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_TRUE(std::holds_alternative<obs::WalkMixingEvent>(
      tracer.events()[0].payload));
  EXPECT_TRUE(std::holds_alternative<obs::StationaryGapEvent>(
      tracer.events()[1].payload));
  EXPECT_TRUE(std::holds_alternative<obs::PeerLoadEvent>(
      tracer.events()[2].payload));
  EXPECT_TRUE(std::holds_alternative<obs::AcceptanceRateEvent>(
      tracer.events()[3].payload));

  EXPECT_EQ(registry.GetCounter("diag.batches")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("diag.visits")->value(), 36u);
  EXPECT_EQ(registry.GetCounter("diag.stationary_breaches")->value(), 1u);
  EXPECT_NEAR(registry.GetGauge("diag.acceptance_rate")->value(), 1.0,
              1e-12);
  EXPECT_GT(registry.GetGauge("diag.tv_distance")->value(), 0.25);
}

TEST(SamplerDiagTest, SummaryJsonIsDeterministicAndResetRestoresFresh) {
  Graph g = MakeTriangle();
  const auto run_once = [&g]() {
    SamplerDiag diag;
    WalkDiagBuffer walk;
    walk.RecordVisit(0);
    walk.RecordVisit(1);
    walk.RecordHop(0, 1);
    diag.FoldWalk(walk);
    diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 3, 2, nullptr, nullptr);
    return diag.SummaryJson();
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_NE(first.find("\"batches\":1"), std::string::npos);
  EXPECT_NE(first.find("\"proposals\":3"), std::string::npos);

  SamplerDiag diag;
  const std::string fresh = diag.SummaryJson();
  WalkDiagBuffer walk;
  walk.RecordVisit(0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 1, 1, nullptr, nullptr);
  EXPECT_NE(diag.SummaryJson(), fresh);
  EXPECT_EQ(diag.batches(), 1u);
  diag.Reset();
  EXPECT_EQ(diag.batches(), 0u);
  EXPECT_EQ(diag.SummaryJson(), fresh);
  EXPECT_FALSE(diag.TakeBreachSinceLastRead());
}

TEST(SamplerDiagTest, UnfinishedFoldsDoNotLeakAcrossFinish) {
  // FinishBatch closes the batch: a second FinishBatch with no folds in
  // between summarizes an empty batch, not the previous one again.
  Graph g = MakeTriangle();
  SamplerDiag diag;
  WalkDiagBuffer walk;
  walk.RecordVisit(0);
  diag.FoldWalk(walk);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  EXPECT_EQ(diag.last_batch().walks, 1u);
  diag.FinishBatch(OverlaySnapshot(g, UnitWeight), 0, 0, nullptr, nullptr);
  EXPECT_EQ(diag.last_batch().walks, 0u);
  EXPECT_EQ(diag.last_batch().steps, 0u);
  EXPECT_EQ(diag.batches(), 2u);
}

}  // namespace
}  // namespace diag
}  // namespace digest
