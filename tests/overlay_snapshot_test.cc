// OverlaySnapshot: the flat overlay a walk batch steps over. Rows mirror
// Graph::Neighbors in order, Graph::version() moves on exactly the
// successful mutations, a refresh rebuilds the rows only after one and
// re-reads the weights every time, and the sampling operator's batches
// see churn and weight changes made between them. The last test runs
// batches on 1-8 workers that share one snapshot (part of the TSan
// concurrency battery).
#include "net/overlay_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "net/graph.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "sampling/metropolis.h"
#include "sampling/random_walk.h"
#include "sampling/sampling_operator.h"
#include "sampling/weight.h"

namespace digest {
namespace {

double IdWeight(NodeId v) { return 1.0 + static_cast<double>(v % 5); }

// Checks every id of `graph`, and a few beyond it, against `overlay`.
void ExpectMirrors(const Graph& graph, const OverlaySnapshot& overlay) {
  ASSERT_EQ(overlay.NextId(), graph.NextId());
  EXPECT_EQ(overlay.NodeCount(), graph.NodeCount());
  for (NodeId id = 0; id < graph.NextId(); ++id) {
    ASSERT_EQ(overlay.HasNode(id), graph.HasNode(id)) << "node " << id;
    const std::vector<NodeId>& expected = graph.Neighbors(id);
    const std::vector<NodeId> row(overlay.Neighbors(id).begin(),
                                  overlay.Neighbors(id).end());
    EXPECT_EQ(row, expected) << "node " << id;
    EXPECT_EQ(overlay.Degree(id), graph.Degree(id)) << "node " << id;
  }
  for (NodeId id : {graph.NextId(), graph.NextId() + 7, kInvalidNode}) {
    EXPECT_FALSE(overlay.HasNode(id));
    EXPECT_EQ(overlay.Degree(id), 0u);
    EXPECT_TRUE(overlay.Neighbors(id).empty());
    EXPECT_EQ(overlay.Weight(id), 0.0);
  }
}

TEST(OverlaySnapshotTest, RowsMatchGraphNeighborsInOrder) {
  Rng rng(3);
  Graph g = MakeBarabasiAlbert(60, 3, rng).value();
  // Removals and re-adds scramble neighbor order away from id order.
  ASSERT_TRUE(g.RemoveNode(7).ok());
  ASSERT_TRUE(g.RemoveNode(31).ok());
  ASSERT_TRUE(g.RemoveEdge(0, g.Neighbors(0).front()).ok());
  const NodeId joined = g.AddNode();
  ASSERT_TRUE(g.AddEdge(joined, 5).ok());
  ASSERT_TRUE(g.AddEdge(2, joined).ok());

  const OverlaySnapshot overlay(g, IdWeight);
  ExpectMirrors(g, overlay);
  for (NodeId id = 0; id < g.NextId(); ++id) {
    EXPECT_EQ(overlay.Weight(id), g.HasNode(id) ? IdWeight(id) : 0.0);
  }
  EXPECT_FALSE(overlay.HasNode(7));
  EXPECT_EQ(overlay.Degree(31), 0u);

  // A seeded mix of joins, departures, edge adds and edge removals,
  // refreshed into one snapshot every 25 mutations. Rows hold live ids
  // only, and dead ids have empty rows: RandomWalk::Advance checks
  // liveness once per call and relies on both.
  OverlaySnapshot churned;
  for (int op = 1; op <= 400; ++op) {
    const NodeId a = static_cast<NodeId>(rng.NextIndex(g.NextId()));
    const NodeId b = static_cast<NodeId>(rng.NextIndex(g.NextId()));
    switch (rng.NextIndex(4)) {
      case 0: {
        const NodeId joined_now = g.AddNode();
        (void)g.AddEdge(joined_now, a);
        break;
      }
      case 1:
        (void)g.RemoveNode(a);
        break;
      case 2:
        (void)g.AddEdge(a, b);
        break;
      default:
        if (g.HasNode(a) && !g.Neighbors(a).empty()) {
          ASSERT_TRUE(g.RemoveEdge(a, g.Neighbors(a).back()).ok());
        }
        break;
    }
    if (op % 25 != 0) continue;
    churned.Refresh(g, IdWeight);
    ExpectMirrors(g, churned);
    for (NodeId id = 0; id < churned.NextId(); ++id) {
      if (!churned.HasNode(id)) {
        EXPECT_TRUE(churned.Neighbors(id).empty()) << "dead node " << id;
      }
      for (NodeId n : churned.Neighbors(id)) {
        EXPECT_TRUE(churned.HasNode(n)) << "row " << id << " holds " << n;
      }
    }
  }
  EXPECT_LT(g.NodeCount(), g.NextId());  // The churn did kill nodes.
}

TEST(OverlaySnapshotTest, EverySuccessfulMutationMovesTheVersion) {
  Graph g;
  uint64_t v = g.version();
  const auto moved = [&] {
    const bool changed = g.version() != v;
    v = g.version();
    return changed;
  };
  g.AddNode();
  EXPECT_TRUE(moved());
  g.AddNode();
  g.AddNode();
  EXPECT_TRUE(moved());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(g.RemoveNode(2).ok());
  EXPECT_TRUE(moved());

  // Failed mutations leave the graph, and so the version, unchanged.
  EXPECT_FALSE(g.AddEdge(0, 0).ok());  // Self-loop.
  EXPECT_FALSE(g.AddEdge(0, 2).ok());  // Dead endpoint.
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  v = g.version();
  EXPECT_FALSE(g.AddEdge(1, 0).ok());     // Duplicate.
  EXPECT_FALSE(g.RemoveEdge(1, 2).ok());  // Absent.
  EXPECT_FALSE(g.RemoveNode(2).ok());     // Already dead.
  EXPECT_FALSE(g.RemoveNode(9).ok());     // Never allocated.
  EXPECT_FALSE(moved());
}

TEST(OverlaySnapshotTest, RefreshRebuildsRowsOnlyAfterAMutation) {
  Graph g = MakeRing(8).value();
  OverlaySnapshot overlay;
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 1u);
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 1u);

  // Each of the four mutations is picked up by the next refresh.
  const NodeId joined = g.AddNode();
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 2u);
  EXPECT_TRUE(overlay.HasNode(joined));
  ASSERT_TRUE(g.AddEdge(joined, 3).ok());
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 3u);
  EXPECT_EQ(overlay.Degree(joined), 1u);
  ASSERT_TRUE(g.RemoveEdge(2, 3).ok());
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 4u);
  EXPECT_EQ(overlay.Degree(2), 1u);
  ASSERT_TRUE(g.RemoveNode(3).ok());
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 5u);
  EXPECT_FALSE(overlay.HasNode(3));
  ExpectMirrors(g, overlay);

  // A failed mutation does not trigger a rebuild.
  EXPECT_FALSE(g.RemoveNode(3).ok());
  overlay.Refresh(g, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 5u);

  // Another graph object rebuilds, even at an equal version.
  Graph other = MakeRing(8).value();
  Graph same_history = MakeRing(8).value();
  ASSERT_EQ(other.version(), same_history.version());
  overlay.Refresh(other, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 6u);
  overlay.Refresh(same_history, IdWeight);
  EXPECT_EQ(overlay.row_builds(), 7u);
  ExpectMirrors(same_history, overlay);
}

TEST(OverlaySnapshotTest, WeightsAreReReadOnEveryRefresh) {
  const Graph g = MakeComplete(5).value();
  std::vector<double> w = {1.0, 2.0, 3.0, 4.0, 5.0};
  const WeightFn weight = [&w](NodeId v) { return w[v]; };
  OverlaySnapshot overlay(g, weight);
  EXPECT_EQ(overlay.Weight(2), 3.0);
  w[2] = 0.0;
  w[4] = 9.5;
  EXPECT_EQ(overlay.Weight(2), 3.0);  // Frozen until the next refresh.
  overlay.Refresh(g, weight);
  EXPECT_EQ(overlay.Weight(2), 0.0);
  EXPECT_EQ(overlay.Weight(4), 9.5);
  EXPECT_EQ(overlay.row_builds(), 1u);  // The graph did not change.
}

TEST(OverlaySnapshotTest, ZeroWeightPeerIsNeverEntered) {
  const Graph g = MakeComplete(6).value();
  std::vector<double> w(6, 1.0);
  const WeightFn weight = [&w](NodeId v) { return w[v]; };
  OverlaySnapshot overlay(g, weight);
  Rng rng(11);
  diag::WalkDiagBuffer visits;
  const WalkContext ctx{
      .overlay = overlay, .rng = rng, .fallback = 0, .diag = &visits};
  RandomWalk walk(0);
  ASSERT_TRUE(walk.Advance(ctx, 400).ok());
  ASSERT_NE(std::count(visits.visits.begin(), visits.visits.end(), 4), 0);

  w[4] = 0.0;
  overlay.Refresh(g, weight);
  if (walk.current() == 4) {
    ASSERT_TRUE(walk.Advance(ctx, 64).ok());  // Escapes: accepted always.
  }
  ASSERT_NE(walk.current(), 4u);
  visits.Clear();
  ASSERT_TRUE(walk.Advance(ctx, 4000).ok());
  EXPECT_EQ(visits.visits.size(), 4000u);
  EXPECT_EQ(std::count(visits.visits.begin(), visits.visits.end(), 4), 0);
  for (const auto& hop : visits.hops) EXPECT_NE(hop.second, 4u);
  EXPECT_FALSE(visits.probes.empty());
}

TEST(OverlaySnapshotTest, OperatorBatchSeesWeightChangeMadeBeforeIt) {
  const Graph g = MakeComplete(8).value();
  std::vector<double> w(8, 1.0);
  SamplingOperatorOptions options;
  options.walk_length = 24;
  options.warm_walks = false;  // Every walk starts at the origin.
  SamplingOperator op(&g, [&w](NodeId v) { return w[v]; }, Rng(5), nullptr,
                      options);
  const std::vector<NodeId> before = op.SampleNodes(0, 200).value().nodes;
  ASSERT_NE(std::count(before.begin(), before.end(), 5), 0);

  w[5] = 0.0;
  const std::vector<NodeId> after = op.SampleNodes(0, 200).value().nodes;
  EXPECT_EQ(std::count(after.begin(), after.end(), 5), 0);
}

TEST(OverlaySnapshotTest, OperatorBatchSeesNodeThatJoinedBeforeIt) {
  Graph g = MakeComplete(6).value();
  SamplingOperatorOptions options;
  options.walk_length = 24;
  options.warm_walks = false;
  SamplingOperator op(&g, UniformWeight(), Rng(6), nullptr, options);
  ASSERT_TRUE(op.SampleNodes(0, 50).ok());

  const NodeId joined = g.AddNode();
  for (NodeId v = 0; v < joined; ++v) ASSERT_TRUE(g.AddEdge(joined, v).ok());
  const std::vector<NodeId> after = op.SampleNodes(0, 200).value().nodes;
  EXPECT_NE(std::count(after.begin(), after.end(), joined), 0);
}

TEST(OverlaySnapshotTest, WarmAgentWhoseNodeLeftRestartsAtFallback) {
  Graph g = MakeComplete(6).value();
  SamplingOperatorOptions options;
  options.walk_length = 20;
  options.reset_length = 5;
  SamplingOperator op(&g, UniformWeight(), Rng(7), nullptr, options);
  ASSERT_TRUE(op.SampleNodes(0, 4).ok());
  const std::vector<NodeId> positions = op.SaveState().agent_positions;
  ASSERT_EQ(positions.size(), 4u);
  const auto away = std::find_if(positions.begin(), positions.end(),
                                 [](NodeId p) { return p != 0; });
  ASSERT_NE(away, positions.end());
  const NodeId gone = *away;

  // The node under a warm agent leaves, and the origin is cut off from
  // the rest: an agent restarted at the origin can never move again,
  // and no other agent can ever reach it.
  ASSERT_TRUE(g.RemoveNode(gone).ok());
  for (NodeId v = 1; v < g.NextId(); ++v) {
    if (g.HasEdge(0, v)) {
      ASSERT_TRUE(g.RemoveEdge(0, v).ok());
    }
  }
  const std::vector<NodeId> after = op.SampleNodes(0, 4).value().nodes;
  for (size_t i = 0; i < positions.size(); ++i) {
    const bool at_origin = positions[i] == gone || positions[i] == 0;
    EXPECT_EQ(after[i] == 0, at_origin) << "agent " << i;
  }
}

// Checks every coin of `overlay` against the acceptance of its entry,
// computed from the snapshot's weights and degrees.
void ExpectCoinsMatchAcceptance(const OverlaySnapshot& overlay) {
  ASSERT_TRUE(overlay.HasCoins());
  size_t entries = 0;
  for (NodeId i = 0; i < overlay.NextId(); ++i) {
    const std::span<const NodeId> row = overlay.Neighbors(i);
    const Rng::Coin* coins = overlay.Coins(i);
    for (size_t k = 0; k < row.size(); ++k) {
      const NodeId j = row[k];
      EXPECT_EQ(coins[k],
                Rng::Coin::Of(MetropolisAcceptance(
                    overlay.Weight(i), overlay.Degree(i), overlay.Weight(j),
                    overlay.Degree(j))))
          << i << " -> " << j;
      ++entries;
    }
  }
  EXPECT_EQ(entries, overlay.EntryCount());
}

TEST(OverlaySnapshotTest, CoinsMatchTheAcceptanceAfterChurnAndWeightChanges) {
  Rng rng(17);
  Graph g = MakeBarabasiAlbert(50, 3, rng).value();
  // Weights cover the ratio's edge cases: zero, denormal, huge, infinite
  // and NaN weights sit among ordinary ones.
  const double special[] = {0.0, std::numeric_limits<double>::denorm_min(),
                            1e308, std::numeric_limits<double>::infinity(),
                            std::nan("")};
  std::vector<double> w(400);
  for (size_t v = 0; v < w.size(); ++v) {
    w[v] = v % 9 < 5 ? special[v % 9] : 1.0 + static_cast<double>(v % 13);
  }
  const WeightFn weight = [&w](NodeId v) { return w[v]; };
  OverlaySnapshot overlay(g, weight);
  overlay.BuildCoins<MetropolisAcceptance>();
  ExpectCoinsMatchAcceptance(overlay);
  for (int round = 0; round < 12; ++round) {
    switch (round % 3) {
      case 0: {  // Joins.
        for (int k = 0; k < 3; ++k) {
          const NodeId joined = g.AddNode();
          (void)g.AddEdge(joined, static_cast<NodeId>(rng.NextIndex(joined)));
          (void)g.AddEdge(joined, static_cast<NodeId>(rng.NextIndex(joined)));
        }
        break;
      }
      case 1: {  // Leaves.
        const std::vector<NodeId> live = g.LiveNodes();
        ASSERT_TRUE(g.RemoveNode(live[rng.NextIndex(live.size())]).ok());
        break;
      }
      default:  // Weight-only changes.
        w[rng.NextIndex(g.NextId())] *= 3.0;
        w[rng.NextIndex(g.NextId())] = 0.5;
        break;
    }
    overlay.Refresh(g, weight);
    EXPECT_FALSE(overlay.HasCoins()) << "round " << round;
    overlay.BuildCoins<MetropolisAcceptance>();
    ExpectCoinsMatchAcceptance(overlay);
  }
}

TEST(OverlaySnapshotTest, CoinTableIsBuiltKeptAndDroppedByRefreshes) {
  Graph g = MakeRing(8).value();
  std::vector<double> w(16, 2.0);
  const WeightFn weight = [&w](NodeId v) { return w[v]; };
  OverlaySnapshot overlay(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 0u);
  overlay.BuildCoins<MetropolisAcceptance>();
  overlay.BuildCoins<MetropolisAcceptance>();  // Already built: kept.
  EXPECT_TRUE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 1u);

  // Unchanged rows and weights keep it, NaN weights included.
  w[3] = std::nan("");
  overlay.Refresh(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  overlay.BuildCoins<MetropolisAcceptance>();
  EXPECT_EQ(overlay.coin_builds(), 2u);
  overlay.Refresh(g, weight);
  overlay.Refresh(g, weight);
  EXPECT_TRUE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 2u);

  // A weight change, even to -0.0 from 0.0, drops it, and so does a
  // row rebuild; only BuildCoins builds it again.
  w[5] = 0.0;
  overlay.Refresh(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  overlay.BuildCoins<MetropolisAcceptance>();
  w[5] = -0.0;
  overlay.Refresh(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  overlay.Refresh(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  overlay.BuildCoins<MetropolisAcceptance>();
  EXPECT_EQ(overlay.coin_builds(), 4u);
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  overlay.Refresh(g, weight);
  EXPECT_FALSE(overlay.HasCoins());
  EXPECT_EQ(overlay.row_builds(), 2u);
  EXPECT_EQ(overlay.coin_builds(), 4u);
  overlay.BuildCoins<MetropolisAcceptance>();
  ExpectCoinsMatchAcceptance(overlay);
  EXPECT_EQ(overlay.coin_builds(), 5u);
}

TEST(OverlaySnapshotTest, OperatorBuildsCoinsOnlyOverARepeatingOverlay) {
  // Uniform weights on a 12-node ring: 24 CSR entries. Cold walks take
  // 6 steps, warm ones 3. A clean batch builds the table when its
  // refresh found the overlay unchanged and it plans a step per entry.
  Graph g = MakeRing(12).value();
  std::vector<double> w(16, 1.0);
  SamplingOperatorOptions options;
  options.walk_length = 6;
  options.reset_length = 3;
  SamplingOperator op(&g, [&w](NodeId v) { return w[v]; }, Rng(9), nullptr,
                      options);
  const OverlaySnapshot& overlay = op.overlay();
  ASSERT_TRUE(op.SampleNodes(0, 8).ok());  // First refresh: a change.
  EXPECT_EQ(overlay.EntryCount(), 24u);
  EXPECT_FALSE(overlay.HasCoins());
  ASSERT_TRUE(op.SampleNodes(0, 2).ok());  // 2·3 = 6 planned steps < 24.
  EXPECT_FALSE(overlay.HasCoins());
  ASSERT_TRUE(op.SampleNodes(0, 8).ok());  // 8·3 = 24 >= 24.
  EXPECT_TRUE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 1u);
  // Kept across batches of any size while nothing changes.
  ASSERT_TRUE(op.SampleNodes(0, 1).ok());
  ASSERT_TRUE(op.SampleNodes(0, 12).ok());
  EXPECT_TRUE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 1u);
  ExpectCoinsMatchAcceptance(overlay);

  // A weight change drops it, and the batch that sees the change does
  // not rebuild it, however large; the next large one does.
  w[4] = 3.0;
  ASSERT_TRUE(op.SampleNodes(0, 12).ok());
  EXPECT_FALSE(overlay.HasCoins());
  ASSERT_TRUE(op.SampleNodes(0, 12).ok());
  EXPECT_EQ(overlay.coin_builds(), 2u);
  ExpectCoinsMatchAcceptance(overlay);

  // A churned overlay: every batch rebuilds the rows and none builds
  // the table, so its walks compute every acceptance, as they would
  // without one.
  for (int round = 0; round < 4; ++round) {
    const NodeId joined = g.AddNode();
    ASSERT_TRUE(g.AddEdge(joined, 1).ok());
    ASSERT_TRUE(op.SampleNodes(0, 40).ok());
    EXPECT_FALSE(overlay.HasCoins());
  }
  EXPECT_EQ(overlay.coin_builds(), 2u);
  ASSERT_TRUE(op.SampleNodes(0, 40).ok());
  EXPECT_EQ(overlay.coin_builds(), 3u);
  ExpectCoinsMatchAcceptance(overlay);

  // Hooked batches compute every acceptance and never build the table.
  w[4] = 5.0;
  diag::SamplerDiag diag;
  op.SetInstruments({.diag = &diag});
  ASSERT_TRUE(op.SampleNodes(0, 40).ok());
  ASSERT_TRUE(op.SampleNodes(0, 40).ok());
  EXPECT_FALSE(overlay.HasCoins());
  op.SetInstruments({});
  FaultPlan faults(FaultPlanConfig{}, 3);
  op.SetFaultPlan(&faults);
  ASSERT_TRUE(op.SampleNodes(0, 40).ok());
  EXPECT_FALSE(overlay.HasCoins());
  EXPECT_EQ(overlay.coin_builds(), 3u);
  op.SetFaultPlan(nullptr);
  ASSERT_TRUE(op.SampleNodes(0, 40).ok());
  EXPECT_EQ(overlay.coin_builds(), 4u);
}

// One session of batches with churn and weight changes between them,
// run on `threads` workers that share each batch's snapshot.
std::vector<NodeId> ChurnedSession(size_t threads, std::string* diag_json) {
  Rng topo(31);
  Graph g = MakeBarabasiAlbert(150, 3, topo).value();
  std::vector<double> w(256);
  for (size_t v = 0; v < w.size(); ++v) w[v] = IdWeight(NodeId(v));
  SamplingOperatorOptions options;
  options.num_threads = threads;
  SamplingOperator op(&g, [&w](NodeId v) { return w[v]; }, Rng(37), nullptr,
                      options);
  diag::SamplerDiag diag;
  op.SetInstruments({.diag = &diag});
  Rng churn(41);
  std::vector<NodeId> samples;
  for (int batch = 0; batch < 6; ++batch) {
    const std::vector<NodeId> nodes = op.SampleNodes(0, 40).value().nodes;
    samples.insert(samples.end(), nodes.begin(), nodes.end());
    const std::vector<NodeId> live = g.LiveNodes();
    const NodeId leaving = live[1 + churn.NextIndex(live.size() - 1)];
    EXPECT_TRUE(g.RemoveNode(leaving).ok());
    const NodeId joined = g.AddNode();
    for (int k = 0; k < 3; ++k) {
      const std::vector<NodeId> now = g.LiveNodes();
      (void)g.AddEdge(joined, now[churn.NextIndex(now.size())]);
    }
    w[churn.NextIndex(g.NextId())] *= 3.0;
  }
  *diag_json = diag.SummaryJson();
  return samples;
}

TEST(OverlaySnapshotTest, WorkersShareOneSnapshotAtAnyThreadCount) {
  std::string diag_one;
  const std::vector<NodeId> one = ChurnedSession(1, &diag_one);
  for (size_t threads : {2, 4, 8}) {
    std::string diag_many;
    EXPECT_EQ(ChurnedSession(threads, &diag_many), one) << threads;
    EXPECT_EQ(diag_many, diag_one) << threads;
  }
}

}  // namespace
}  // namespace digest
