// Failure-injection tests: the full Digest stack under aggressive
// membership churn and adversarial conditions — the situations a
// deployment hits that the paper's clean analysis glosses over.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.h"
#include "diag/diag.h"
#include "net/topology.h"
#include "workload/experiment.h"
#include "workload/memory.h"

namespace digest {
namespace {

TEST(ChurnStressTest, EngineSurvivesHeavyChurn) {
  MemoryConfig config;
  config.num_units = 300;
  config.num_nodes = 150;
  config.join_rate = 4.0;   // ~2.7% of the network churning per tick.
  config.leave_rate = 4.0;
  auto workload = MemoryWorkload::Create(config).value();
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{3.0, 3.0, 0.95})
          .value();
  DigestEngineOptions options;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 60;
  options.sampling_options.reset_length = 15;
  Result<RunResult> run =
      RunEngineExperiment(*workload, spec, options, 120, 1);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.snapshots, 0u);
  // Even under heavy churn the estimate stays in the right region most
  // of the time.
  EXPECT_GT(run->precision.within_tolerance_fraction, 0.5);
}

TEST(ChurnStressTest, QueryingNodeProtectedThroughHeavyChurn) {
  MemoryConfig config;
  config.num_units = 200;
  config.num_nodes = 100;
  config.join_rate = 6.0;
  config.leave_rate = 6.0;
  auto workload = MemoryWorkload::Create(config).value();
  Rng rng(2);
  const NodeId querying_node =
      workload->graph().RandomLiveNode(rng).value();
  workload->ProtectNode(querying_node);
  for (int t = 0; t < 150; ++t) {
    ASSERT_TRUE(workload->Advance().ok());
    ASSERT_TRUE(workload->graph().HasNode(querying_node)) << "tick " << t;
    ASSERT_TRUE(workload->graph().IsConnected()) << "tick " << t;
  }
}

TEST(ChurnStressTest, SamplingOperatorSurvivesMassDeparture) {
  // Remove 60% of the network between two batches; warm agents stranded
  // on dead nodes must restart cleanly.
  Rng topo(3);
  Graph graph = MakeBarabasiAlbert(100, 3, topo).value();
  SamplingOperatorOptions options;
  options.walk_length = 50;
  options.reset_length = 15;
  SamplingOperator op(&graph, UniformWeight(), Rng(4), nullptr, options);
  ASSERT_TRUE(op.SampleNodes(0, 20).ok());

  Rng rng(5);
  size_t removed = 0;
  for (NodeId victim : graph.LiveNodes()) {
    if (victim == 0) continue;  // Keep the origin.
    if (rng.NextBernoulli(0.6)) {
      ASSERT_TRUE(graph.RemoveNode(victim).ok());
      ++removed;
    }
  }
  ASSERT_GT(removed, 30u);
  RepairConnectivity(graph, rng);

  Result<PartialBatch> batch = op.SampleNodes(0, 20);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (NodeId v : batch->nodes) EXPECT_TRUE(graph.HasNode(v));
}

struct ChurnDiagRun {
  std::vector<NodeId> first_batch;
  std::vector<NodeId> second_batch;
  size_t live_after = 0;
  uint64_t live_peers_before = 0;
  uint64_t live_peers_after = 0;
  uint64_t batches = 0;
  std::string summary;
};

/// Two sampling batches with a 60% mass departure in between, with the
/// sampler diagnostics optionally attached. Same fixed seeds every
/// call, so any two runs must produce identical samples.
ChurnDiagRun DriveChurnedBatches(diag::SamplerDiag* diag) {
  Rng topo(3);
  Graph graph = MakeBarabasiAlbert(100, 3, topo).value();
  SamplingOperatorOptions options;
  options.walk_length = 50;
  options.reset_length = 15;
  SamplingOperator op(&graph, UniformWeight(), Rng(4), nullptr, options);
  op.SetInstruments({.diag = diag});

  ChurnDiagRun run;
  run.first_batch = op.SampleNodes(0, 20).value().nodes;
  if (diag != nullptr) run.live_peers_before = diag->last_batch().live_peers;

  Rng rng(5);
  for (NodeId victim : graph.LiveNodes()) {
    if (victim == 0) continue;  // Keep the origin.
    if (rng.NextBernoulli(0.6)) {
      EXPECT_TRUE(graph.RemoveNode(victim).ok());
    }
  }
  RepairConnectivity(graph, rng);
  run.live_after = graph.NodeCount();

  run.second_batch = op.SampleNodes(0, 20).value().nodes;
  if (diag != nullptr) {
    run.live_peers_after = diag->last_batch().live_peers;
    run.batches = diag->batches();
    run.summary = diag->SummaryJson();
  }
  for (NodeId v : run.second_batch) EXPECT_TRUE(graph.HasNode(v));
  return run;
}

TEST(ChurnStressTest, DiagVisitTargetRebasesAfterMassDeparture) {
  // Sampler-introspection under churn: after 60% of the network leaves,
  // the next batch's stationary target is rebased on the survivors —
  // departed peers contribute no target mass — and attaching the
  // diagnostics never perturbs the walk schedule.
  diag::SamplerDiag diag;
  const ChurnDiagRun diagnosed = DriveChurnedBatches(&diag);
  ASSERT_EQ(diagnosed.batches, 2u);
  EXPECT_EQ(diagnosed.live_peers_before, 100u);
  EXPECT_EQ(diagnosed.live_peers_after, diagnosed.live_after);
  EXPECT_LT(diagnosed.live_peers_after, 60u);  // The departure happened.
  // Live visits land only on survivors, so the post-churn histogram is
  // still a probability distribution over the rebased target: TV ≤ 1.
  EXPECT_GT(diag.last_batch().live_visits, 0u);
  EXPECT_LE(diag.last_batch().tv_distance, 1.0);

  // Determinism, both ways: a diag-free run draws the same samples
  // (observation is pure), and a second diagnosed run reproduces the
  // summary byte-for-byte.
  const ChurnDiagRun plain = DriveChurnedBatches(nullptr);
  EXPECT_EQ(diagnosed.first_batch, plain.first_batch);
  EXPECT_EQ(diagnosed.second_batch, plain.second_batch);
  diag::SamplerDiag diag2;
  const ChurnDiagRun repeat = DriveChurnedBatches(&diag2);
  ASSERT_FALSE(diagnosed.summary.empty());
  EXPECT_EQ(diagnosed.summary, repeat.summary);
}

TEST(ChurnStressTest, RetainedPoolSurvivesDepartureOfSampledNodes) {
  // RPT carries a retained sample pool across occasions. When the nodes
  // hosting retained samples depart between occasions, the refresh pass
  // must fall back to the samples it can still reach — answering every
  // tick with an unbiased regression — instead of failing or letting
  // vanished pairs skew ρ̂.
  Graph graph = MakeComplete(40).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data(11);
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    for (int i = 0; i < 20; ++i) {
      db.StoreAt(node).value()->Insert({data.NextGaussian(100, 5)});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{2.0, 2.0, 0.9})
          .value();
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 20;
  options.sampling_options.reset_length = 5;
  auto engine =
      DigestEngine::Create(&graph, &db, spec, 0, Rng(12), nullptr, options)
          .value();
  // A few occasions to populate the retained pool.
  for (int64_t t = 1; t <= 4; ++t) ASSERT_TRUE(engine->Tick(t).ok());

  // Half the network leaves with its content — including whatever
  // retained samples it hosted.
  Rng rng(13);
  size_t removed = 0;
  for (NodeId victim : graph.LiveNodes()) {
    if (victim == 0) continue;  // Keep the querying node.
    if (rng.NextBernoulli(0.5)) {
      ASSERT_TRUE(graph.RemoveNode(victim).ok());
      ASSERT_TRUE(db.RemoveNode(victim).ok());
      ++removed;
    }
  }
  ASSERT_GT(removed, 10u);
  RepairConnectivity(graph, rng);

  for (int64_t t = 5; t <= 10; ++t) {
    Result<EngineTickResult> r = engine->Tick(t);
    ASSERT_TRUE(r.ok()) << r.status();
    const double truth = db.ExactAggregate(spec.query).value();
    EXPECT_NEAR(r->reported_value, truth, 5.0) << "tick " << t;
  }
  // A regression biased by vanished pairs would push ρ̂ out of range
  // (or to NaN); the fallback must keep it a valid correlation.
  const double rho = engine->correlation_estimate();
  EXPECT_TRUE(std::isfinite(rho));
  EXPECT_LE(std::fabs(rho), 1.0);
}

TEST(ChurnStressTest, TwoStageSamplerFailsCleanlyOnEmptyStores) {
  // A network whose stores are all empty must produce kUnavailable, not
  // an infinite retry loop.
  Graph graph = MakeComplete(5).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId node : graph.LiveNodes()) ASSERT_TRUE(db.AddNode(node).ok());
  // One tuple exists so TotalTuples() > 0, then it is deleted while the
  // content-size weights still remember it... simulate by inserting on a
  // node that immediately leaves the *graph* (weights see the db).
  const LocalTupleId id = db.StoreAt(4).value()->Insert({1.0});
  ASSERT_TRUE(graph.RemoveNode(4).ok());
  (void)id;
  SamplingOperatorOptions options;
  options.walk_length = 10;
  SamplingOperator op(&graph, ContentSizeWeight(db), Rng(6), nullptr,
                      options);
  TwoStageTupleSampler sampler(&db, &op, Rng(7));
  Result<PartialTupleBatch> batch = sampler.DrawFresh(0, 5);
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
}

TEST(ChurnStressTest, EngineRejectsDeadQueryingNodeAtCreate) {
  Graph graph = MakeComplete(4).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    db.StoreAt(node).value()->Insert({1.0});
  }
  ASSERT_TRUE(graph.RemoveNode(2).ok());
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{1.0, 1.0, 0.95})
          .value();
  EXPECT_FALSE(
      DigestEngine::Create(&graph, &db, spec, 2, Rng(8), nullptr).ok());
}

TEST(ChurnStressTest, EngineKeepsWorkingWhenOriginLosesAllContent) {
  // The querying node's own store empties out mid-query; sampling must
  // keep pulling from the rest of the network.
  Graph graph = MakeComplete(6).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data(9);
  std::vector<LocalTupleId> origin_tuples;
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    for (int i = 0; i < 50; ++i) {
      const LocalTupleId id =
          db.StoreAt(node).value()->Insert({data.NextGaussian(10, 2)});
      if (node == 0) origin_tuples.push_back(id);
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{0.5, 1.0, 0.95})
          .value();
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 30;
  auto engine =
      DigestEngine::Create(&graph, &db, spec, 0, Rng(10), nullptr, options)
          .value();
  ASSERT_TRUE(engine->Tick(1).ok());
  for (LocalTupleId id : origin_tuples) {
    ASSERT_TRUE(db.StoreAt(0).value()->Erase(id).ok());
  }
  Result<EngineTickResult> r = engine->Tick(2);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->reported_value, 10.0, 2.0);
}

}  // namespace
}  // namespace digest
