#include "sampling/size_estimator.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "net/fault_plan.h"
#include "net/topology.h"

namespace digest {
namespace {

// A database with known total tuples spread over the graph's nodes.
struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;
  size_t total_tuples = 0;

  Fixture(Graph g, size_t tuples_per_node, uint64_t seed) : graph(std::move(g)) {
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    Rng rng(seed);
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      // Vary content sizes around the average.
      const size_t count = 1 + rng.NextIndex(2 * tuples_per_node - 1);
      for (size_t i = 0; i < count; ++i) {
        db->StoreAt(node).value()->Insert({1.0});
        ++total_tuples;
      }
    }
  }
};

SamplingOperatorOptions FastWalks() {
  SamplingOperatorOptions options;
  options.walk_length = 80;
  options.reset_length = 25;
  return options;
}

TEST(SizeEstimatorTest, EstimatesNetworkSizeWithinTolerance) {
  Rng topo(1);
  Fixture f(MakeBarabasiAlbert(100, 3, topo).value(), 4, 2);
  SamplingOperator op(&f.graph, UniformWeight(), Rng(3), nullptr,
                      FastWalks());
  SizeEstimatorOptions options;
  options.collision_target = 60;  // Tight for a deterministic test.
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  Result<double> n = est.EstimateNetworkSize();
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_NEAR(*n, 100.0, 30.0);
}

TEST(SizeEstimatorTest, EstimatesRelationSizeWithinTolerance) {
  Rng topo(4);
  Fixture f(MakeBarabasiAlbert(80, 3, topo).value(), 5, 5);
  SamplingOperator op(&f.graph, UniformWeight(), Rng(6), nullptr,
                      FastWalks());
  SizeEstimatorOptions options;
  options.collision_target = 60;
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  Result<double> n = est.EstimateRelationSize();
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_NEAR(*n, static_cast<double>(f.total_tuples),
              0.35 * static_cast<double>(f.total_tuples));
}

TEST(SizeEstimatorTest, CachingHonorsRefreshPeriod) {
  Rng topo(7);
  Fixture f(MakeComplete(30).value(), 3, 8);
  MessageMeter meter;
  SamplingOperator op(&f.graph, UniformWeight(), Rng(9), &meter,
                      FastWalks());
  SizeEstimatorOptions options;
  options.refresh_period = 100;
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  ASSERT_TRUE(est.EstimateRelationSize().ok());
  const uint64_t after_first = meter.Total();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(est.EstimateRelationSize().ok());
  }
  EXPECT_EQ(meter.Total(), after_first);  // All served from cache.
  est.Invalidate();
  ASSERT_TRUE(est.EstimateRelationSize().ok());
  EXPECT_GT(meter.Total(), after_first);
}

TEST(SizeEstimatorTest, RefreshPeriodZeroAlwaysRecomputes) {
  Rng topo(10);
  Fixture f(MakeComplete(20).value(), 3, 11);
  MessageMeter meter;
  SamplingOperator op(&f.graph, UniformWeight(), Rng(12), &meter,
                      FastWalks());
  SizeEstimatorOptions options;
  options.refresh_period = 0;
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  ASSERT_TRUE(est.EstimateRelationSize().ok());
  const uint64_t after_first = meter.Total();
  ASSERT_TRUE(est.EstimateRelationSize().ok());
  EXPECT_GT(meter.Total(), after_first);
}

TEST(SizeEstimatorTest, BudgetExhaustionFailsCleanly) {
  Rng topo(13);
  Fixture f(MakeBarabasiAlbert(300, 2, topo).value(), 2, 14);
  SamplingOperator op(&f.graph, UniformWeight(), Rng(15), nullptr,
                      FastWalks());
  SizeEstimatorOptions options;
  options.initial_samples = 2;
  options.max_samples = 4;  // Far too few for any collision at N=300.
  options.collision_target = 10;
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  Result<double> n = est.EstimateNetworkSize();
  // Either a clean kUnavailable, or (rarely) a lucky collision.
  if (!n.ok()) {
    EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
  }
}

TEST(SizeEstimatorTest, CutBatchFailsWithUnavailable) {
  // Under total message loss the hop budget cuts every batch before any
  // walk completes; collisions counted over a cut batch would bias the
  // estimate, so the estimator fails instead.
  Rng topo(16);
  Fixture f(MakeBarabasiAlbert(60, 2, topo).value(), 2, 17);
  SamplingOperatorOptions walks = FastWalks();
  walks.retry.hop_budget_factor = 1.0;
  SamplingOperator op(&f.graph, UniformWeight(), Rng(18), nullptr, walks);
  FaultPlanConfig config;
  config.message_loss = 1.0;
  FaultPlan plan(config, 19);
  op.SetFaultPlan(&plan);
  CollisionSizeEstimator est(f.db.get(), &op, 0);
  EXPECT_EQ(est.EstimateNetworkSize().status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(est.EstimateRelationSize().status().code(),
            StatusCode::kUnavailable);
}

// Property sweep: relative accuracy holds across network sizes.
class SizeEstimatorAccuracy : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeEstimatorAccuracy, NetworkSizeWithin40Percent) {
  const size_t n = GetParam();
  Rng topo(100 + n);
  Fixture f(MakeBarabasiAlbert(n, 3, topo).value(), 3, 200 + n);
  SamplingOperator op(&f.graph, UniformWeight(), Rng(300 + n), nullptr,
                      FastWalks());
  SizeEstimatorOptions options;
  options.collision_target = 40;
  CollisionSizeEstimator est(f.db.get(), &op, 0, options);
  Result<double> estimate = est.EstimateNetworkSize();
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_NEAR(*estimate, static_cast<double>(n), 0.4 * n) << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeEstimatorAccuracy,
                         ::testing::Values(40, 80, 160, 320));

TEST(SizeEstimatorTest, ZeroSamplesOrCollisionTargetIsInvalid) {
  // initial_samples = 0 never ends the doubling loop, and
  // collision_target = 0 stops before any collision (|V|^ = NaN).
  Rng topo(7);
  Fixture f(MakeBarabasiAlbert(60, 3, topo).value(), 4, 8);
  SamplingOperator op(&f.graph, UniformWeight(), Rng(9), nullptr,
                      FastWalks());
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT SUM(v) FROM R",
                                  PrecisionSpec{10.0, 150.0, 0.95})
          .value();
  for (const bool zero_samples : {true, false}) {
    SizeEstimatorOptions options;
    options.initial_samples = zero_samples ? 0 : 1;
    options.collision_target = zero_samples ? 32 : 0;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
    CollisionSizeEstimator est(f.db.get(), &op, 0, options);
    EXPECT_EQ(est.EstimateNetworkSize().status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(est.EstimateRelationSize().status().code(),
              StatusCode::kInvalidArgument);

    DigestEngineOptions engine_options;
    engine_options.size_oracle = SizeOracleKind::kSampled;
    engine_options.size_estimator_options = options;
    EXPECT_EQ(DigestEngine::Create(&f.graph, f.db.get(), spec, 0, Rng(10),
                                   nullptr, engine_options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(SizeEstimatorEngineTest, SumQueryWithSampledOracle) {
  // End-to-end: a SUM query whose N comes from the distributed
  // estimator instead of ground truth.
  Rng topo(16);
  Graph graph = MakeBarabasiAlbert(60, 3, topo).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data(17);
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    for (int i = 0; i < 5; ++i) {
      db.StoreAt(node).value()->Insert({data.NextGaussian(10.0, 2.0)});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT SUM(v) FROM R",
                                  PrecisionSpec{10.0, 150.0, 0.95})
          .value();
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.size_oracle = SizeOracleKind::kSampled;
  options.sampling_options.walk_length = 60;
  options.sampling_options.reset_length = 20;
  options.size_estimator_options.collision_target = 80;
  auto engine = DigestEngine::Create(&graph, &db, spec, 0, Rng(18), nullptr,
                                     options)
                    .value();
  Result<EngineTickResult> r = engine->Tick(1);
  ASSERT_TRUE(r.ok()) << r.status();
  const double truth = db.ExactAggregate(spec.query).value();
  // N is itself estimated (rel. error ~ 1/sqrt(collision_target)), so
  // allow a generous band.
  EXPECT_NEAR(r->reported_value, truth, 0.3 * truth);
}

}  // namespace
}  // namespace digest
