#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <variant>

#include "net/topology.h"
#include "obs/tracer.h"

namespace digest {
namespace {

// A database whose average drifts linearly: every tuple gains `slope`
// per tick plus small noise.
class DriftingDatabase {
 public:
  DriftingDatabase(size_t nodes, size_t tuples_per_node, double slope,
                   uint64_t seed)
      : slope_(slope), rng_(seed) {
    graph = MakeComplete(nodes).value();
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (size_t i = 0; i < tuples_per_node; ++i) {
        const LocalTupleId id = db->StoreAt(node).value()->Insert(
            {rng_.NextGaussian(100.0, 5.0)});
        refs_.push_back(TupleRef{node, id});
      }
    }
  }

  void Advance() {
    for (const TupleRef& ref : refs_) {
      const double v = db->GetTuple(ref).value()[0];
      EXPECT_TRUE(db->StoreAt(ref.node)
                      .value()
                      ->UpdateAttribute(ref.local, 0,
                                        v + slope_ +
                                            rng_.NextGaussian(0.0, 0.05))
                      .ok());
    }
  }

  double TrueAvg() const {
    AggregateQuery q = AggregateQuery::Parse("SELECT AVG(v) FROM R").value();
    return db->ExactAggregate(q).value();
  }

  Graph graph;
  std::unique_ptr<P2PDatabase> db;

 private:
  std::vector<TupleRef> refs_;
  double slope_;
  Rng rng_;
};

ContinuousQuerySpec Spec(double delta, double epsilon, double p = 0.95) {
  return ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                     PrecisionSpec{delta, epsilon, p})
      .value();
}

DigestEngineOptions FastOptions(SchedulerKind scheduler,
                                EstimatorKind estimator) {
  DigestEngineOptions options;
  options.scheduler = scheduler;
  options.estimator = estimator;
  options.sampler = SamplerKind::kExactCentral;  // Fast path for tests.
  return options;
}

TEST(EngineTest, CreateValidatesInputs) {
  DriftingDatabase data(4, 20, 0.1, 1);
  EXPECT_FALSE(DigestEngine::Create(&data.graph, data.db.get(),
                                    Spec(1.0, 1.0), /*querying_node=*/99,
                                    Rng(2), nullptr)
                   .ok());
  ContinuousQuerySpec bad = Spec(1.0, 1.0);
  bad.precision.confidence = 2.0;
  EXPECT_FALSE(
      DigestEngine::Create(&data.graph, data.db.get(), bad, 0, Rng(2),
                           nullptr)
          .ok());
  // A hop-budget factor the budget cast cannot take (NaN, negative), or
  // one below the planned hops, fails Create instead of the ticks.
  FaultPlan plan(FaultPlanConfig(), 7);
  for (double factor : {std::nan(""), -1.0, 0.5}) {
    DigestEngineOptions options;
    options.fault_plan = &plan;
    options.sampling_options.retry.hop_budget_factor = factor;
    EXPECT_EQ(DigestEngine::Create(&data.graph, data.db.get(),
                                   Spec(1.0, 1.0), 0, Rng(2), nullptr,
                                   options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << factor;
  }
}

TEST(EngineTest, TicksMustIncrease) {
  DriftingDatabase data(4, 20, 0.1, 3);
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(1.0, 1.0), 0, Rng(4), nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kIndependent))
                    .value();
  ASSERT_TRUE(engine->Tick(1).ok());
  EXPECT_FALSE(engine->Tick(1).ok());
  EXPECT_FALSE(engine->Tick(0).ok());
  EXPECT_TRUE(engine->Tick(2).ok());
}

TEST(EngineTest, AllSchedulerSnapshotsEveryTick) {
  DriftingDatabase data(4, 50, 0.2, 5);
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(1.0, 0.5), 0, Rng(6), nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kIndependent))
                    .value();
  for (int t = 1; t <= 30; ++t) {
    data.Advance();
    Result<EngineTickResult> r = engine->Tick(t);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->snapshot_executed);
  }
  EXPECT_EQ(engine->stats().snapshots, 30u);
  EXPECT_EQ(engine->stats().ticks, 30u);
}

TEST(EngineTest, PredSchedulerSkipsTicksOnSmoothDrift) {
  DriftingDatabase data(4, 50, 0.2, 7);
  DigestEngineOptions options =
      FastOptions(SchedulerKind::kPred, EstimatorKind::kIndependent);
  options.extrapolator.history_points = 3;
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(/*delta=*/2.0, 0.3), 0, Rng(8),
                                     nullptr, options)
                    .value();
  for (int t = 1; t <= 60; ++t) {
    data.Advance();
    ASSERT_TRUE(engine->Tick(t).ok());
  }
  // Drift 0.2/tick, delta 2: a snapshot every ~10 ticks after bootstrap.
  EXPECT_LT(engine->stats().snapshots, 25u);
  EXPECT_GT(engine->stats().snapshots, 5u);
}

TEST(EngineTest, GapTraceReportsTheFittedOrder) {
  // The extrapolator clamps k to at least 2, so history_points 0 and 1
  // run PRED-2: a degree-1 fit, which the trace must report as such.
  for (size_t k : {0, 1, 2, 3}) {
    SCOPED_TRACE(k);
    DriftingDatabase data(4, 50, 0.2, 7);
    obs::MemoryTracer tracer;
    DigestEngineOptions options =
        FastOptions(SchedulerKind::kPred, EstimatorKind::kIndependent);
    options.extrapolator.history_points = k;
    options.tracer = &tracer;
    auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                       Spec(/*delta=*/2.0, 0.3), 0, Rng(8),
                                       nullptr, options)
                      .value();
    for (int t = 1; t <= 30; ++t) {
      data.Advance();
      ASSERT_TRUE(engine->Tick(t).ok());
    }
    const int64_t fitted_order =
        static_cast<int64_t>(std::max<size_t>(k, 2)) - 1;
    size_t bootstrapped = 0;
    for (const obs::TraceEvent& event : tracer.events()) {
      const auto* gap = std::get_if<obs::GapPredictedEvent>(&event.payload);
      if (gap == nullptr || gap->poly_order == 0) continue;
      EXPECT_EQ(gap->poly_order, fitted_order);
      ++bootstrapped;
    }
    EXPECT_GT(bootstrapped, 0u);
  }
}

TEST(EngineTest, ReportedValueHoldsBetweenUpdates) {
  DriftingDatabase data(4, 50, 0.0, 9);  // No drift.
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(/*delta=*/5.0, 0.5), 0, Rng(10),
                                     nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kIndependent))
                    .value();
  data.Advance();
  Result<EngineTickResult> first = engine->Tick(1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->result_updated);
  const double reported = first->reported_value;
  for (int t = 2; t <= 20; ++t) {
    data.Advance();
    Result<EngineTickResult> r = engine->Tick(t);
    ASSERT_TRUE(r.ok());
    // Static aggregate: never drifts delta, so the result never updates.
    EXPECT_FALSE(r->result_updated);
    EXPECT_DOUBLE_EQ(r->reported_value, reported);
  }
  EXPECT_EQ(engine->stats().result_updates, 1u);
}

TEST(EngineTest, ResolutionSemanticsUpdateOnDelta) {
  DriftingDatabase data(4, 80, 0.5, 11);
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(/*delta=*/3.0, 0.2), 0, Rng(12),
                                     nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kIndependent))
                    .value();
  double last_update_value = 0.0;
  bool have_update = false;
  for (int t = 1; t <= 40; ++t) {
    data.Advance();
    Result<EngineTickResult> r = engine->Tick(t);
    ASSERT_TRUE(r.ok());
    if (r->result_updated) {
      if (have_update) {
        EXPECT_GE(std::fabs(r->reported_value - last_update_value), 3.0);
      }
      last_update_value = r->reported_value;
      have_update = true;
    }
  }
  EXPECT_GT(engine->stats().result_updates, 3u);
}

TEST(EngineTest, StrictModeTracksDriftWithinTolerance) {
  DriftingDatabase data(4, 100, 0.3, 13);
  DigestEngineOptions options =
      FastOptions(SchedulerKind::kPred, EstimatorKind::kRepeated);
  options.strict_resolution = true;
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(/*delta=*/1.0, 0.3), 0, Rng(14),
                                     nullptr, options)
                    .value();
  int violations = 0;
  for (int t = 1; t <= 80; ++t) {
    data.Advance();
    Result<EngineTickResult> r = engine->Tick(t);
    ASSERT_TRUE(r.ok());
    // delta + epsilon is the per-tick contract; allow two extra ticks of
    // drift (2 * 0.3) of slack for prediction overshoot.
    if (std::fabs(r->reported_value - data.TrueAvg()) > 1.0 + 0.3 + 0.6) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 8);
}

TEST(EngineTest, StrictModeTradesSnapshotsForResolution) {
  // The documented trade-off: strict mode executes at least as many
  // snapshots and achieves at-most-equal worst-case lag.
  auto run = [](bool strict, size_t& snapshots, double& worst_lag) {
    DriftingDatabase data(4, 100, 0.3, 21);
    DigestEngineOptions options =
        FastOptions(SchedulerKind::kPred, EstimatorKind::kIndependent);
    options.strict_resolution = strict;
    auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                       Spec(1.0, 0.3), 0, Rng(22), nullptr,
                                       options)
                      .value();
    worst_lag = 0.0;
    for (int t = 1; t <= 100; ++t) {
      data.Advance();
      Result<EngineTickResult> r = engine->Tick(t);
      ASSERT_TRUE(r.ok());
      worst_lag = std::max(
          worst_lag, std::fabs(r->reported_value - data.TrueAvg()));
    }
    snapshots = engine->stats().snapshots;
  };
  size_t strict_snapshots = 0, loose_snapshots = 0;
  double strict_lag = 0.0, loose_lag = 0.0;
  run(true, strict_snapshots, strict_lag);
  run(false, loose_snapshots, loose_lag);
  EXPECT_GE(strict_snapshots, loose_snapshots);
  EXPECT_LE(strict_lag, loose_lag + 0.5);
}

TEST(EngineTest, RepeatedEstimatorReportsCorrelation) {
  DriftingDatabase data(4, 100, 0.1, 15);
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(0.5, 0.5), 0, Rng(16), nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kRepeated))
                    .value();
  for (int t = 1; t <= 10; ++t) {
    data.Advance();
    ASSERT_TRUE(engine->Tick(t).ok());
  }
  EXPECT_GT(engine->correlation_estimate(), 0.5);
  EXPECT_GT(engine->stats().retained_samples, 0u);
}

TEST(EngineTest, IndependentEngineHasZeroCorrelationEstimate) {
  DriftingDatabase data(4, 50, 0.1, 17);
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(0.5, 0.5), 0, Rng(18), nullptr,
                                     FastOptions(SchedulerKind::kAll,
                                                 EstimatorKind::kIndependent))
                    .value();
  data.Advance();
  ASSERT_TRUE(engine->Tick(1).ok());
  EXPECT_EQ(engine->correlation_estimate(), 0.0);
  EXPECT_EQ(engine->stats().retained_samples, 0u);
}

TEST(EngineTest, McmcSamplerEndToEnd) {
  // Full production path: MCMC two-stage sampling on a mesh.
  DriftingDatabase data(9, 30, 0.0, 19);
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 40;
  options.sampling_options.reset_length = 10;
  MessageMeter meter;
  auto engine = DigestEngine::Create(&data.graph, data.db.get(),
                                     Spec(1.0, 2.0), 0, Rng(20), &meter,
                                     options)
                    .value();
  data.Advance();
  Result<EngineTickResult> r = engine->Tick(1);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->reported_value, data.TrueAvg(), 4.0);
  EXPECT_GT(meter.walk_hops(), 0u);
  EXPECT_GT(meter.sample_transfers(), 0u);
}

}  // namespace
}  // namespace digest
