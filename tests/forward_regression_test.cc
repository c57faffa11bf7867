// Tests of the forward-regression extension (§VIII): occasion k's
// information flows backward to sharpen the occasion-(k−1) estimate.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/snapshot_estimator.h"
#include "net/topology.h"

namespace digest {
namespace {

// Same AR(1) database shape as estimator_test.
class Ar1Database {
 public:
  Ar1Database(size_t nodes, size_t tuples_per_node, double mean,
              double sigma, double ar, uint64_t seed)
      : ar_(ar), noise_sigma_(sigma * std::sqrt(1.0 - ar * ar)),
        rng_(seed) {
    graph = MakeComplete(nodes).value();
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (size_t i = 0; i < tuples_per_node; ++i) {
        const double base = rng_.NextGaussian(mean, sigma);
        const LocalTupleId id = db->StoreAt(node).value()->Insert({base});
        tuples_.push_back({TupleRef{node, id}, base});
      }
    }
  }

  void Advance() {
    for (auto& [ref, base] : tuples_) {
      const double v = db->GetTuple(ref).value()[0];
      const double nv =
          base + ar_ * (v - base) + rng_.NextGaussian(0.0, noise_sigma_);
      EXPECT_TRUE(db->StoreAt(ref.node)
                      .value()
                      ->UpdateAttribute(ref.local, 0, nv)
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
  struct Entry {
    TupleRef ref;
    double base;
  };
  std::vector<Entry> tuples_;
  double ar_;
  double noise_sigma_;
  Rng rng_;
};

ContinuousQuerySpec AvgSpec(double epsilon) {
  return ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                     PrecisionSpec{0.0, epsilon, 0.95})
      .value();
}

TEST(ForwardRegressionTest, UnavailableBeforeSecondOccasion) {
  Ar1Database data(6, 100, 50.0, 10.0, 0.9, 1);
  ExactTupleSampler sampler(data.db.get(), Rng(2), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(1.0), data.db.get(), &sampler,
                                nullptr, nullptr, Rng(3));
  EXPECT_EQ(est.AdjustedPreviousEstimate().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(est.Evaluate(0).ok());
  EXPECT_FALSE(est.AdjustedPreviousEstimate().ok());  // Still occasion 1.
}

TEST(ForwardRegressionTest, AvailableAfterSecondOccasion) {
  Ar1Database data(6, 200, 50.0, 10.0, 0.9, 4);
  ExactTupleSampler sampler(data.db.get(), Rng(5), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(1.0), data.db.get(), &sampler,
                                nullptr, nullptr, Rng(6));
  ASSERT_TRUE(est.Evaluate(0).ok());
  data.Advance();
  ASSERT_TRUE(est.Evaluate(0).ok());
  Result<double> adjusted = est.AdjustedPreviousEstimate();
  ASSERT_TRUE(adjusted.ok()) << adjusted.status();
  // Sanity: an AVG near the population mean.
  EXPECT_NEAR(*adjusted, 50.0, 3.0);
}

TEST(ForwardRegressionTest, AdjustmentReducesErrorOnAverage) {
  // Over repeated two-occasion experiments, the adjusted occasion-1
  // estimate should beat the original occasion-1 estimate in MSE
  // (occasion 2 contributes fresh information backward).
  double mse_original = 0.0;
  double mse_adjusted = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    Ar1Database data(6, 300, 50.0, 10.0, 0.95, 100 + trial);
    ExactTupleSampler sampler(data.db.get(), Rng(200 + trial), nullptr);
    // Loose epsilon => small n => visible estimation error.
    RepeatedSamplingEstimator est(AvgSpec(3.0), data.db.get(), &sampler,
                                  nullptr, nullptr, Rng(300 + trial));
    Result<SnapshotEstimate> first = est.Evaluate(0);
    ASSERT_TRUE(first.ok());
    const double truth1 = data.TrueAvg();
    data.Advance();
    ASSERT_TRUE(est.Evaluate(0).ok());
    Result<double> adjusted = est.AdjustedPreviousEstimate();
    ASSERT_TRUE(adjusted.ok()) << adjusted.status();
    mse_original += (first->value - truth1) * (first->value - truth1);
    mse_adjusted += (*adjusted - truth1) * (*adjusted - truth1);
  }
  EXPECT_LT(mse_adjusted, mse_original);
}

TEST(ForwardRegressionTest, EngineExposureAndIndependentRejection) {
  Ar1Database data(6, 150, 50.0, 10.0, 0.9, 7);
  ContinuousQuerySpec spec = AvgSpec(1.0);

  DigestEngineOptions rpt_options;
  rpt_options.scheduler = SchedulerKind::kAll;
  rpt_options.estimator = EstimatorKind::kRepeated;
  rpt_options.sampler = SamplerKind::kExactCentral;
  auto rpt_engine = DigestEngine::Create(&data.graph, data.db.get(), spec,
                                         0, Rng(8), nullptr, rpt_options)
                        .value();
  data.Advance();
  ASSERT_TRUE(rpt_engine->Tick(1).ok());
  data.Advance();
  ASSERT_TRUE(rpt_engine->Tick(2).ok());
  EXPECT_TRUE(rpt_engine->AdjustedPreviousResult().ok());

  DigestEngineOptions indep_options = rpt_options;
  indep_options.estimator = EstimatorKind::kIndependent;
  auto indep_engine =
      DigestEngine::Create(&data.graph, data.db.get(), spec, 0, Rng(9),
                           nullptr, indep_options)
          .value();
  ASSERT_TRUE(indep_engine->Tick(1).ok());
  EXPECT_EQ(indep_engine->AdjustedPreviousResult().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ForwardRegressionTest, ResetClearsState) {
  Ar1Database data(6, 150, 50.0, 10.0, 0.9, 10);
  ExactTupleSampler sampler(data.db.get(), Rng(11), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(1.0), data.db.get(), &sampler,
                                nullptr, nullptr, Rng(12));
  ASSERT_TRUE(est.Evaluate(0).ok());
  data.Advance();
  ASSERT_TRUE(est.Evaluate(0).ok());
  ASSERT_TRUE(est.AdjustedPreviousEstimate().ok());
  est.Reset();
  EXPECT_FALSE(est.AdjustedPreviousEstimate().ok());
}

}  // namespace
}  // namespace digest
