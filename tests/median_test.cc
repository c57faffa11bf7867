// Tests of the MEDIAN aggregate extension (quantile estimation by order
// statistics; ε is a rank tolerance).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/snapshot_estimator.h"
#include "baselines/push_sum.h"
#include "baselines/tree_aggregation.h"
#include "net/topology.h"

namespace digest {
namespace {

struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;

  // A right-skewed population: median well below the mean, so a mean
  // estimator could not fake the answer.
  explicit Fixture(size_t per_node = 200, uint64_t seed = 1) {
    graph = MakeComplete(6).value();
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    Rng rng(seed);
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (size_t i = 0; i < per_node; ++i) {
        const double v = std::exp(rng.NextGaussian(2.0, 0.8));
        db->StoreAt(node).value()->Insert({v});
      }
    }
  }
};

TEST(MedianParseTest, MedianQueriesParse) {
  Result<AggregateQuery> q =
      AggregateQuery::Parse("SELECT MEDIAN(v) FROM R");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->op, AggregateOp::kMedian);
  EXPECT_STREQ(AggregateOpName(AggregateOp::kMedian), "MEDIAN");
  EXPECT_TRUE(
      AggregateQuery::Parse("select median(v) from R where v > 2").ok());
}

TEST(MedianOracleTest, ExactLowerMedian) {
  Graph graph = MakeComplete(3).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId node : graph.LiveNodes()) ASSERT_TRUE(db.AddNode(node).ok());
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) {
    db.StoreAt(0).value()->Insert({v});
  }
  AggregateQuery q = AggregateQuery::Parse("SELECT MEDIAN(v) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(q).value(), 5.0);
  // Even count: the lower median.
  db.StoreAt(1).value()->Insert({2.0});
  EXPECT_DOUBLE_EQ(db.ExactAggregate(q).value(), 3.0);
  // With a predicate.
  AggregateQuery qp =
      AggregateQuery::Parse("SELECT MEDIAN(v) FROM R WHERE v >= 5").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(qp).value(), 7.0);
  // Empty qualifying set fails.
  AggregateQuery qe =
      AggregateQuery::Parse("SELECT MEDIAN(v) FROM R WHERE v > 99").value();
  EXPECT_FALSE(db.ExactAggregate(qe).ok());
}

TEST(MedianEstimatorTest, RankGuaranteeHolds) {
  Fixture f;
  // epsilon = 0.05 rank tolerance at p = 0.95: the estimate must lie
  // between the true 0.45- and 0.55-quantiles almost always.
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT MEDIAN(v) FROM R",
                                  PrecisionSpec{0.0, 0.05, 0.95})
          .value();
  // True quantile band from the oracle values.
  std::vector<double> values;
  for (NodeId node : f.db->Nodes()) {
    f.db->StoreAt(node).value()->ForEach(
        [&](LocalTupleId, const Tuple& t) { values.push_back(t[0]); });
  }
  std::sort(values.begin(), values.end());
  const double lo = values[static_cast<size_t>(0.45 * values.size())];
  const double hi = values[static_cast<size_t>(0.55 * values.size())];

  ExactTupleSampler sampler(f.db.get(), Rng(2), nullptr);
  int within = 0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    IndependentEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                             Rng(100 + i));
    Result<SnapshotEstimate> e = est.Evaluate(0);
    ASSERT_TRUE(e.ok()) << e.status();
    if (e->value >= lo && e->value <= hi) ++within;
  }
  EXPECT_GE(within, trials * 85 / 100);
}

TEST(MedianEstimatorTest, MedianDiffersFromMeanOnSkewedData) {
  Fixture f;
  ContinuousQuerySpec median_spec =
      ContinuousQuerySpec::Create("SELECT MEDIAN(v) FROM R",
                                  PrecisionSpec{0.0, 0.05, 0.95})
          .value();
  ExactTupleSampler sampler(f.db.get(), Rng(3), nullptr);
  IndependentEstimator est(median_spec, f.db.get(), &sampler, nullptr,
                           nullptr, Rng(4));
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok());
  AggregateQuery avg_q = AggregateQuery::Parse("SELECT AVG(v) FROM R").value();
  const double mean = f.db->ExactAggregate(avg_q).value();
  // Lognormal: mean = exp(mu + s^2/2) > median = exp(mu).
  EXPECT_LT(e->value, mean * 0.9);
}

TEST(MedianEstimatorTest, RejectsValueSpaceEpsilon) {
  Fixture f(50);
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT MEDIAN(v) FROM R",
                                  PrecisionSpec{0.0, 2.0, 0.95})
          .value();  // epsilon 2.0 is not a rank in (0, 0.5).
  ExactTupleSampler sampler(f.db.get(), Rng(5), nullptr);
  IndependentEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                           Rng(6));
  EXPECT_EQ(est.Evaluate(0).status().code(), StatusCode::kInvalidArgument);
}

TEST(MedianEngineTest, ContinuousMedianEndToEnd) {
  Fixture f;
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT MEDIAN(v) FROM R",
                                  PrecisionSpec{0.5, 0.05, 0.95})
          .value();
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;  // Delegates to INDEP.
  options.sampler = SamplerKind::kExactCentral;
  auto engine = DigestEngine::Create(&f.graph, f.db.get(), spec, 0, Rng(7),
                                     nullptr, options)
                    .value();
  Result<EngineTickResult> r = engine->Tick(1);
  ASSERT_TRUE(r.ok()) << r.status();
  AggregateQuery q = spec.query;
  const double truth = f.db->ExactAggregate(q).value();
  EXPECT_NEAR(r->reported_value, truth, 0.15 * truth);
  EXPECT_EQ(engine->stats().retained_samples, 0u);  // Always fresh.
}

TEST(MedianBaselineTest, InNetworkBaselinesRejectMedian) {
  Fixture f(20);
  AggregateQuery q = AggregateQuery::Parse("SELECT MEDIAN(v) FROM R").value();
  PushSumAggregator gossip(&f.graph, f.db.get(), q, 0, nullptr, Rng(8));
  EXPECT_EQ(gossip.Run().status().code(), StatusCode::kInvalidArgument);
  TreeAggregator tree(&f.graph, f.db.get(), q, 0, nullptr);
  EXPECT_EQ(tree.Tick().status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace digest
