// End-to-end tests of WHERE-clause aggregate estimation (the select-
// predicate extension of §VIII): oracle semantics plus sample-based
// estimation for all three ops and both estimators.
#include <gtest/gtest.h>

#include <cmath>

#include "core/snapshot_estimator.h"
#include "net/topology.h"

namespace digest {
namespace {

// A two-attribute database: `kind` partitions tuples into classes 0/1/2,
// `v` carries a class-dependent value distribution.
struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;
  std::vector<TupleRef> refs;

  explicit Fixture(size_t tuples_per_node = 120, uint64_t seed = 5) {
    graph = MakeComplete(6).value();
    db = std::make_unique<P2PDatabase>(
        Schema::Create({"kind", "v"}).value());
    Rng rng(seed);
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (size_t i = 0; i < tuples_per_node; ++i) {
        const double kind = static_cast<double>(rng.NextIndex(3));
        const double v = rng.NextGaussian(10.0 + 20.0 * kind, 3.0);
        const LocalTupleId id =
            db->StoreAt(node).value()->Insert({kind, v});
        refs.push_back(TupleRef{node, id});
      }
    }
  }

  // Mild value drift keeping `kind` fixed.
  void Perturb(Rng& rng) {
    for (const TupleRef& ref : refs) {
      Tuple t = db->GetTuple(ref).value();
      t[1] += rng.NextGaussian(0.0, 0.3);
      EXPECT_TRUE(db->StoreAt(ref.node).value()->Update(ref.local, t).ok());
    }
  }
};

ContinuousQuerySpec MakeSpec(const std::string& query, double epsilon) {
  return ContinuousQuerySpec::Create(query,
                                     PrecisionSpec{0.0, epsilon, 0.95})
      .value();
}

TEST(PredicatedOracleTest, CountAvgSumRespectWhere) {
  Fixture f;
  AggregateQuery count_q =
      AggregateQuery::Parse("SELECT COUNT(*) FROM R WHERE kind = 1")
          .value();
  AggregateQuery avg_q =
      AggregateQuery::Parse("SELECT AVG(v) FROM R WHERE kind = 1").value();
  AggregateQuery sum_q =
      AggregateQuery::Parse("SELECT SUM(v) FROM R WHERE kind = 1").value();
  const double count = f.db->ExactAggregate(count_q).value();
  const double avg = f.db->ExactAggregate(avg_q).value();
  const double sum = f.db->ExactAggregate(sum_q).value();
  EXPECT_GT(count, 0.0);
  EXPECT_LT(count, static_cast<double>(f.db->TotalTuples()));
  EXPECT_NEAR(avg, 30.0, 1.0);  // kind=1 population mean.
  EXPECT_NEAR(sum, avg * count, 1e-6);
}

TEST(PredicatedOracleTest, EmptyQualifyingSet) {
  Fixture f;
  AggregateQuery avg_q =
      AggregateQuery::Parse("SELECT AVG(v) FROM R WHERE kind > 99").value();
  EXPECT_EQ(f.db->ExactAggregate(avg_q).status().code(),
            StatusCode::kFailedPrecondition);
  AggregateQuery cnt_q =
      AggregateQuery::Parse("SELECT COUNT(*) FROM R WHERE kind > 99")
          .value();
  EXPECT_DOUBLE_EQ(f.db->ExactAggregate(cnt_q).value(), 0.0);
}

TEST(PredicatedIndependentTest, AvgOverQualifyingSubpopulation) {
  Fixture f;
  ContinuousQuerySpec spec =
      MakeSpec("SELECT AVG(v) FROM R WHERE kind = 2", 1.0);
  ExactTupleSampler sampler(f.db.get(), Rng(6), nullptr);
  IndependentEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                           Rng(7));
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok()) << e.status();
  const double truth = f.db->ExactAggregate(spec.query).value();
  EXPECT_NEAR(e->value, truth, 2.0);
  // ~1/3 of draws qualify, so drawn far exceeds contributing.
  EXPECT_GT(e->total_samples, e->contributing_samples);
  EXPECT_GE(e->contributing_samples, 30u);  // Pilot in qualifying units.
}

TEST(PredicatedIndependentTest, SumAndCountScaleByRelationSize) {
  Fixture f;
  ExactTupleSampler sampler(f.db.get(), Rng(8), nullptr);
  ExactSizeOracle oracle(f.db.get());

  ContinuousQuerySpec cnt_spec =
      MakeSpec("SELECT COUNT(*) FROM R WHERE kind = 0", 30.0);
  IndependentEstimator cnt(cnt_spec, f.db.get(), &sampler, &oracle, nullptr,
                           Rng(9));
  Result<SnapshotEstimate> ce = cnt.Evaluate(0);
  ASSERT_TRUE(ce.ok()) << ce.status();
  const double cnt_truth = f.db->ExactAggregate(cnt_spec.query).value();
  EXPECT_NEAR(ce->value, cnt_truth, 60.0);

  ContinuousQuerySpec sum_spec =
      MakeSpec("SELECT SUM(v) FROM R WHERE kind = 0", 400.0);
  IndependentEstimator sum(sum_spec, f.db.get(), &sampler, &oracle, nullptr,
                           Rng(10));
  Result<SnapshotEstimate> se = sum.Evaluate(0);
  ASSERT_TRUE(se.ok()) << se.status();
  const double sum_truth = f.db->ExactAggregate(sum_spec.query).value();
  EXPECT_NEAR(se->value, sum_truth, 800.0);
}

TEST(PredicatedIndependentTest, ZeroSelectivityFailsCleanly) {
  Fixture f;
  ContinuousQuerySpec spec =
      MakeSpec("SELECT AVG(v) FROM R WHERE kind > 99", 1.0);
  ExactTupleSampler sampler(f.db.get(), Rng(11), nullptr);
  IndependentEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                           Rng(12));
  EXPECT_EQ(est.Evaluate(0).status().code(), StatusCode::kUnavailable);
}

TEST(PredicatedRepeatedTest, TracksQualifyingAvgAcrossOccasions) {
  Fixture f;
  ContinuousQuerySpec spec =
      MakeSpec("SELECT AVG(v) FROM R WHERE kind = 1", 1.0);
  ExactTupleSampler sampler(f.db.get(), Rng(13), nullptr);
  RepeatedSamplingEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                                Rng(14));
  Rng drift(15);
  int within = 0;
  const int occasions = 10;
  for (int k = 0; k < occasions; ++k) {
    Result<SnapshotEstimate> e = est.Evaluate(0);
    ASSERT_TRUE(e.ok()) << e.status();
    const double truth = f.db->ExactAggregate(spec.query).value();
    if (std::fabs(e->value - truth) <= 1.0) ++within;
    if (k > 0) {
      EXPECT_GT(e->retained_samples, 0u) << "occasion " << k;
    }
    f.Perturb(drift);
  }
  EXPECT_GE(within, occasions * 7 / 10);
}

TEST(PredicatedRepeatedTest, RetainedSamplesLeavingPredicateAreReplaced) {
  Fixture f;
  ContinuousQuerySpec spec =
      MakeSpec("SELECT AVG(v) FROM R WHERE v < 25", 1.5);
  ExactTupleSampler sampler(f.db.get(), Rng(16), nullptr);
  RepeatedSamplingEstimator est(spec, f.db.get(), &sampler, nullptr, nullptr,
                                Rng(17));
  ASSERT_TRUE(est.Evaluate(0).ok());
  // Push many kind-0 tuples (v ~ 10) above the v < 25 boundary: their
  // retained samples stop qualifying and must be replaced by fresh ones.
  Rng jump(18);
  for (const TupleRef& ref : f.refs) {
    Tuple t = f.db->GetTuple(ref).value();
    if (t[0] == 0.0 && jump.NextBernoulli(0.5)) {
      t[1] = 40.0;
      ASSERT_TRUE(f.db->StoreAt(ref.node).value()->Update(ref.local, t).ok());
    }
  }
  Result<SnapshotEstimate> e2 = est.Evaluate(0);
  ASSERT_TRUE(e2.ok()) << e2.status();
  const double truth = f.db->ExactAggregate(spec.query).value();
  EXPECT_NEAR(e2->value, truth, 2.5);
  EXPECT_GT(e2->fresh_samples, 0u);
}

}  // namespace
}  // namespace digest
