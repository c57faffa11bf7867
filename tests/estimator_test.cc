#include "core/snapshot_estimator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "net/topology.h"

namespace digest {
namespace {

// A database whose tuple values evolve as AR(1) around per-tuple means,
// giving a controllable inter-occasion correlation.
class Ar1Database {
 public:
  Ar1Database(size_t nodes, size_t tuples_per_node, double mean,
              double sigma, double ar, uint64_t seed)
      : ar_(ar), noise_sigma_(sigma * std::sqrt(1.0 - ar * ar)), rng_(seed) {
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

  // One occasion step: v' = base + ar*(v-base) + noise. Stationary
  // per-tuple variance stays sigma-ish; lag-1 correlation ~ ar for the
  // value *around its base*... the cross-sectional pooled correlation is
  // dominated by the stable bases, making it high, like TEMPERATURE.
  void Advance() {
    for (auto& [ref, base] : tuples_) {
      const double v = db->GetTuple(ref).value()[0];
      const double nv =
          base + ar_ * (v - base) + rng_.NextGaussian(0.0, noise_sigma_);
      EXPECT_TRUE(
          db->StoreAt(ref.node).value()->UpdateAttribute(ref.local, 0, nv)
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

ContinuousQuerySpec AvgSpec(double delta, double epsilon, double p) {
  return ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                     PrecisionSpec{delta, epsilon, p})
      .value();
}

TEST(IndependentEstimatorTest, EstimateWithinEpsilonMostOfTheTime) {
  Ar1Database data(8, 100, 50.0, 10.0, 0.8, 1);
  ContinuousQuerySpec spec = AvgSpec(0.0, 1.0, 0.95);
  ExactTupleSampler sampler(data.db.get(), Rng(2), nullptr);
  int within = 0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    IndependentEstimator est(spec, data.db.get(), &sampler, nullptr, nullptr,
                             Rng(100 + i));
    Result<SnapshotEstimate> e = est.Evaluate(0);
    ASSERT_TRUE(e.ok()) << e.status();
    if (std::fabs(e->value - data.TrueAvg()) <= 1.0) ++within;
  }
  // 95% nominal; allow sampling noise down to 85%.
  EXPECT_GE(within, trials * 85 / 100);
}

TEST(IndependentEstimatorTest, SampleSizeMatchesCltFormula) {
  Ar1Database data(8, 200, 50.0, 10.0, 0.8, 3);
  ExactTupleSampler sampler(data.db.get(), Rng(4), nullptr);
  ContinuousQuerySpec spec = AvgSpec(0.0, 1.0, 0.95);
  IndependentEstimator est(spec, data.db.get(), &sampler, nullptr, nullptr,
                           Rng(5));
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok());
  // n = (z sigma / eps)^2 ~= (1.96 * 10 / 1)^2 ~= 384.
  EXPECT_GT(e->total_samples, 250u);
  EXPECT_LT(e->total_samples, 700u);
  EXPECT_EQ(e->fresh_samples, e->total_samples);
  EXPECT_EQ(e->retained_samples, 0u);
}

TEST(IndependentEstimatorTest, TighterEpsilonNeedsMoreSamples) {
  Ar1Database data(8, 300, 50.0, 10.0, 0.8, 6);
  ExactTupleSampler sampler(data.db.get(), Rng(7), nullptr);
  size_t last = 0;
  for (double eps : {4.0, 2.0, 1.0, 0.5}) {
    IndependentEstimator est(AvgSpec(0.0, eps, 0.95), data.db.get(),
                             &sampler, nullptr, nullptr, Rng(8));
    Result<SnapshotEstimate> e = est.Evaluate(0);
    ASSERT_TRUE(e.ok());
    EXPECT_GT(e->total_samples, last) << "eps=" << eps;
    last = e->total_samples;
  }
}

TEST(IndependentEstimatorTest, HigherConfidenceNeedsMoreSamples) {
  Ar1Database data(8, 300, 50.0, 10.0, 0.8, 9);
  ExactTupleSampler sampler(data.db.get(), Rng(10), nullptr);
  IndependentEstimator low(AvgSpec(0.0, 1.0, 0.80), data.db.get(), &sampler,
                           nullptr, nullptr, Rng(11));
  IndependentEstimator high(AvgSpec(0.0, 1.0, 0.99), data.db.get(), &sampler,
                            nullptr, nullptr, Rng(11));
  Result<SnapshotEstimate> e_low = low.Evaluate(0);
  Result<SnapshotEstimate> e_high = high.Evaluate(0);
  ASSERT_TRUE(e_low.ok());
  ASSERT_TRUE(e_high.ok());
  EXPECT_GT(e_high->total_samples, e_low->total_samples);
}

TEST(IndependentEstimatorTest, SumNeedsSizeOracle) {
  Ar1Database data(4, 50, 50.0, 10.0, 0.8, 12);
  ExactTupleSampler sampler(data.db.get(), Rng(13), nullptr);
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT SUM(v) FROM R",
                                  PrecisionSpec{0.0, 200.0, 0.95})
          .value();
  IndependentEstimator no_oracle(spec, data.db.get(), &sampler, nullptr,
                                 nullptr, Rng(14));
  EXPECT_EQ(no_oracle.Evaluate(0).status().code(),
            StatusCode::kFailedPrecondition);

  ExactSizeOracle oracle(data.db.get());
  IndependentEstimator with_oracle(spec, data.db.get(), &sampler, &oracle,
                                   nullptr, Rng(14));
  Result<SnapshotEstimate> e = with_oracle.Evaluate(0);
  ASSERT_TRUE(e.ok());
  AggregateQuery q = AggregateQuery::Parse("SELECT SUM(v) FROM R").value();
  const double truth = data.db->ExactAggregate(q).value();
  EXPECT_NEAR(e->value, truth, 400.0);  // 2x the epsilon budget.
}

TEST(IndependentEstimatorTest, CountIsExactViaOracle) {
  Ar1Database data(4, 25, 50.0, 10.0, 0.8, 15);
  ExactTupleSampler sampler(data.db.get(), Rng(16), nullptr);
  ExactSizeOracle oracle(data.db.get());
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT COUNT(*) FROM R",
                                  PrecisionSpec{0.0, 1.0, 0.95})
          .value();
  IndependentEstimator est(spec, data.db.get(), &sampler, &oracle, nullptr,
                           Rng(17));
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->value, 100.0);
}

TEST(IndependentEstimatorTest, InvalidSpecRejected) {
  Ar1Database data(4, 25, 50.0, 10.0, 0.8, 18);
  ExactTupleSampler sampler(data.db.get(), Rng(19), nullptr);
  ContinuousQuerySpec spec = AvgSpec(0.0, 1.0, 0.95);
  spec.precision.epsilon = -1.0;
  IndependentEstimator est(spec, data.db.get(), &sampler, nullptr, nullptr,
                           Rng(20));
  EXPECT_FALSE(est.Evaluate(0).ok());
}

TEST(RepeatedSamplingTest, FirstOccasionMatchesIndependent) {
  Ar1Database data(8, 100, 50.0, 10.0, 0.8, 21);
  ExactTupleSampler sampler(data.db.get(), Rng(22), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(23));
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->retained_samples, 0u);
  EXPECT_GT(e->fresh_samples, 100u);
}

TEST(RepeatedSamplingTest, LaterOccasionsRetainSamples) {
  Ar1Database data(8, 200, 50.0, 10.0, 0.9, 24);
  ExactTupleSampler sampler(data.db.get(), Rng(25), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(26));
  ASSERT_TRUE(est.Evaluate(0).ok());
  data.Advance();
  Result<SnapshotEstimate> e2 = est.Evaluate(0);
  ASSERT_TRUE(e2.ok());
  EXPECT_GT(e2->retained_samples, 0u);
  EXPECT_GT(e2->fresh_samples, 0u);
  EXPECT_EQ(e2->total_samples, e2->retained_samples + e2->fresh_samples);
}

TEST(RepeatedSamplingTest, LearnsHighPooledCorrelation) {
  // Pooled across tuples, values are dominated by stable per-tuple bases:
  // correlation should be high (like the TEMPERATURE dataset).
  Ar1Database data(8, 300, 50.0, 10.0, 0.7, 27);
  ExactTupleSampler sampler(data.db.get(), Rng(28), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(29));
  for (int occasion = 0; occasion < 6; ++occasion) {
    ASSERT_TRUE(est.Evaluate(0).ok());
    data.Advance();
  }
  EXPECT_GT(est.correlation_estimate(), 0.5);
  EXPECT_LE(est.correlation_estimate(), 1.0);
}

TEST(RepeatedSamplingTest, FewerSamplesThanIndependentUnderCorrelation) {
  // The headline property (Fig. 4-b): with correlated occasions RPT needs
  // fewer total samples per snapshot than INDEP at equal confidence.
  Ar1Database data(8, 400, 50.0, 10.0, 0.9, 30);
  ExactTupleSampler sampler(data.db.get(), Rng(31), nullptr);
  ContinuousQuerySpec spec = AvgSpec(0.0, 1.0, 0.95);

  RepeatedSamplingEstimator rpt(spec, data.db.get(), &sampler, nullptr,
                                nullptr, Rng(32));
  IndependentEstimator indep(spec, data.db.get(), &sampler, nullptr, nullptr,
                             Rng(33));
  size_t rpt_samples = 0, indep_samples = 0;
  const int occasions = 8;
  for (int k = 0; k < occasions; ++k) {
    Result<SnapshotEstimate> er = rpt.Evaluate(0);
    Result<SnapshotEstimate> ei = indep.Evaluate(0);
    ASSERT_TRUE(er.ok());
    ASSERT_TRUE(ei.ok());
    if (k > 0) {  // Skip the identical bootstrap occasion.
      rpt_samples += er->total_samples;
      indep_samples += ei->total_samples;
    }
    data.Advance();
  }
  EXPECT_LT(rpt_samples, indep_samples);
  // Theory bound: improvement cannot exceed 2x (Eq. 11).
  EXPECT_GT(2 * rpt_samples, indep_samples);
}

// Counts DrawFresh calls: an RPT occasion makes one for its initial
// fresh draw and one per top-up round.
class CountingSource : public SampleSource {
 public:
  explicit CountingSource(SampleSource* inner) : inner_(inner) {}
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override {
    ++calls_;
    return inner_->DrawFresh(origin, n);
  }
  size_t TakeCalls() {
    const size_t calls = calls_;
    calls_ = 0;
    return calls;
  }

 private:
  SampleSource* inner_;
  size_t calls_ = 0;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(RepeatedSamplingTest, TopUpRoundsKeepTheRecordedEstimate) {
  // The top-up loop fits the retained regression once per occasion and
  // folds each fresh value into the pooled statistics once. The bits
  // below were recorded from the loop that recomputed all of it every
  // round; the first occasion here with >= 3 top-up rounds (occasion 6,
  // 4 rounds) must reproduce them exactly.
  Ar1Database data(8, 100, 50.0, 10.0, 0.3, 72);
  ExactTupleSampler sampler(data.db.get(), Rng(73), nullptr);
  CountingSource source(&sampler);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &source, nullptr, nullptr, Rng(74));
  int occasion = 0;
  size_t calls = 0;
  Result<SnapshotEstimate> e = Status::Internal("no occasion ran");
  for (; occasion < 20; ++occasion) {
    e = est.Evaluate(0);
    ASSERT_TRUE(e.ok()) << occasion;
    calls = source.TakeCalls();
    if (occasion > 0 && calls >= 4) break;
    data.Advance();
  }
  EXPECT_EQ(occasion, 6);
  EXPECT_EQ(calls, 5u);  // The initial fresh draw and 4 top-ups.
  EXPECT_EQ(Bits(e->value), 0x40485709a22df845u);
  EXPECT_EQ(Bits(e->ci_halfwidth), 0x3feffd6d35d055f9u);
  EXPECT_EQ(Bits(est.correlation_estimate()), 0x3fe428a75c94423bu);
  EXPECT_EQ(e->retained_samples, 287u);
  EXPECT_EQ(e->fresh_samples, 416u);
}

// An occasion whose retained pairs admit no regression, because the
// refreshed pairs' previous values (y1) or current values (y2) are all
// equal, reports the plain mean of every contributing sample: the
// Welford pass over the refreshed values, then the fresh ones.
void ExpectPlainMeanOccasion(bool constant_y1) {
  Ar1Database data(8, 100, 50.0, 10.0, 0.9, 80);
  ExactTupleSampler sampler(data.db.get(), Rng(81), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(82));
  // A pool of 40 tuples from node 0, as if one occasion had run.
  EstimatorState state = est.SaveState();
  RetainedState& retained = state.retained;
  const LocalStore* store = data.db->FindStore(0);
  store->ForEach([&](LocalTupleId id, const Tuple& tuple) {
    if (retained.retained_refs.size() == 40) return;
    retained.retained_refs.push_back(TupleRef{0, id});
    retained.retained_ys.push_back(constant_y1 ? 50.0 : tuple[0] - 1.0);
  });
  if (!constant_y1) {
    for (const TupleRef& ref : retained.retained_refs) {
      ASSERT_TRUE(data.db->StoreAt(0).value()
                      ->UpdateAttribute(ref.local, 0, 47.5)
                      .ok());
    }
  }
  retained.prev_mean_estimate = 50.0;
  retained.prev_variance = 0.2;
  retained.rho_hat = 0.9;
  retained.sigma_hat = 10.0;
  retained.occasion = 1;
  est.RestoreState(state);

  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok()) << e.status();
  ASSERT_GE(e->retained_samples, 3u);
  ASSERT_GT(e->fresh_samples, 0u);
  const RetainedState after = est.SaveState().retained;
  ASSERT_EQ(after.retained_ys.size(), e->contributing_samples);
  RunningStats all;
  for (double y : after.retained_ys) all.Add(y);
  EXPECT_EQ(Bits(e->mean_estimate), Bits(all.Mean()));
  EXPECT_EQ(Bits(e->variance_of_mean),
            Bits(all.SampleVariance() / static_cast<double>(all.count())));
  EXPECT_EQ(Bits(e->sigma), Bits(all.SampleStdDev()));
  // No correlation was measured, so the running ρ̂ holds.
  EXPECT_EQ(Bits(est.correlation_estimate()), Bits(0.9));
}

TEST(RepeatedSamplingTest, ConstantRefreshedPreviousValuesFallBackToMean) {
  ExpectPlainMeanOccasion(/*constant_y1=*/true);
}

TEST(RepeatedSamplingTest, ConstantRefreshedCurrentValuesFallBackToMean) {
  ExpectPlainMeanOccasion(/*constant_y1=*/false);
}

TEST(RepeatedSamplingTest, StaysAccurateAcrossOccasions) {
  Ar1Database data(8, 300, 50.0, 10.0, 0.85, 34);
  ExactTupleSampler sampler(data.db.get(), Rng(35), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(36));
  int within = 0;
  const int occasions = 20;
  for (int k = 0; k < occasions; ++k) {
    Result<SnapshotEstimate> e = est.Evaluate(0);
    ASSERT_TRUE(e.ok());
    if (std::fabs(e->value - data.TrueAvg()) <= 1.0) ++within;
    data.Advance();
  }
  EXPECT_GE(within, occasions * 4 / 5);
}

TEST(RepeatedSamplingTest, RefreshMessagesChargedForRetainedSamples) {
  Ar1Database data(8, 200, 50.0, 10.0, 0.9, 37);
  ExactTupleSampler sampler(data.db.get(), Rng(38), nullptr);
  MessageMeter meter;
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, &meter, Rng(39));
  ASSERT_TRUE(est.Evaluate(0).ok());
  EXPECT_EQ(meter.refreshes(), 0u);
  data.Advance();
  Result<SnapshotEstimate> e2 = est.Evaluate(0);
  ASSERT_TRUE(e2.ok());
  EXPECT_GE(meter.refreshes(), e2->retained_samples);
}

TEST(RepeatedSamplingTest, DeletedTuplesAreReplaced) {
  Ar1Database data(8, 100, 50.0, 10.0, 0.9, 40);
  ExactTupleSampler sampler(data.db.get(), Rng(41), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.5, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(42));
  ASSERT_TRUE(est.Evaluate(0).ok());
  // Wipe two whole nodes: their retained samples dangle.
  ASSERT_TRUE(data.db->RemoveNode(0).ok());
  ASSERT_TRUE(data.db->RemoveNode(1).ok());
  Result<SnapshotEstimate> e2 = est.Evaluate(2);
  ASSERT_TRUE(e2.ok()) << e2.status();
  EXPECT_GT(e2->fresh_samples, 0u);
}

TEST(RepeatedSamplingTest, ResetForgetsOccasions) {
  Ar1Database data(8, 150, 50.0, 10.0, 0.9, 43);
  ExactTupleSampler sampler(data.db.get(), Rng(44), nullptr);
  RepeatedSamplingEstimator est(AvgSpec(0.0, 1.0, 0.95), data.db.get(),
                                &sampler, nullptr, nullptr, Rng(45));
  ASSERT_TRUE(est.Evaluate(0).ok());
  data.Advance();
  est.Reset();
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->retained_samples, 0u);  // Back to the bootstrap occasion.
}

}  // namespace
}  // namespace digest
