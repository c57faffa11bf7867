#include "core/sampling_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/snapshot_estimator.h"
#include "net/topology.h"

namespace digest {
namespace {

TEST(CltSampleSizeTest, MatchesEq6) {
  // n = (z σ / ε)²: z=1.96, σ=8, ε=2 → 61.4 → 62.
  Result<size_t> n = CltSampleSize(8.0, 2.0, 1.96);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 62u);
  EXPECT_EQ(CltSampleSize(0.0, 1.0, 1.96).value(), 1u);
}

TEST(CltSampleSizeTest, ScalesQuadratically) {
  const size_t base = CltSampleSize(10.0, 1.0, 2.0).value();
  EXPECT_EQ(CltSampleSize(20.0, 1.0, 2.0).value(), 4 * base);
  EXPECT_EQ(CltSampleSize(10.0, 0.5, 2.0).value(), 4 * base);
}

TEST(CltSampleSizeTest, RejectsBadInputs) {
  EXPECT_FALSE(CltSampleSize(-1.0, 1.0, 2.0).ok());
  EXPECT_FALSE(CltSampleSize(1.0, 0.0, 2.0).ok());
  EXPECT_FALSE(CltSampleSize(1.0, 1.0, 0.0).ok());
}

TEST(HoeffdingSampleSizeTest, KnownValue) {
  // n = ln(2/0.05) · 100² / (2·2²) = 3.689·10000/8 ≈ 4611.4 → 4612.
  Result<size_t> n = HoeffdingSampleSize(100.0, 2.0, 0.95);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4612u);
}

TEST(HoeffdingSampleSizeTest, MoreConservativeThanCltForGaussianData) {
  // For σ=8 data confined to ±4σ (range 64), Hoeffding demands far more
  // samples than the CLT size at the same (ε, p).
  const size_t clt = CltSampleSize(8.0, 2.0, 1.96).value();
  const size_t hoeffding = HoeffdingSampleSize(64.0, 2.0, 0.95).value();
  EXPECT_GT(hoeffding, 10 * clt);
}

TEST(HoeffdingSampleSizeTest, RejectsBadInputs) {
  EXPECT_FALSE(HoeffdingSampleSize(0.0, 1.0, 0.95).ok());
  EXPECT_FALSE(HoeffdingSampleSize(1.0, 0.0, 0.95).ok());
  EXPECT_FALSE(HoeffdingSampleSize(1.0, 1.0, 0.0).ok());
  EXPECT_FALSE(HoeffdingSampleSize(1.0, 1.0, 1.0).ok());
}

TEST(PlanTest, ZeroCorrelationIsIndependentSampling) {
  // ρ = 0: total = CLT size, half retained half fresh... no — Eq. 9 at
  // ρ=0: r=1, g = n/2, f = n/2, and total = σ²·2·z²/(2ε²) = CLT size.
  RepeatedSamplingPlan plan =
      PlanRepeatedOccasion(8.0, 0.0, 2.0, 1.96).value();
  EXPECT_EQ(plan.total, CltSampleSize(8.0, 2.0, 1.96).value());
  EXPECT_NEAR(static_cast<double>(plan.retained),
              static_cast<double>(plan.total) / 2.0, 1.0);
  EXPECT_EQ(plan.retained + plan.fresh, plan.total);
}

TEST(PlanTest, HighCorrelationShrinksTotalAndRetention) {
  RepeatedSamplingPlan low = PlanRepeatedOccasion(8.0, 0.3, 2.0, 1.96).value();
  RepeatedSamplingPlan high =
      PlanRepeatedOccasion(8.0, 0.95, 2.0, 1.96).value();
  // Higher ρ → smaller total (Eq. 10) ...
  EXPECT_LT(high.total, low.total);
  // ... and a smaller *retained fraction* (corrected Eq. 9: g/n = r/(1+r)
  // falls as ρ rises — the regression estimate saturates at ρ²·var(prev),
  // so marginal samples are better spent fresh).
  const double low_frac =
      static_cast<double>(low.retained) / static_cast<double>(low.total);
  const double high_frac =
      static_cast<double>(high.retained) / static_cast<double>(high.total);
  EXPECT_LT(high_frac, low_frac);
}

TEST(PlanTest, PlanAchievesEq10Variance) {
  // Plugging the plan into Eq. 8 must reproduce var_min of Eq. 10.
  for (double rho : {0.3, 0.68, 0.89, 0.95}) {
    RepeatedSamplingPlan plan =
        PlanRepeatedOccasion(1.0, rho, 0.05, 1.96).value();
    const double var =
        CombinedVarianceFactor(plan.total, plan.fresh, rho).value();
    const double root = std::sqrt(1.0 - rho * rho);
    const double var_min =
        (1.0 + root) / (2.0 * static_cast<double>(plan.total));
    EXPECT_NEAR(var, var_min, 0.02 * var_min) << "rho=" << rho;
  }
}

TEST(PlanTest, Eq8ExtremesEqualIndependentVariance) {
  // g = 0 (all fresh): var = σ²/n exactly. g ≈ n (f → 1): also ~σ²/n.
  const size_t n = 200;
  EXPECT_NEAR(CombinedVarianceFactor(n, n, 0.9).value(), 1.0 / n,
              1e-12);  // f = n means g = 0.
  EXPECT_NEAR(CombinedVarianceFactor(n, 1, 0.9).value(), 1.0 / n,
              0.01 / n);  // Nearly all retained.
}

TEST(PlanTest, OptimumBeatsOtherPartitions) {
  const double rho = 0.89;
  RepeatedSamplingPlan plan =
      PlanRepeatedOccasion(1.0, rho, 0.05, 1.96).value();
  const double at_opt =
      CombinedVarianceFactor(plan.total, plan.fresh, rho).value();
  for (size_t f = 1; f <= plan.total; f += plan.total / 10) {
    EXPECT_LE(at_opt,
              CombinedVarianceFactor(plan.total, f, rho).value() + 1e-12);
  }
}

TEST(PlanTest, ImprovementRatioMatchesEq11) {
  EXPECT_NEAR(OptimalImprovementRatio(0.0), 1.0, 1e-12);
  EXPECT_NEAR(OptimalImprovementRatio(1.0), 2.0, 1e-12);
  EXPECT_NEAR(OptimalImprovementRatio(0.89),
              2.0 / (1.0 + std::sqrt(1.0 - 0.89 * 0.89)), 1e-12);
}

TEST(CltSampleSizeTest, SaturatesPastTheSizeRange) {
  // (1.96 * 10 / 1e-9)^2 ~ 3.8e20 > 2^64: the cast alone would wrap.
  EXPECT_EQ(CltSampleSize(10.0, 1e-9, 1.96).value(), SIZE_MAX);
}

TEST(HoeffdingSampleSizeTest, SaturatesPastTheSizeRange) {
  EXPECT_EQ(HoeffdingSampleSize(150.0, 1e-8, 0.95).value(), SIZE_MAX);
}

TEST(PlanTest, TotalSaturatesPastTheSizeRange) {
  const RepeatedSamplingPlan plan =
      PlanRepeatedOccasion(10.0, 0.9, 1e-9, 1.96).value();
  EXPECT_EQ(plan.total, SIZE_MAX);
  EXPECT_GT(plan.retained, 0u);
  EXPECT_EQ(plan.retained + plan.fresh, plan.total);
}

TEST(PlanTest, Validation) {
  EXPECT_FALSE(PlanRepeatedOccasion(-1.0, 0.5, 1.0, 2.0).ok());
  EXPECT_FALSE(PlanRepeatedOccasion(1.0, 0.5, 0.0, 2.0).ok());
  EXPECT_FALSE(CombinedVarianceFactor(10, 0, 0.5).ok());
  EXPECT_FALSE(CombinedVarianceFactor(10, 11, 0.5).ok());
  EXPECT_FALSE(CombinedVarianceFactor(10, 5, 1.5).ok());
}

TEST(HoeffdingEstimatorTest, PolicyDrawsTheHoeffdingSize) {
  Graph graph = MakeComplete(6).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data(1);
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    for (int i = 0; i < 100; ++i) {
      // Bounded support [0, 20].
      db.StoreAt(node).value()->Insert({data.NextDouble() * 20.0});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{0.0, 1.0, 0.95})
          .value();
  ExactTupleSampler sampler(&db, Rng(2), nullptr);
  EstimatorOptions options;
  options.sample_size_policy = SampleSizePolicy::kHoeffding;
  options.value_range = 20.0;
  IndependentEstimator est(spec, &db, &sampler, nullptr, nullptr, Rng(3),
                           options);
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok()) << e.status();
  const size_t expected = HoeffdingSampleSize(20.0, 1.0, 0.95).value();
  EXPECT_EQ(e->total_samples, expected);
  EXPECT_NEAR(e->value, 10.0, 1.0);

  // The repeated estimator rejects the policy explicitly.
  RepeatedSamplingEstimator rpt(spec, &db, &sampler, nullptr, nullptr,
                                Rng(4), options);
  EXPECT_EQ(rpt.Evaluate(0).status().code(), StatusCode::kInvalidArgument);

  // Missing range fails cleanly.
  EstimatorOptions no_range = options;
  no_range.value_range = 0.0;
  IndependentEstimator bad(spec, &db, &sampler, nullptr, nullptr, Rng(5),
                           no_range);
  EXPECT_FALSE(bad.Evaluate(0).ok());
}

TEST(CltEstimatorTest, SizesPastTheSizeRangeDrawTheCapNotThePilot) {
  // AVG at ε = 1e-9 needs ~1e20 samples; the occasion must draw the
  // max_samples cap, not fall back to the 30-sample pilot.
  Graph graph = MakeComplete(6).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data(1);
  for (NodeId node : graph.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    for (int i = 0; i < 100; ++i) {
      db.StoreAt(node).value()->Insert({data.NextDouble() * 20.0});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{0.0, 1e-9, 0.95})
          .value();
  ExactTupleSampler sampler(&db, Rng(2), nullptr);
  EstimatorOptions options;
  options.max_samples = 500;
  IndependentEstimator est(spec, &db, &sampler, nullptr, nullptr, Rng(3),
                           options);
  Result<SnapshotEstimate> e = est.Evaluate(0);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(e->total_samples, 500u);
}

}  // namespace
}  // namespace digest
