#include "workload/timescale.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/snapshot_estimator.h"
#include "numeric/stats.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace {

struct Fixture {
  std::unique_ptr<TemperatureWorkload> workload;
  std::unique_ptr<ExactTupleSampler> sampler;

  Fixture() {
    TemperatureConfig config;
    config.num_units = 400;
    config.num_nodes = 25;
    workload = TemperatureWorkload::Create(config).value();
    sampler = std::make_unique<ExactTupleSampler>(&workload->db(), Rng(1),
                                                  nullptr);
  }
};

// Hands out at most `budget` more samples, then cuts every batch: the
// shape of a hop-budgeted sampler under faults.
struct CuttingSource : SampleSource {
  CuttingSource(SampleSource* inner, size_t budget)
      : inner(inner), budget(budget) {}
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override {
    const size_t granted = std::min(n, budget);
    DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch batch,
                            inner->DrawFresh(origin, granted));
    budget -= granted;
    batch.timed_out = granted < n;
    return batch;
  }

  SampleSource* inner;
  size_t budget;
};

TEST(InterleavingSourceTest, LargeQuotaNeverAdvances) {
  Fixture f;
  InterleavingSampleSource source(f.sampler.get(), f.workload.get(),
                                  1 << 20);
  Result<PartialTupleBatch> batch = source.DrawFresh(0, 200);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->samples.size(), 200u);
  EXPECT_EQ(source.mid_occasion_advances(), 0u);
  EXPECT_EQ(f.workload->now(), 0);
}

TEST(InterleavingSourceTest, AdvancesEveryKDraws) {
  Fixture f;
  InterleavingSampleSource source(f.sampler.get(), f.workload.get(), 10);
  ASSERT_TRUE(source.DrawFresh(0, 35).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 3u);
  EXPECT_EQ(f.workload->now(), 3);
  // The quota carries across calls: 5 pending + 5 more = one advance.
  ASSERT_TRUE(source.DrawFresh(0, 5).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 4u);
}

TEST(InterleavingSourceTest, ZeroQuotaBehavesAsOne) {
  Fixture f;
  InterleavingSampleSource source(f.sampler.get(), f.workload.get(), 0);
  ASSERT_TRUE(source.DrawFresh(0, 7).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 7u);
}

TEST(InterleavingSourceTest, InnerCutComesBackWithItsCopies) {
  // The inner source cuts after 5 of 12 samples: the call ends there
  // with the 5 copies, and their draws count toward the quota of 2.
  Fixture f;
  CuttingSource inner(f.sampler.get(), /*budget=*/5);
  InterleavingSampleSource source(&inner, f.workload.get(), 2);
  Result<PartialTupleBatch> batch = source.DrawFresh(0, 12);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->timed_out);
  ASSERT_EQ(batch->samples.size(), 5u);
  for (const TupleSample& s : batch->samples) {
    ASSERT_NE(s.tuple, nullptr);
    // A copy owned by the source, not a borrow of the stored tuple.
    EXPECT_NE(s.tuple, f.workload->db().FindTuple(s.ref));
  }
  EXPECT_EQ(source.mid_occasion_advances(), 2u);
  EXPECT_EQ(f.workload->now(), 2);
  // The fifth draw is pending: one more completes the quota.
  inner.budget = 1;
  Result<PartialTupleBatch> next = source.DrawFresh(0, 1);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->timed_out);
  EXPECT_EQ(source.mid_occasion_advances(), 3u);
}

TEST(InterleavingSourceTest, ReturnedTuplesOutliveChurnMidCall) {
  // MEMORY with churn: every draw advances the world, and departing
  // peers drop their stores (and the tuples an earlier draw picked)
  // before DrawFresh returns. The returned samples must still read
  // their draw-time tuples; a dangling borrow is a use-after-free that
  // ASan reports.
  MemoryConfig config;
  config.num_units = 200;
  config.num_nodes = 40;
  config.join_rate = 2.0;
  config.leave_rate = 2.0;
  auto workload = MemoryWorkload::Create(config).value();
  ExactTupleSampler sampler(&workload->db(), Rng(3), nullptr);
  InterleavingSampleSource source(&sampler, workload.get(),
                                  /*draws_per_advance=*/1);
  Result<PartialTupleBatch> batch = source.DrawFresh(0, 80);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->samples.size(), 80u);
  EXPECT_EQ(source.mid_occasion_advances(), 80u);
  size_t departed = 0;
  for (const TupleSample& s : batch->samples) {
    ASSERT_NE(s.tuple, nullptr);
    ASSERT_EQ(s.tuple->size(), 1u);
    EXPECT_GE((*s.tuple)[0], 0.0);  // Free memory, clamped to [0, cap].
    if (!workload->db().HasNode(s.ref.node)) ++departed;
  }
  EXPECT_GT(departed, 0u);
}

TEST(InterleavingSourceTest, FastChangeDegradesSnapshotAccuracy) {
  // The §VIII #3 effect: with the workload frozen during the occasion,
  // the estimate matches the end oracle tightly; advancing every few
  // draws smears it. Compare mean absolute error over trials.
  auto run = [&](size_t k) {
    RunningStats err;
    for (int trial = 0; trial < 12; ++trial) {
      TemperatureConfig config;
      config.num_units = 400;
      config.num_nodes = 25;
      config.seed = 77 + trial;
      auto workload = TemperatureWorkload::Create(config).value();
      for (int t = 0; t < 3; ++t) EXPECT_TRUE(workload->Advance().ok());
      ExactTupleSampler sampler(&workload->db(), Rng(10 + trial), nullptr);
      InterleavingSampleSource source(&sampler, workload.get(), k);
      ContinuousQuerySpec spec =
          ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                      PrecisionSpec{1.0, 0.5, 0.95})
              .value();
      IndependentEstimator est(spec, &workload->db(), &source, nullptr,
                               nullptr, Rng(100 + trial));
      Result<SnapshotEstimate> e = est.Evaluate(0);
      EXPECT_TRUE(e.ok());
      if (!e.ok()) continue;
      AggregateQuery q = spec.query;
      const double oracle = workload->db().ExactAggregate(q).value();
      err.Add(std::fabs(e->value - oracle));
    }
    return err.Mean();
  };
  const double err_static = run(1 << 20);
  const double err_fast = run(2);
  EXPECT_LT(err_static, err_fast);
}

}  // namespace
}  // namespace digest
