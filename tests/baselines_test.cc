#include "baselines/olston_filter.h"
#include "baselines/push_all.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/topology.h"

namespace digest {
namespace {

struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;
  std::vector<TupleRef> refs;
  Rng rng{99};

  explicit Fixture(size_t n = 9) {
    graph = MakeMesh(3, n / 3).value();
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (int i = 0; i < 4; ++i) {
        const LocalTupleId id = db->StoreAt(node).value()->Insert(
            {rng.NextGaussian(50.0, 5.0)});
        refs.push_back(TupleRef{node, id});
      }
    }
  }

  void Perturb(double scale) {
    for (const TupleRef& ref : refs) {
      if (!db->HasNode(ref.node)) continue;
      const double v = db->GetTuple(ref).value()[0];
      EXPECT_TRUE(db->StoreAt(ref.node)
                      .value()
                      ->UpdateAttribute(ref.local, 0,
                                        v + rng.NextGaussian(0.0, scale))
                      .ok());
    }
  }

  double TrueAvg() const {
    AggregateQuery q = AggregateQuery::Parse("SELECT AVG(v) FROM R").value();
    return db->ExactAggregate(q).value();
  }
};

AggregateQuery AvgQuery() {
  return AggregateQuery::Parse("SELECT AVG(v) FROM R").value();
}

TEST(PushAllTest, ReturnsExactValue) {
  Fixture f;
  PushAllBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, nullptr);
  Result<double> v = baseline.Tick();
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, f.TrueAvg());
  f.Perturb(2.0);
  EXPECT_DOUBLE_EQ(baseline.Tick().value(), f.TrueAvg());
  EXPECT_EQ(baseline.ticks(), 2u);
}

TEST(PushAllTest, ChargesTuplesTimesHops) {
  Fixture f;
  MessageMeter meter;
  PushAllBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, &meter);
  ASSERT_TRUE(baseline.Tick().ok());
  // Expected: sum over nodes of m_v * BFS distance from node 0.
  std::vector<int> dist = f.graph.BfsDistances(0).value();
  uint64_t expected = 0;
  for (NodeId node : f.db->Nodes()) {
    expected += static_cast<uint64_t>(dist[node]) * f.db->ContentSize(node);
  }
  EXPECT_EQ(meter.pushes(), expected);
  EXPECT_GT(meter.pushes(), 0u);
  // Cost repeats every tick.
  ASSERT_TRUE(baseline.Tick().ok());
  EXPECT_EQ(meter.pushes(), 2 * expected);
}

TEST(OlstonFilterTest, FirstTickRegistersAllSources) {
  Fixture f;
  MessageMeter meter;
  OlstonFilterBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, 1.0,
                                &meter);
  Result<double> v = baseline.Tick();
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, f.TrueAvg());  // All sources just reported.
  EXPECT_EQ(baseline.pushed_updates(), f.db->TotalTuples());
}

TEST(OlstonFilterTest, QuietDataPushesNothingAfterRegistration) {
  Fixture f;
  MessageMeter meter;
  OlstonFilterBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, 1.0,
                                &meter);
  ASSERT_TRUE(baseline.Tick().ok());
  const uint64_t after_registration = baseline.pushed_updates();
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(baseline.Tick().ok());  // No data changes.
  }
  EXPECT_EQ(baseline.pushed_updates(), after_registration);
}

TEST(OlstonFilterTest, ErrorStaysNearEpsilon) {
  Fixture f;
  const double epsilon = 1.0;
  OlstonFilterBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0,
                                epsilon, nullptr);
  double worst = 0.0;
  for (int t = 0; t < 40; ++t) {
    f.Perturb(0.5);
    Result<double> v = baseline.Tick();
    ASSERT_TRUE(v.ok());
    worst = std::max(worst, std::fabs(*v - f.TrueAvg()));
  }
  // Per-source filters of width 2ε bound the AVG error by ε.
  EXPECT_LE(worst, epsilon + 1e-9);
}

TEST(OlstonFilterTest, CheaperThanPushAllOnSlowData) {
  Fixture filter_fixture;
  Fixture push_fixture;
  MessageMeter filter_meter, push_meter;
  OlstonFilterBaseline filter(&filter_fixture.graph, filter_fixture.db.get(),
                              AvgQuery(), 0, 2.0, &filter_meter);
  PushAllBaseline push(&push_fixture.graph, push_fixture.db.get(),
                       AvgQuery(), 0, &push_meter);
  for (int t = 0; t < 30; ++t) {
    filter_fixture.Perturb(0.1);
    push_fixture.Perturb(0.1);
    ASSERT_TRUE(filter.Tick().ok());
    ASSERT_TRUE(push.Tick().ok());
  }
  EXPECT_LT(filter_meter.Total(), push_meter.Total() / 3);
}

TEST(OlstonFilterTest, VolatileSourcesEarnWiderFilters) {
  // One source far noisier than the rest: after adaptation it should
  // hold a wider filter than a quiet source.
  Fixture f;
  OlstonFilterBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, 1.0,
                                nullptr);
  const TupleRef noisy = f.refs.front();
  Rng rng(7);
  uint64_t before = 0;
  for (int t = 0; t < 40; ++t) {
    // Only the noisy source moves.
    const double v = f.db->GetTuple(noisy).value()[0];
    ASSERT_TRUE(f.db->StoreAt(noisy.node)
                    .value()
                    ->UpdateAttribute(noisy.local, 0,
                                      v + rng.NextGaussian(0.0, 5.0))
                    .ok());
    ASSERT_TRUE(baseline.Tick().ok());
    if (t == 20) before = baseline.pushed_updates();
  }
  // Adaptation should slow the noisy source's push rate over time:
  // second half pushes fewer updates than first half.
  const uint64_t second_half = baseline.pushed_updates() - before;
  EXPECT_LE(second_half, before);
}

TEST(OlstonFilterTest, RejectsNonAvgAndBadEpsilon) {
  Fixture f;
  AggregateQuery sum = AggregateQuery::Parse("SELECT SUM(v) FROM R").value();
  OlstonFilterBaseline bad_op(&f.graph, f.db.get(), sum, 0, 1.0, nullptr);
  EXPECT_EQ(bad_op.Tick().status().code(), StatusCode::kInvalidArgument);
  OlstonFilterBaseline bad_eps(&f.graph, f.db.get(), AvgQuery(), 0, 0.0,
                               nullptr);
  EXPECT_FALSE(bad_eps.Tick().ok());
}

TEST(OlstonFilterTest, HandlesInsertionsAndDeletions) {
  Fixture f;
  OlstonFilterBaseline baseline(&f.graph, f.db.get(), AvgQuery(), 0, 1.0,
                                nullptr);
  ASSERT_TRUE(baseline.Tick().ok());
  // Insert a new tuple and delete one.
  f.db->StoreAt(1).value()->Insert({120.0});
  ASSERT_TRUE(
      f.db->StoreAt(f.refs[5].node).value()->Erase(f.refs[5].local).ok());
  Result<double> v = baseline.Tick();
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, f.TrueAvg(), 1.0 + 1e-9);
}

}  // namespace
}  // namespace digest
