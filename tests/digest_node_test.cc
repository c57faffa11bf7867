#include "core/digest_node.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/topology.h"

namespace digest {
namespace {

struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;

  Fixture() {
    Rng topo(1);
    graph = MakeBarabasiAlbert(30, 3, topo).value();
    db = std::make_unique<P2PDatabase>(
        Schema::Create({"cpu", "memory"}).value());
    Rng data(2);
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (int i = 0; i < 20; ++i) {
        db->StoreAt(node).value()->Insert(
            {data.NextGaussian(4.0, 1.0), data.NextGaussian(16.0, 4.0)});
      }
    }
  }
};

ContinuousQuerySpec Spec(const char* text, double eps) {
  return ContinuousQuerySpec::Create(text, PrecisionSpec{0.5, eps, 0.95})
      .value();
}

DigestEngineOptions FastOptions() {
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 40;
  options.sampling_options.reset_length = 10;
  return options;
}

TEST(DigestNodeTest, CreateValidatesNode) {
  Fixture f;
  EXPECT_FALSE(
      DigestNode::Create(&f.graph, f.db.get(), 999, Rng(3), nullptr).ok());
  EXPECT_TRUE(
      DigestNode::Create(&f.graph, f.db.get(), 0, Rng(3), nullptr).ok());
  // The shared operator's hop-budget factor is checked at Create: NaN
  // and negative factors would reach an undefined cast, and one below
  // 1 cuts every faulted batch.
  for (double factor : {std::nan(""), -1.0, 0.5}) {
    DigestEngineOptions options = FastOptions();
    options.sampling_options.retry.hop_budget_factor = factor;
    EXPECT_EQ(DigestNode::Create(&f.graph, f.db.get(), 0, Rng(3), nullptr,
                                 options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << factor;
  }
}

TEST(DigestNodeTest, MultipleConcurrentQueries) {
  Fixture f;
  MessageMeter meter;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(4), &meter,
                                 FastOptions())
                  .value();
  const QueryId cpu_query =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).value();
  const QueryId mem_query =
      node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0)).value();
  EXPECT_EQ(node->active_queries(), 2u);
  EXPECT_NE(cpu_query, mem_query);

  auto results = node->Tick(1).value();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& [id, tick] : results) {
    EXPECT_TRUE(tick.snapshot_executed) << "query " << id;
  }
  EXPECT_NEAR(node->engine(cpu_query).value()->reported_value(), 4.0, 0.7);
  EXPECT_NEAR(node->engine(mem_query).value()->reported_value(), 16.0,
              1.5);
}

TEST(DigestNodeTest, SharedOperatorMakesSecondQueryCheaper) {
  // Warm agents are shared: a second query's first occasion should cost
  // clearly less than the first query's first occasion.
  Fixture f;
  MessageMeter meter;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(5), &meter,
                                 FastOptions())
                  .value();
  const QueryId q1 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).value();
  ASSERT_TRUE(node->Tick(1).ok());
  const uint64_t after_first = meter.Total();
  const size_t q1_samples =
      node->engine(q1).value()->stats().total_samples;

  const QueryId q2 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).value();
  ASSERT_TRUE(node->CancelQuery(q1).ok());
  ASSERT_TRUE(node->Tick(2).ok());
  const uint64_t second_cost = meter.Total() - after_first;
  const size_t q2_samples =
      node->engine(q2).value()->stats().total_samples;
  // Similar sample counts, but the second run walks only reset lengths.
  EXPECT_NEAR(static_cast<double>(q2_samples),
              static_cast<double>(q1_samples),
              0.5 * static_cast<double>(q1_samples));
  EXPECT_LT(second_cost, after_first / 2);
}

TEST(DigestNodeTest, CancelQuery) {
  Fixture f;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(6), nullptr,
                                 FastOptions())
                  .value();
  const QueryId id =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).value();
  EXPECT_TRUE(node->CancelQuery(id).ok());
  EXPECT_EQ(node->active_queries(), 0u);
  EXPECT_EQ(node->CancelQuery(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(node->engine(id).status().code(), StatusCode::kNotFound);
  // Ticking with no queries is a no-op.
  EXPECT_TRUE(node->Tick(1).ok());
  EXPECT_TRUE(node->Tick(2).value().empty());
}

TEST(DigestNodeTest, MismatchedSamplerRejected) {
  Fixture f;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(7), nullptr,
                                 FastOptions())
                  .value();
  DigestEngineOptions exact = FastOptions();
  exact.sampler = SamplerKind::kExactCentral;
  EXPECT_EQ(node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0), exact)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DigestNodeTest, PerQueryOptionsRespected) {
  Fixture f;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(8), nullptr,
                                 FastOptions())
                  .value();
  DigestEngineOptions rpt = FastOptions();
  rpt.estimator = EstimatorKind::kRepeated;
  const QueryId id =
      node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0), rpt)
          .value();
  ASSERT_TRUE(node->Tick(1).ok());
  ASSERT_TRUE(node->Tick(2).ok());
  EXPECT_GT(node->engine(id).value()->stats().retained_samples, 0u);
}

}  // namespace
}  // namespace digest
