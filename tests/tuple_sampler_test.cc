#include "sampling/tuple_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "net/topology.h"

namespace digest {
namespace {

// A small database with deliberately skewed content sizes: node i holds
// i+1 tuples whose single attribute encodes a unique tuple index.
struct Fixture {
  Graph graph;
  std::unique_ptr<P2PDatabase> db;
  size_t total_tuples = 0;

  explicit Fixture(size_t nodes) {
    graph = MakeComplete(nodes).value();
    db = std::make_unique<P2PDatabase>(Schema::Create({"v"}).value());
    double next_value = 0.0;
    for (NodeId node : graph.LiveNodes()) {
      EXPECT_TRUE(db->AddNode(node).ok());
      for (size_t i = 0; i <= node; ++i) {
        db->StoreAt(node).value()->Insert({next_value});
        next_value += 1.0;
        ++total_tuples;
      }
    }
  }
};

TEST(TwoStageSamplerTest, SamplesComeFromTheDatabase) {
  Fixture f(6);
  SamplingOperator op(&f.graph, ContentSizeWeight(*f.db), Rng(1), nullptr);
  TwoStageTupleSampler sampler(f.db.get(), &op, Rng(2));
  Result<PartialTupleBatch> batch = sampler.DrawFresh(0, 40);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->samples.size(), 40u);
  for (const TupleSample& s : batch->samples) {
    Result<Tuple> stored = f.db->GetTuple(s.ref);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, *s.tuple);
  }
}

TEST(TwoStageSamplerTest, EmptyRelationFails) {
  Graph g = MakeComplete(3).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId node : g.LiveNodes()) ASSERT_TRUE(db.AddNode(node).ok());
  SamplingOperator op(&g, ContentSizeWeight(db), Rng(3), nullptr);
  TwoStageTupleSampler sampler(&db, &op, Rng(4));
  EXPECT_EQ(sampler.DrawFresh(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TwoStageSamplerTest, OneStoreHoldingEveryTupleIsNotEmpty) {
  // The emptiness test stops at the first non-empty store: here every
  // store but one is empty, wherever the full one sits in the store map.
  for (NodeId full : {NodeId{0}, NodeId{3}, NodeId{6}}) {
    Graph g = MakeComplete(7).value();
    P2PDatabase db(Schema::Create({"v"}).value());
    for (NodeId node : g.LiveNodes()) ASSERT_TRUE(db.AddNode(node).ok());
    std::vector<LocalTupleId> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(db.StoreAt(full).value()->Insert({static_cast<double>(i)}));
    }
    EXPECT_TRUE(db.HasTuples());
    SamplingOperator op(&g, ContentSizeWeight(db), Rng(8), nullptr);
    TwoStageTupleSampler sampler(&db, &op, Rng(9));
    Result<PartialTupleBatch> batch = sampler.DrawFresh(1, 30);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->samples.size(), 30u);
    for (const TupleSample& s : batch->samples) {
      EXPECT_EQ(s.ref.node, full);
      EXPECT_EQ(db.FindTuple(s.ref), s.tuple);
    }
    // Emptied again, the relation fails as before.
    for (LocalTupleId id : ids) {
      ASSERT_TRUE(db.StoreAt(full).value()->Erase(id).ok());
    }
    EXPECT_FALSE(db.HasTuples());
    EXPECT_EQ(sampler.DrawFresh(1, 1).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(TwoStageSamplerTest, TupleDistributionIsUniform) {
  // Two-stage sampling with the content-size weight must be uniform over
  // *tuples* even though node content sizes range from 1 to 6.
  Fixture f(6);
  SamplingOperatorOptions options;
  options.walk_length = 200;
  options.reset_length = 60;
  SamplingOperator op(&f.graph, ContentSizeWeight(*f.db), Rng(5), nullptr,
                      options);
  TwoStageTupleSampler sampler(f.db.get(), &op, Rng(6));

  const int n = 42000;
  std::map<double, int> counts;
  Result<PartialTupleBatch> batch = sampler.DrawFresh(0, n);
  ASSERT_TRUE(batch.ok());
  for (const TupleSample& s : batch->samples) counts[(*s.tuple)[0]] += 1;

  const double expected = static_cast<double>(n) / f.total_tuples;
  ASSERT_EQ(f.total_tuples, 21u);
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(count, expected, expected * 0.25)
        << "tuple value " << value;
  }
}

TEST(ExactSamplerTest, UniformOverTuples) {
  Fixture f(6);
  MessageMeter meter;
  ExactTupleSampler sampler(f.db.get(), Rng(7), &meter);
  const int n = 42000;
  std::map<double, int> counts;
  Result<PartialTupleBatch> batch = sampler.DrawFresh(0, n);
  ASSERT_TRUE(batch.ok());
  for (const TupleSample& s : batch->samples) counts[(*s.tuple)[0]] += 1;
  const double expected = static_cast<double>(n) / f.total_tuples;
  for (const auto& [value, count] : counts) {
    EXPECT_NEAR(count, expected, expected * 0.2) << "tuple " << value;
  }
  EXPECT_EQ(meter.sample_transfers(), static_cast<uint64_t>(n));
  EXPECT_EQ(meter.walk_hops(), 0u);  // Centralized: no walking.
}

TEST(ExactSamplerTest, NodePickMatchesTheWeightedIndexReference) {
  // The sampler binary-searches the running content sizes where
  // Rng::NextWeightedIndex scans them: the same draw must pick the same
  // node, on skewed sizes with empty stores in between.
  Graph g = MakeComplete(40).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng fill(3);
  for (NodeId node : g.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    const size_t size = node % 4 == 1 ? 0 : fill.NextIndex(900);
    for (size_t i = 0; i < size; ++i) {
      db.StoreAt(node).value()->Insert({static_cast<double>(i)});
    }
  }
  const std::vector<NodeId> nodes = db.Nodes();
  std::vector<double> weights;
  for (NodeId node : nodes) {
    weights.push_back(static_cast<double>(db.ContentSize(node)));
  }
  ExactTupleSampler sampler(&db, Rng(21), nullptr);
  Rng reference(21);
  const PartialTupleBatch batch = sampler.DrawFresh(0, 5000).value();
  for (const TupleSample& s : batch.samples) {
    const NodeId node = nodes[reference.NextWeightedIndex(weights)];
    ASSERT_EQ(s.ref.node, node);
    reference.NextIndex(db.ContentSize(node));  // The local pick's draw.
  }
}

TEST(ExactSamplerTest, UpperBoundIndexMatchesStdUpperBound) {
  // Every r the node pick can meet and more: each running sum exactly
  // (ties, including the runs of equal sums empty stores leave), points
  // between and beyond them, signed zeros, infinities and NaN.
  const std::vector<std::vector<double>> cases = {
      {5.0},
      {0.0, 0.0, 3.0},
      {1.0, 2.0},
      {2.0, 2.0, 2.0, 7.0, 7.0, 9.0, 12.0},
      {0.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 10.0},
      {1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 36.0, 45.0, 55.0, 66.0},
  };
  for (const std::vector<double>& sums : cases) {
    std::vector<double> rs = {-1.0, -0.0, 0.0, 0.5, 1e300, HUGE_VAL,
                              -HUGE_VAL, std::nan("")};
    for (double s : sums) {
      rs.push_back(s);
      rs.push_back(std::nextafter(s, -HUGE_VAL));
      rs.push_back(std::nextafter(s, HUGE_VAL));
    }
    for (double r : rs) {
      EXPECT_EQ(UpperBoundIndex(sums, r),
                static_cast<size_t>(
                    std::upper_bound(sums.begin(), sums.end(), r) -
                    sums.begin()))
          << "r=" << r << " over " << sums.size() << " sums";
    }
  }
}

TEST(ExactSamplerTest, EmptyRelationFails) {
  Graph g = MakeComplete(3).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId node : g.LiveNodes()) ASSERT_TRUE(db.AddNode(node).ok());
  ExactTupleSampler sampler(&db, Rng(8), nullptr);
  EXPECT_FALSE(sampler.DrawFresh(0, 1).ok());
}

TEST(ClusterSamplerTest, ReturnsWholeNodeContent) {
  Fixture f(5);
  // Uniform node weight: classic cluster sampling.
  SamplingOperator op(&f.graph, UniformWeight(), Rng(9), nullptr);
  ClusterSampler sampler(f.db.get(), &op);
  Result<std::vector<TupleSample>> cluster = sampler.SampleCluster(0);
  ASSERT_TRUE(cluster.ok());
  ASSERT_FALSE(cluster->empty());
  const NodeId node = cluster->front().ref.node;
  EXPECT_EQ(cluster->size(), f.db->ContentSize(node));
  for (const TupleSample& s : *cluster) EXPECT_EQ(s.ref.node, node);
}

TEST(ClusterSamplerTest, ClusterEstimateIsWorseUnderIntraNodeCorrelation) {
  // Build a database where values cluster per node (high intra-node
  // correlation, as §III argues for P2P content). Cluster-sample means
  // should scatter far more than equal-size two-stage samples.
  Graph g = MakeComplete(8).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data_rng(10);
  for (NodeId node : g.LiveNodes()) {
    ASSERT_TRUE(db.AddNode(node).ok());
    const double node_level = static_cast<double>(node) * 10.0;
    for (int i = 0; i < 8; ++i) {
      db.StoreAt(node).value()->Insert(
          {node_level + data_rng.NextGaussian(0.0, 0.5)});
    }
  }
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(v) FROM R").value();
  const double truth = db.ExactAggregate(q).value();

  SamplingOperatorOptions options;
  options.walk_length = 60;
  SamplingOperator uniform_op(&g, UniformWeight(), Rng(11), nullptr,
                              options);
  SamplingOperator content_op(&g, ContentSizeWeight(db), Rng(12), nullptr,
                              options);
  ClusterSampler cluster(&db, &uniform_op);
  TwoStageTupleSampler two_stage(&db, &content_op, Rng(13));

  auto mean_of = [](const std::vector<TupleSample>& samples) {
    double acc = 0.0;
    for (const TupleSample& s : samples) acc += (*s.tuple)[0];
    return acc / static_cast<double>(samples.size());
  };
  double cluster_sq_err = 0.0;
  double two_stage_sq_err = 0.0;
  const int trials = 120;
  for (int i = 0; i < trials; ++i) {
    Result<std::vector<TupleSample>> c = cluster.SampleCluster(0);
    ASSERT_TRUE(c.ok());
    const double ce = mean_of(*c) - truth;
    cluster_sq_err += ce * ce;
    Result<PartialTupleBatch> t = two_stage.DrawFresh(0, c->size());
    ASSERT_TRUE(t.ok());
    const double te = mean_of(t->samples) - truth;
    two_stage_sq_err += te * te;
  }
  EXPECT_GT(cluster_sq_err, 3.0 * two_stage_sq_err);
}

}  // namespace
}  // namespace digest
