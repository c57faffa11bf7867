#include "sampling/sampling_operator.h"

#include <gtest/gtest.h>

#include <vector>

#include "diag/diag.h"
#include "net/topology.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

TEST(SamplingOperatorTest, AutoLengthsScaleWithSize) {
  Rng rng(1);
  Result<Graph> small = MakeRing(8);
  Result<Graph> large = MakeBarabasiAlbert(512, 2, rng);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  SamplingOperator op_small(&*small, UniformWeight(), Rng(1), nullptr);
  SamplingOperator op_large(&*large, UniformWeight(), Rng(1), nullptr);
  EXPECT_LT(op_small.EffectiveWalkLength(), op_large.EffectiveWalkLength());
  EXPECT_LT(op_small.EffectiveResetLength(),
            op_small.EffectiveWalkLength());
}

TEST(SamplingOperatorTest, ExplicitLengthsRespected) {
  Result<Graph> g = MakeRing(8);
  ASSERT_TRUE(g.ok());
  SamplingOperatorOptions options;
  options.walk_length = 77;
  options.reset_length = 9;
  SamplingOperator op(&*g, UniformWeight(), Rng(2), nullptr, options);
  EXPECT_EQ(op.EffectiveWalkLength(), 77u);
  EXPECT_EQ(op.EffectiveResetLength(), 9u);
}

TEST(SamplingOperatorTest, SamplesAreLiveNodes) {
  Rng rng(3);
  Result<Graph> g = MakeBarabasiAlbert(40, 2, rng);
  ASSERT_TRUE(g.ok());
  SamplingOperator op(&*g, UniformWeight(), Rng(3), nullptr);
  for (int i = 0; i < 50; ++i) {
    Result<NodeId> node = op.SampleNode(0);
    ASSERT_TRUE(node.ok());
    EXPECT_TRUE(g->HasNode(*node));
  }
}

TEST(SamplingOperatorTest, EmptyGraphFails) {
  Graph g;
  SamplingOperator op(&g, UniformWeight(), Rng(4), nullptr);
  EXPECT_EQ(op.SampleNode(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SamplingOperatorTest, DeadOriginFallsBackToRandomNode) {
  Result<Graph> g = MakeComplete(6);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g->RemoveNode(0).ok());
  SamplingOperator op(&*g, UniformWeight(), Rng(5), nullptr);
  Result<NodeId> node = op.SampleNode(0);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(g->HasNode(*node));
}

TEST(SamplingOperatorTest, WarmWalksCostLessThanColdWalks) {
  Rng rng(6);
  Result<Graph> g = MakeBarabasiAlbert(64, 3, rng);
  ASSERT_TRUE(g.ok());

  MessageMeter warm_meter;
  SamplingOperatorOptions warm_options;
  warm_options.warm_walks = true;
  SamplingOperator warm(&*g, UniformWeight(), Rng(7), &warm_meter,
                        warm_options);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(warm.SampleNode(0).ok());

  MessageMeter cold_meter;
  SamplingOperatorOptions cold_options;
  cold_options.warm_walks = false;
  SamplingOperator cold(&*g, UniformWeight(), Rng(7), &cold_meter,
                        cold_options);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(cold.SampleNode(0).ok());

  EXPECT_LT(warm_meter.Total(), cold_meter.Total());
}

TEST(SamplingOperatorTest, BatchReturnsRequestedCount) {
  Rng rng(8);
  Result<Graph> g = MakeBarabasiAlbert(32, 2, rng);
  ASSERT_TRUE(g.ok());
  SamplingOperator op(&*g, UniformWeight(), Rng(8), nullptr);
  Result<PartialBatch> batch = op.SampleNodes(0, 17);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->nodes.size(), 17u);
}

TEST(SamplingOperatorTest, EverySampleChargesATransferMessage) {
  Result<Graph> g = MakeComplete(5);
  ASSERT_TRUE(g.ok());
  MessageMeter meter;
  SamplingOperator op(&*g, UniformWeight(), Rng(9), &meter);
  ASSERT_TRUE(op.SampleNodes(0, 12).ok());
  EXPECT_EQ(meter.sample_transfers(), 12u);
}

TEST(SamplingOperatorTest, CleanBatchReinjectsStrandedAgentsLikeHooked) {
  // Warm agents whose hosts leave are re-injected at the origin for one
  // walk hop each: a clean batch does it in its plan, a hooked one (a
  // SamplerDiag attached) in each walk's Advance. Both draw alike.
  struct Run {
    std::vector<NodeId> samples;
    uint64_t hops = 0;
    uint64_t probes = 0;
    uint64_t churn_batch_hops = 0;
    uint64_t churn_batch_accepted = 0;
  };
  const auto run = [](bool with_diag) {
    Graph g = MakeMesh(6, 6).value();
    MessageMeter meter;
    SamplingOperatorOptions options;
    options.walk_length = 12;
    options.reset_length = 4;
    SamplingOperator op(&g, UniformWeight(), Rng(7), &meter, options);
    diag::SamplerDiag diag;
    if (with_diag) op.SetInstruments({.diag = &diag});
    Run out;
    for (int batch = 0; batch < 4; ++batch) {
      const uint64_t hops_before = meter.walk_hops();
      if (batch == 2) {
        // Three hosts of warm agents leave (never the origin).
        size_t removed = 0;
        for (NodeId v : op.SaveState().agent_positions) {
          if (removed < 3 && v != 0 && g.HasNode(v)) {
            EXPECT_TRUE(g.RemoveNode(v).ok());
            ++removed;
          }
        }
      }
      Result<PartialBatch> result = op.SampleNodes(0, 20);
      EXPECT_TRUE(result.ok());
      if (!result.ok()) return out;
      out.samples.insert(out.samples.end(), result->nodes.begin(),
                         result->nodes.end());
      if (batch == 2) {
        out.churn_batch_hops = meter.walk_hops() - hops_before;
        out.churn_batch_accepted = op.last_telemetry().accepted;
      }
    }
    out.hops = meter.walk_hops();
    out.probes = meter.weight_probes();
    return out;
  };
  const Run clean = run(false);
  const Run hooked = run(true);
  EXPECT_EQ(clean.samples, hooked.samples);
  EXPECT_EQ(clean.hops, hooked.hops);
  EXPECT_EQ(clean.probes, hooked.probes);
  // At least three agents were stranded and re-injected for a hop each.
  EXPECT_GE(clean.churn_batch_hops, clean.churn_batch_accepted + 3);
  EXPECT_EQ(clean.churn_batch_hops, hooked.churn_batch_hops);
}

// The central statistical property (Theorem 2): the empirical node
// distribution of operator samples converges to w_v / Σ w_u, for uniform
// and nonuniform weights on different topologies.
struct DistCase {
  int topology;  // 0 ring, 1 mesh, 2 BA.
  int weight;    // 0 uniform, 1 id-proportional.
};

class OperatorDistribution
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OperatorDistribution, EmpiricalMatchesTarget) {
  const auto [topology, weight_kind] = GetParam();
  Rng rng(100 + topology * 10 + weight_kind);
  Result<Graph> g = (topology == 0)   ? MakeRing(12)
                    : (topology == 1) ? MakeMesh(3, 4)
                                      : MakeBarabasiAlbert(12, 2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight = (weight_kind == 0)
                        ? UniformWeight()
                        : WeightFn([](NodeId v) { return 1.0 + v; });
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());

  SamplingOperatorOptions options;
  // Walk long enough to actually mix on the slowest case (the ring).
  options.walk_length = 400;
  options.reset_length = 120;
  SamplingOperator op(&*g, weight, Rng(42 + topology), nullptr, options);

  const int n_samples = 30000;
  std::vector<double> counts(g->NextId(), 0.0);
  Result<PartialBatch> batch = op.SampleNodes(0, n_samples);
  ASSERT_TRUE(batch.ok());
  for (NodeId v : batch->nodes) counts[v] += 1.0;

  std::vector<double> empirical(fm->nodes.size());
  for (size_t r = 0; r < fm->nodes.size(); ++r) {
    empirical[r] = counts[fm->nodes[r]] / n_samples;
  }
  Result<double> tv = TotalVariationDistance(empirical, fm->pi);
  ASSERT_TRUE(tv.ok());
  EXPECT_LT(*tv, 0.035) << "topology=" << topology
                        << " weight=" << weight_kind;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OperatorDistribution,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0, 1)));

}  // namespace
}  // namespace digest
