// Property tests for the deterministic fault-injection layer: a zero-
// rate plan is bit-identical to no plan, and identical seeds reproduce
// identical fault schedules.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "net/fault_plan.h"
#include "obs/tracer.h"
#include "net/topology.h"
#include "sampling/sampling_operator.h"
#include "workload/experiment.h"
#include "workload/memory.h"

namespace digest {
namespace {

FaultPlanConfig ActiveConfig() {
  FaultPlanConfig config;
  config.message_loss = 0.3;
  config.edge_spread = 0.5;
  config.agent_drop = 0.1;
  config.stale_probe = 0.2;
  config.stall_fraction = 0.3;
  config.stall_every = 16;
  config.stall_length = 4;
  return config;
}

TEST(FaultPlanTest, ConfigValidation) {
  EXPECT_TRUE(FaultPlanConfig{}.Validate().ok());
  EXPECT_TRUE(ActiveConfig().Validate().ok());

  FaultPlanConfig bad = ActiveConfig();
  bad.message_loss = -0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ActiveConfig();
  bad.message_loss = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ActiveConfig();
  bad.edge_spread = 2.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ActiveConfig();
  bad.stale_noise = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ActiveConfig();
  bad.stall_length = bad.stall_every;  // Never wakes up: that's churn.
  EXPECT_FALSE(bad.Validate().ok());
  bad = ActiveConfig();
  bad.stall_every = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(FaultPlanTest, ConfigValidationCoversEveryProbabilityAndDuration) {
  // Every probability field rejects values outside [0, 1] with
  // InvalidArgument, independently of the others.
  for (double out_of_range : {-0.1, 1.0001, 7.0}) {
    FaultPlanConfig bad = ActiveConfig();
    bad.agent_drop = out_of_range;
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument)
        << "agent_drop=" << out_of_range;
    bad = ActiveConfig();
    bad.stale_probe = out_of_range;
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument)
        << "stale_probe=" << out_of_range;
    bad = ActiveConfig();
    bad.stall_fraction = out_of_range;
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument)
        << "stall_fraction=" << out_of_range;
  }
  // Stall durations reject negatives even when no node ever stalls.
  FaultPlanConfig bad;
  ASSERT_EQ(bad.stall_fraction, 0.0);
  bad.stall_length = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = FaultPlanConfig{};
  bad.stall_every = -8;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, LiveRateSettersRejectWithoutClamping) {
  FaultPlan plan(ActiveConfig(), /*seed=*/99);
  EXPECT_EQ(plan.set_message_loss(-0.2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.set_agent_drop(1.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.set_stale_probe(2.0).code(),
            StatusCode::kInvalidArgument);
  // The rejected values left the configured rates untouched.
  EXPECT_EQ(plan.config().message_loss, ActiveConfig().message_loss);
  EXPECT_EQ(plan.config().agent_drop, ActiveConfig().agent_drop);
  EXPECT_EQ(plan.config().stale_probe, ActiveConfig().stale_probe);
  // In-range updates apply.
  EXPECT_TRUE(plan.set_message_loss(0.0).ok());
  EXPECT_TRUE(plan.set_agent_drop(1.0).ok());
  EXPECT_EQ(plan.config().message_loss, 0.0);
  EXPECT_EQ(plan.config().agent_drop, 1.0);
}

TEST(FaultPlanTest, RetryPolicyValidation) {
  EXPECT_TRUE(RetryPolicy{}.Validate().ok());
  RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = RetryPolicy{};
  bad.backoff_base = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = RetryPolicy{};
  bad.hop_budget_factor = 0.5;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(FaultPlanTest, ZeroRatePlanLeavesOperatorBitIdentical) {
  Rng topo(11);
  const Graph graph = MakeBarabasiAlbert(80, 3, topo).value();
  SamplingOperatorOptions options;
  options.walk_length = 40;
  options.reset_length = 10;

  MessageMeter clean_meter;
  SamplingOperator clean(&graph, DegreeWeight(graph), Rng(42), &clean_meter,
                         options);
  MessageMeter faulty_meter;
  SamplingOperator faulty(&graph, DegreeWeight(graph), Rng(42), &faulty_meter,
                          options);
  FaultPlan zero_plan(FaultPlanConfig{}, /*seed=*/7);
  faulty.SetFaultPlan(&zero_plan);

  for (int batch = 0; batch < 3; ++batch) {
    const std::vector<NodeId> a = clean.SampleNodes(0, 25).value().nodes;
    const std::vector<NodeId> b = faulty.SampleNodes(0, 25).value().nodes;
    EXPECT_EQ(a, b) << "batch " << batch;
  }
  EXPECT_EQ(clean_meter.walk_hops(), faulty_meter.walk_hops());
  EXPECT_EQ(clean_meter.weight_probes(), faulty_meter.weight_probes());
  EXPECT_EQ(clean_meter.sample_transfers(), faulty_meter.sample_transfers());
  EXPECT_EQ(clean_meter.Total(), faulty_meter.Total());
  EXPECT_EQ(faulty_meter.retries(), 0u);
  EXPECT_EQ(faulty_meter.losses(), 0u);
  EXPECT_EQ(faulty_meter.agent_restarts(), 0u);
  EXPECT_EQ(zero_plan.losses_injected(), 0u);
  EXPECT_EQ(zero_plan.drops_injected(), 0u);
}

TEST(FaultPlanTest, ZeroRatePlanLeavesEngineEstimatesBitIdentical) {
  MemoryConfig config;
  config.num_units = 150;
  config.num_nodes = 100;
  auto clean_workload = MemoryWorkload::Create(config).value();
  auto faulty_workload = MemoryWorkload::Create(config).value();
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{2.0, 2.0, 0.95})
          .value();
  DigestEngineOptions options;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.sampling_options.walk_length = 40;
  options.sampling_options.reset_length = 10;

  RunResult clean =
      RunEngineExperiment(*clean_workload, spec, options, 60, 5).value();

  FaultPlan zero_plan(FaultPlanConfig{}, /*seed=*/99);
  options.fault_plan = &zero_plan;
  RunResult faulty =
      RunEngineExperiment(*faulty_workload, spec, options, 60, 5).value();

  // Same samples, same meter counts, same engine estimates as seed
  // behavior — exact double equality, not approximate.
  EXPECT_EQ(clean.reported, faulty.reported);
  EXPECT_EQ(clean.truth, faulty.truth);
  EXPECT_EQ(clean.meter.Total(), faulty.meter.Total());
  EXPECT_EQ(clean.meter.walk_hops(), faulty.meter.walk_hops());
  EXPECT_EQ(clean.meter.weight_probes(), faulty.meter.weight_probes());
  EXPECT_EQ(clean.stats.snapshots, faulty.stats.snapshots);
  EXPECT_EQ(clean.stats.total_samples, faulty.stats.total_samples);
  EXPECT_EQ(clean.stats.fresh_samples, faulty.stats.fresh_samples);
  EXPECT_EQ(faulty.stats.degraded_ticks, 0u);
  EXPECT_EQ(faulty.degraded_ticks, 0u);
}

TEST(FaultPlanTest, IdenticalSeedsReproduceIdenticalSchedules) {
  FaultPlan a(ActiveConfig(), 1234);
  FaultPlan b(ActiveConfig(), 1234);
  for (int64_t t = 0; t < 8; ++t) {
    a.set_now(t);
    b.set_now(t);
    for (NodeId node = 0; node < 64; ++node) {
      EXPECT_EQ(a.IsBlackholed(node), b.IsBlackholed(node))
          << "t=" << t << " node=" << node;
    }
    for (uint32_t k = 0; k < 200; ++k) {
      const NodeId from = k % 50;
      const NodeId to = (k * 7 + 1) % 50;
      EXPECT_EQ(a.LoseMessage(from, to), b.LoseMessage(from, to));
      EXPECT_EQ(a.DropAgent(), b.DropAgent());
      EXPECT_EQ(a.StaleProbe(), b.StaleProbe());
    }
  }
  EXPECT_EQ(a.losses_injected(), b.losses_injected());
  EXPECT_EQ(a.drops_injected(), b.drops_injected());
  EXPECT_EQ(a.stale_injected(), b.stale_injected());
  EXPECT_GT(a.losses_injected(), 0u);  // The schedule is non-trivial.
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  FaultPlan a(ActiveConfig(), 1);
  FaultPlan b(ActiveConfig(), 2);
  bool diverged = false;
  for (uint32_t k = 0; k < 500 && !diverged; ++k) {
    diverged = a.LoseMessage(k % 30, (k + 1) % 30) !=
               b.LoseMessage(k % 30, (k + 1) % 30);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlanTest, EdgeLossRatesAreDeterministicSymmetricAndBounded) {
  FaultPlanConfig config;
  config.message_loss = 0.2;
  config.edge_spread = 0.8;
  const FaultPlan plan(config, 77);
  const FaultPlan twin(config, 77);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = a + 1; b < 20; ++b) {
      const double rate = plan.EdgeLossRate(a, b);
      EXPECT_EQ(rate, plan.EdgeLossRate(b, a));      // Symmetric.
      EXPECT_EQ(rate, plan.EdgeLossRate(a, b));      // No state consumed.
      EXPECT_EQ(rate, twin.EdgeLossRate(a, b));      // Seed-determined.
      EXPECT_GE(rate, 0.2 * (1.0 - 0.8) - 1e-12);
      EXPECT_LE(rate, 0.2 * (1.0 + 0.8) + 1e-12);
    }
  }
  // Heterogeneity is real: not all edges share one rate.
  EXPECT_NE(plan.EdgeLossRate(0, 1), plan.EdgeLossRate(2, 3));
}

TEST(FaultPlanTest, BlackholeWindowsMatchConfiguredShape) {
  FaultPlanConfig config;
  config.stall_fraction = 1.0;  // Every node stalls somewhere.
  config.stall_every = 10;
  config.stall_length = 3;
  FaultPlan plan(config, 5);
  for (NodeId node = 0; node < 32; ++node) {
    int stalled = 0;
    for (int64_t t = 0; t < 10; ++t) {
      plan.set_now(t);
      if (plan.IsBlackholed(node)) ++stalled;
    }
    EXPECT_EQ(stalled, 3) << "node " << node;
  }
  // With stall_fraction 0 nothing ever stalls.
  FaultPlan quiet(FaultPlanConfig{}, 5);
  for (int64_t t = 0; t < 10; ++t) {
    quiet.set_now(t);
    for (NodeId node = 0; node < 32; ++node) {
      EXPECT_FALSE(quiet.IsBlackholed(node));
    }
  }
}

TEST(FaultPlanTest, StallWindowShapeIsRejectedEvenWhenNobodyStalls) {
  // The window shape is validated UNCONDITIONALLY: stall_fraction 0
  // does not excuse an inverted window, because set_stall_fraction can
  // turn stalling on mid-run against whatever window is configured.
  FaultPlanConfig bad;
  ASSERT_EQ(bad.stall_fraction, 0.0);
  bad.stall_length = bad.stall_every;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = FaultPlanConfig{};
  bad.flap_length = bad.flap_every;  // Same rule for flap windows.
  ASSERT_EQ(bad.flap_fraction, 0.0);
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);

  // And the live setter can then enable stalling against the (valid)
  // configured window.
  FaultPlan plan(FaultPlanConfig{}, 3);
  EXPECT_EQ(plan.set_stall_fraction(1.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(plan.set_stall_fraction(1.0).ok());
  plan.set_now(0);
  int stalled = 0;
  for (int64_t t = 0; t < plan.config().stall_every; ++t) {
    plan.set_now(t);
    if (plan.IsBlackholed(4)) ++stalled;
  }
  EXPECT_EQ(stalled, plan.config().stall_length);
}

TEST(FaultPlanTest, PartitionConfigValidation) {
  FaultPlanConfig config;
  config.partition_every = 16;
  config.partition_length = 8;
  config.partition_components = 3;
  EXPECT_TRUE(config.Validate().ok());

  FaultPlanConfig bad = config;
  bad.partition_every = 0;  // Length without a schedule.
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = config;
  bad.partition_length = bad.partition_every;  // Never heals.
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = config;
  bad.partition_length = 0;  // Scheduled but never splits.
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = config;
  bad.partition_every = -4;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = config;
  bad.partition_components = 1;  // One component is no partition.
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, PartitionEpisodesSplitHealAndCutDifferentSeams) {
  FaultPlanConfig config;
  config.partition_every = 10;
  config.partition_length = 4;
  config.partition_components = 2;
  config.agent_drop = 0.5;  // Gives the draw-purity check a real draw.
  FaultPlan plan(config, 21);
  FaultPlan twin(config, 21);

  // The window shape: active for the first 4 ticks of every 10.
  for (int64_t t = 0; t < 30; ++t) {
    plan.set_now(t);
    EXPECT_EQ(plan.PartitionActive(), t % 10 < 4) << "t=" << t;
    EXPECT_EQ(plan.PartitionEpisode(), static_cast<uint64_t>(t / 10));
  }

  // Component membership is a pure hash: stable across queries, equal
  // across same-seed twins, and both components are inhabited.
  plan.set_now(0);
  bool seen[2] = {false, false};
  for (NodeId node = 0; node < 64; ++node) {
    const uint64_t c = plan.PartitionComponent(node);
    ASSERT_LT(c, 2u);
    EXPECT_EQ(c, plan.PartitionComponent(node));
    seen[c] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1]);

  // Successive episodes cut different seams: some node lands in a
  // different component in episode 1 than in episode 0.
  std::vector<uint64_t> episode0(64);
  for (NodeId node = 0; node < 64; ++node) {
    episode0[node] = plan.PartitionComponent(node);
  }
  plan.set_now(10);
  bool seam_moved = false;
  for (NodeId node = 0; node < 64 && !seam_moved; ++node) {
    seam_moved = plan.PartitionComponent(node) != episode0[node];
  }
  EXPECT_TRUE(seam_moved);

  // Cross-component messages are lost deterministically during the
  // window — no draw consumed — and carry again once healed.
  plan.set_now(0);
  NodeId in0 = kInvalidNode, in1 = kInvalidNode;
  for (NodeId node = 0; node < 64; ++node) {
    (plan.PartitionComponent(node) == 0 ? in0 : in1) = node;
  }
  ASSERT_NE(in0, kInvalidNode);
  ASSERT_NE(in1, kInvalidNode);
  EXPECT_TRUE(plan.CrossPartition(in0, in1));
  EXPECT_TRUE(plan.LoseMessage(in0, in1));
  EXPECT_FALSE(plan.CrossPartition(in0, in0));
  plan.set_now(4);  // Healed.
  EXPECT_FALSE(plan.CrossPartition(in0, in1));
  EXPECT_FALSE(plan.LoseMessage(in0, in1));  // No loss rate configured.
  // The deterministic losses never touched the draw stream: a twin that
  // skipped all the partition queries still agrees on the next draws.
  EXPECT_EQ(plan.DropAgent(), twin.DropAgent());
}

TEST(FaultPlanTest, FlappingLinksAreDeterministicWindowedAndSymmetric) {
  FaultPlanConfig config;
  config.flap_fraction = 1.0;  // Every link flaps somewhere.
  config.flap_every = 8;
  config.flap_length = 3;
  config.stale_probe = 0.5;  // Gives the draw-purity check a real draw.
  FaultPlan plan(config, 13);
  FaultPlan twin(config, 13);
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = a + 1; b < 8; ++b) {
      int dark = 0;
      for (int64_t t = 0; t < 8; ++t) {
        plan.set_now(t);
        const bool flapped = plan.LinkFlapped(a, b);
        EXPECT_EQ(flapped, plan.LinkFlapped(b, a)) << "symmetry";
        if (flapped) ++dark;
      }
      EXPECT_EQ(dark, 3) << "edge {" << a << "," << b << "}";
    }
  }
  // A dark link loses deterministically; a zero-fraction plan never
  // flaps at all.
  plan.set_now(0);
  bool found_dark = false;
  for (NodeId b = 1; b < 8 && !found_dark; ++b) {
    if (plan.LinkFlapped(0, b)) {
      found_dark = true;
      EXPECT_TRUE(plan.LoseMessage(0, b));
    }
  }
  FaultPlan quiet(FaultPlanConfig{}, 13);
  for (int64_t t = 0; t < 8; ++t) {
    quiet.set_now(t);
    EXPECT_FALSE(quiet.LinkFlapped(0, 1));
  }
  // Flap checks consume no draws either.
  EXPECT_EQ(plan.StaleProbe(), twin.StaleProbe());
}

TEST(FaultPlanTest, AsymmetricLossSkewsDirectionsOppositeWays) {
  FaultPlanConfig config;
  config.message_loss = 0.2;
  config.edge_spread = 0.3;
  config.loss_asymmetry = 0.5;
  const FaultPlan plan(config, 31);

  FaultPlanConfig symmetric = config;
  symmetric.loss_asymmetry = 0.0;
  const FaultPlan base_plan(symmetric, 31);

  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = a + 1; b < 16; ++b) {
      const double base = plan.EdgeLossRate(a, b);
      const double ab = plan.DirectionalLossRate(a, b);
      const double ba = plan.DirectionalLossRate(b, a);
      // One direction is worse, the other better, by the same factor —
      // the skew redistributes loss, it does not add any.
      EXPECT_NE(ab, ba);
      EXPECT_NEAR(ab + ba, 2.0 * base, 1e-12);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      // With asymmetry 0 both directions answer exactly the edge rate.
      EXPECT_EQ(base_plan.DirectionalLossRate(a, b),
                base_plan.EdgeLossRate(a, b));
      EXPECT_EQ(base_plan.DirectionalLossRate(b, a),
                base_plan.EdgeLossRate(a, b));
    }
  }
}

TEST(FaultPlanTest, PartitionWindowsEmitPairedTraceEvents) {
  FaultPlanConfig config;
  config.partition_every = 6;
  config.partition_length = 2;
  config.partition_components = 2;
  FaultPlan plan(config, 9);
  obs::MemoryTracer tracer;
  plan.SetTracer(&tracer);

  for (int64_t t = 0; t < 14; ++t) plan.set_now(t);

  std::vector<std::string> events;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (const auto* b =
            std::get_if<obs::PartitionBeginEvent>(&event.payload)) {
      EXPECT_EQ(b->components, 2u);
      EXPECT_EQ(b->length, 2);
      events.push_back("begin:" + std::to_string(b->episode));
    } else if (const auto* e = std::get_if<obs::PartitionEndEvent>(
                   &event.payload)) {
      events.push_back("end:" + std::to_string(e->episode));
    }
  }
  const std::vector<std::string> expected = {"begin:0", "end:0", "begin:1",
                                             "end:1", "begin:2"};
  EXPECT_EQ(events, expected);

  // A clock jump across episodes still closes the open window before
  // opening the next, so begin/end always pair up: t=13 is inside
  // episode 2's window, the jump to t=24 lands inside episode 4's (the
  // end:2 is emitted first), and t=40 is healed ground (40 mod 6 = 4).
  tracer.Clear();
  plan.set_now(24);
  plan.set_now(40);
  events.clear();
  for (const obs::TraceEvent& event : tracer.events()) {
    if (const auto* b =
            std::get_if<obs::PartitionBeginEvent>(&event.payload)) {
      events.push_back("begin:" + std::to_string(b->episode));
    } else if (const auto* e = std::get_if<obs::PartitionEndEvent>(
                   &event.payload)) {
      events.push_back("end:" + std::to_string(e->episode));
    }
  }
  EXPECT_EQ(events,
            (std::vector<std::string>{"end:2", "begin:4", "end:4"}));
}

TEST(FaultPlanTest, StaleWeightDistortionIsBoundedAndNonNegative) {
  FaultPlanConfig config;
  config.stale_probe = 1.0;
  config.stale_noise = 0.5;
  FaultPlan plan(config, 3);
  for (int i = 0; i < 200; ++i) {
    const double distorted = plan.DistortWeight(10.0);
    EXPECT_GE(distorted, 5.0 - 1e-9);
    EXPECT_LE(distorted, 15.0 + 1e-9);
  }
  const double still_zero = plan.DistortWeight(0.0);
  EXPECT_EQ(still_zero, 0.0);
}

}  // namespace
}  // namespace digest
