// Unit tests for the retry/timeout/backoff policy: budget exhaustion
// surfaces as a cut batch (never a crash), the backoff sequence is
// deterministic, and meter retry counters reconcile exactly against the
// injected losses.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/engine.h"
#include "net/fault_plan.h"
#include "net/message_meter.h"
#include "net/topology.h"
#include "sampling/sampling_operator.h"
#include "sampling/weight.h"
#include "workload/memory.h"

namespace digest {
namespace {

MemoryConfig SmallMemoryConfig() {
  MemoryConfig config;
  config.num_units = 120;
  config.num_nodes = 80;
  config.join_rate = 0.0;   // No churn: isolate the injected faults.
  config.leave_rate = 0.0;
  return config;
}

TEST(RetryBackoffTest, BackoffSequenceIsDeterministicAndCapped) {
  RetryPolicy policy;
  policy.backoff_base = 2;
  EXPECT_EQ(policy.BackoffCost(1), 2u);
  EXPECT_EQ(policy.BackoffCost(2), 4u);
  EXPECT_EQ(policy.BackoffCost(3), 8u);
  EXPECT_EQ(policy.BackoffCost(10), static_cast<size_t>(2) << 9);
  // The shift saturates at 20 so the cost cannot overflow.
  EXPECT_EQ(policy.BackoffCost(21), static_cast<size_t>(2) << 20);
  EXPECT_EQ(policy.BackoffCost(40), static_cast<size_t>(2) << 20);
  // Same policy, same inputs, same costs — no hidden state.
  RetryPolicy twin;
  twin.backoff_base = 2;
  for (size_t k = 1; k < 32; ++k) {
    EXPECT_EQ(policy.BackoffCost(k), twin.BackoffCost(k));
  }
}

TEST(RetryBackoffTest, BackoffCostSaturatesInsteadOfWrapping) {
  // Property: for ANY backoff_base and ANY attempt index — including
  // adversarial max_attempts far beyond what validation would admit —
  // the cost sequence is monotone non-decreasing and saturates at
  // SIZE_MAX rather than wrapping. A wrapped cost would under-charge
  // the hop budget and turn a timeout into an infinite retry loop.
  const size_t kMax = static_cast<size_t>(-1);
  for (size_t base :
       {static_cast<size_t>(1), static_cast<size_t>(3),
        static_cast<size_t>(1) << 40, kMax / 2, kMax - 1, kMax}) {
    RetryPolicy policy;
    policy.backoff_base = base;
    size_t previous = 0;
    for (size_t k = 1; k < 64; ++k) {
      const size_t cost = policy.BackoffCost(k);
      EXPECT_GE(cost, previous) << "base=" << base << " k=" << k;
      EXPECT_GE(cost, base) << "base=" << base << " k=" << k;
      previous = cost;
    }
    // Deep attempts pin to the shift-cap plateau (base << 20), which
    // itself saturates to SIZE_MAX when the base is too large for the
    // doubling to be representable.
    EXPECT_EQ(policy.BackoffCost(1000), policy.BackoffCost(21))
        << "base=" << base;
    if (base > (kMax >> 20)) {
      EXPECT_EQ(policy.BackoffCost(1000), kMax) << "base=" << base;
    }
  }
  // The exact saturation boundary: the last exactly-representable cost
  // is base << 20; one doubling past SIZE_MAX pins to SIZE_MAX.
  RetryPolicy policy;
  policy.backoff_base = (kMax >> 20);  // Largest base with exact k=21.
  EXPECT_EQ(policy.BackoffCost(21), (kMax >> 20) << 20);
  policy.backoff_base = (kMax >> 20) + 1;
  EXPECT_EQ(policy.BackoffCost(21), kMax);
  // k=0 is charged like k=1 (no shift) — defensive, not reachable from
  // the retry loop, but it must not underflow the shift count.
  EXPECT_EQ(policy.BackoffCost(0), policy.backoff_base);
}

TEST(RetryBackoffTest, SaturatedBackoffStillReconcilesWithMeter) {
  // An adversarial policy whose very first retransmission exhausts any
  // budget: the walk times out cleanly, and the meter still reconciles
  // losses against the plan — saturation never double-counts or loses
  // a retry category.
  const Graph graph = MakeComplete(12).value();
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.retry.max_attempts = static_cast<size_t>(-1);  // Adversarial.
  options.retry.backoff_base = static_cast<size_t>(-1) / 2;
  options.retry.hop_budget_factor = 8.0;
  MessageMeter meter;
  SamplingOperator op(&graph, DegreeWeight(graph), Rng(19), &meter, options);
  FaultPlanConfig config;
  config.message_loss = 1.0;
  FaultPlan plan(config, 29);
  op.SetFaultPlan(&plan);

  Result<PartialBatch> res = op.SampleNodes(0, 4);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->timed_out);
  EXPECT_GT(meter.losses(), 0u);
  EXPECT_EQ(meter.losses(), plan.losses_injected());
  // Each loss was answered by at most one (budget-charged) retry; the
  // saturated backoff cost forces timeout rather than an unbounded
  // retry storm.
  EXPECT_LE(meter.retries(), meter.losses());
  EXPECT_EQ(meter.FaultOverhead(), meter.retries() + meter.agent_restarts());
}

TEST(RetryBackoffTest, SaturatedWalksPinBatchTelemetryInsteadOfWrapping) {
  // Each walk's first retransmission costs SIZE_MAX / 2 budget units, so
  // two retrying walks sum past UINT64_MAX. Walks saturate their own
  // budget counters; the batch total must saturate too, or a cut batch
  // reports fewer attempts than the budget it exhausted (and the
  // registry histograms observe the wrapped sums).
  const Graph graph = MakeComplete(12).value();
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.retry.max_attempts = static_cast<size_t>(-1);
  options.retry.backoff_base = static_cast<size_t>(-1) / 2;
  options.retry.hop_budget_factor = 8.0;
  const uint64_t budget = 8 * 8 * 16;  // Factor x 8 cold walks x length.
  FaultPlanConfig config;
  config.message_loss = 0.02;
  size_t cut_batches = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SamplingOperator op(&graph, DegreeWeight(graph), Rng(seed), nullptr,
                        options);
    FaultPlan plan(config, seed + 7);
    op.SetFaultPlan(&plan);
    Result<PartialBatch> batch = op.SampleNodes(0, 8);
    ASSERT_TRUE(batch.ok()) << "seed " << seed;
    const WalkTelemetry& t = op.last_telemetry();
    // Every backoff unit is also an attempt unit.
    EXPECT_LE(t.backoff_units, t.attempts) << "seed " << seed;
    if (!batch->timed_out) continue;
    ++cut_batches;
    EXPECT_GE(t.attempts, budget) << "seed " << seed;
    if (seed == 28) {
      // Cut after 6 samples, with two retrying walks merged: pinned.
      EXPECT_EQ(batch->nodes.size(), 6u);
      EXPECT_EQ(t.attempts, UINT64_MAX);
    }
  }
  EXPECT_GT(cut_batches, 0u);
}

TEST(RetryBackoffTest, HedgeStatisticsSaturateInsteadOfWrapping) {
  // A retrying walk's first retransmission costs SIZE_MAX / 2 attempt
  // units, and an unlimited budget lets two such walks deliver in one
  // batch. The completed-walk sums that feed HedgeThreshold must pin at
  // UINT64_MAX: wrapped, the attempt sum falls below the step sum and
  // the threshold collapses.
  const Graph graph = MakeComplete(12).value();
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.retry.max_attempts = static_cast<size_t>(-1);
  options.retry.backoff_base = static_cast<size_t>(-1) / 2;
  options.retry.hop_budget_factor = std::numeric_limits<double>::infinity();
  FaultPlanConfig config;
  config.message_loss = 0.02;
  bool two_delivered = false;
  for (uint64_t seed = 0; seed < 200 && !two_delivered; ++seed) {
    SamplingOperator op(&graph, DegreeWeight(graph), Rng(seed), nullptr,
                        options);
    FaultPlan plan(config, seed + 7);
    op.SetFaultPlan(&plan);
    Result<PartialBatch> batch = op.SampleNodes(0, 8);
    ASSERT_TRUE(batch.ok()) << "seed " << seed;
    EXPECT_GE(op.hedge_done_attempts(), op.hedge_done_steps())
        << "seed " << seed;
    // Only two delivered retrying walks take the sum past the range.
    two_delivered = op.hedge_done_attempts() == UINT64_MAX;
  }
  EXPECT_TRUE(two_delivered);
}

TEST(RetryBackoffTest, HopBudgetSaturatesInsteadOfWrapping) {
  // A factor so large that factor x planned hops leaves the uint64
  // range is an unlimited budget, not a zero one: under an empty fault
  // plan every batch delivers in full.
  const Graph graph = MakeComplete(12).value();
  for (double factor : {8.0, 1e18, 1e30,
                        std::numeric_limits<double>::infinity()}) {
    SamplingOperatorOptions options;
    options.walk_length = 16;
    options.reset_length = 4;
    options.retry.hop_budget_factor = factor;
    ASSERT_TRUE(options.retry.Validate().ok()) << factor;
    SamplingOperator op(&graph, DegreeWeight(graph), Rng(3), nullptr,
                        options);
    FaultPlan plan(FaultPlanConfig(), 5);
    op.SetFaultPlan(&plan);
    Result<PartialBatch> batch = op.SampleNodes(0, 8);  // Cold.
    ASSERT_TRUE(batch.ok()) << factor;
    EXPECT_FALSE(batch->timed_out) << factor;
    EXPECT_EQ(batch->nodes.size(), 8u) << factor;
  }
}

TEST(RetryBackoffTest, BudgetExhaustionReturnsUnavailableNotCrash) {
  const Graph graph = MakeComplete(12).value();
  SamplingOperatorOptions options;
  options.walk_length = 16;
  options.reset_length = 4;
  options.laziness = 0.0;  // Every step probes: deterministic exhaustion.
  options.retry.max_attempts = 3;
  options.retry.hop_budget_factor = 1.0;
  MessageMeter meter;
  SamplingOperator op(&graph, DegreeWeight(graph), Rng(9), &meter, options);
  FaultPlanConfig config;
  config.message_loss = 1.0;
  FaultPlan plan(config, 13);
  op.SetFaultPlan(&plan);

  Result<PartialBatch> res = op.SampleNodes(0, 4);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->timed_out);
  EXPECT_GT(op.last_telemetry().abandoned, 0u);
  EXPECT_GT(meter.losses(), 0u);

  // A second call degrades the same way rather than wedging.
  Result<PartialBatch> again = op.SampleNodes(0, 4);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->timed_out);
  // A single-node draw has no partial batch to hand back: the cut fails
  // it with kUnavailable.
  EXPECT_EQ(op.SampleNode(0).status().code(), StatusCode::kUnavailable);

  // Healing the network lets the same operator instance succeed.
  ASSERT_TRUE(plan.set_message_loss(0.0).ok());
  Result<PartialBatch> healed = op.SampleNodes(0, 4);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->timed_out);
  EXPECT_EQ(healed->nodes.size(), 4u);
  EXPECT_EQ(op.last_telemetry().abandoned, 0u);
}

TEST(RetryBackoffTest, MeterRetriesMatchInjectedLossesExactly) {
  Rng topo(4);
  const Graph graph = MakeBarabasiAlbert(60, 3, topo).value();
  SamplingOperatorOptions options;
  options.walk_length = 30;
  options.reset_length = 8;
  options.retry.max_attempts = 100;  // Deep retries: nothing abandoned.
  options.retry.hop_budget_factor = 64.0;
  MessageMeter meter;
  SamplingOperator op(&graph, DegreeWeight(graph), Rng(31), &meter, options);
  FaultPlanConfig config;
  config.message_loss = 0.25;
  config.edge_spread = 0.5;
  FaultPlan plan(config, 17);
  op.SetFaultPlan(&plan);

  Result<PartialBatch> res = op.SampleNodes(0, 20);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->nodes.size(), 20u);
  EXPECT_GT(plan.losses_injected(), 0u);
  // Every injected loss is annotated once in the meter and answered by
  // exactly one retransmission (attempts never run out at this depth),
  // so all three counters agree exactly.
  EXPECT_EQ(meter.losses(), plan.losses_injected());
  EXPECT_EQ(meter.retries(), plan.losses_injected());
  EXPECT_EQ(op.last_telemetry().retries, meter.retries());
  EXPECT_EQ(op.last_telemetry().losses, meter.losses());
  EXPECT_EQ(op.last_telemetry().abandoned, 0u);
  EXPECT_EQ(meter.FaultOverhead(), meter.retries());
}

TEST(RetryBackoffTest, TotalAgentDropTimesOutWithRestartsAccounted) {
  const Graph graph = MakeComplete(10).value();
  SamplingOperatorOptions options;
  options.walk_length = 12;
  options.reset_length = 4;
  options.retry.hop_budget_factor = 4.0;
  MessageMeter meter;
  SamplingOperator op(&graph, DegreeWeight(graph), Rng(8), &meter, options);
  FaultPlanConfig config;
  config.agent_drop = 1.0;  // Every completed hop loses the agent.
  FaultPlan plan(config, 23);
  op.SetFaultPlan(&plan);

  Result<PartialBatch> res = op.SampleNodes(0, 3);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->timed_out);
  EXPECT_GT(op.last_telemetry().drops, 0u);
  EXPECT_GT(meter.agent_restarts(), 0u);
  EXPECT_EQ(meter.agent_restarts(), plan.drops_injected());
}

TEST(RetryBackoffTest, RepeatedEstimatorDegradesAndRecovers) {
  auto workload = MemoryWorkload::Create(SmallMemoryConfig()).value();
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{1.0, 2.0, 0.9})
          .value();
  FaultPlan plan(FaultPlanConfig{}, 21);
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 20;
  options.sampling_options.reset_length = 6;
  options.sampling_options.retry.hop_budget_factor = 2.0;
  options.fault_plan = &plan;
  MessageMeter meter;
  Rng rng(3);
  const NodeId origin = workload->graph().RandomLiveNode(rng).value();
  workload->ProtectNode(origin);
  auto engine = DigestEngine::Create(&workload->graph(), &workload->db(),
                                     spec, origin, rng.Fork(), &meter,
                                     options)
                    .value();

  // Healthy warm-up: several occasions so the retained pool exists.
  EngineTickResult last;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(workload->Advance().ok());
    plan.set_now(workload->now());
    Result<EngineTickResult> tick = engine->Tick(workload->now());
    ASSERT_TRUE(tick.ok());
    last = *tick;
  }
  EXPECT_TRUE(last.has_result);
  EXPECT_FALSE(last.degraded);
  EXPECT_DOUBLE_EQ(last.ci_halfwidth, spec.precision.epsilon);
  EXPECT_EQ(engine->stats().degraded_ticks, 0u);

  // Sever the network: every transmission is lost, fresh sampling times
  // out, and the engine answers from the retained pool with an honest,
  // widened interval instead of failing the tick.
  ASSERT_TRUE(plan.set_message_loss(1.0).ok());
  ASSERT_TRUE(workload->Advance().ok());
  plan.set_now(workload->now());
  Result<EngineTickResult> degraded = engine->Tick(workload->now());
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_TRUE(degraded->has_result);
  EXPECT_GE(degraded->ci_halfwidth, spec.precision.epsilon);
  EXPECT_EQ(engine->stats().degraded_ticks, 1u);

  // Heal: the next tick samples fresh again under the contract ε.
  ASSERT_TRUE(plan.set_message_loss(0.0).ok());
  ASSERT_TRUE(workload->Advance().ok());
  plan.set_now(workload->now());
  Result<EngineTickResult> healed = engine->Tick(workload->now());
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded);
  EXPECT_DOUBLE_EQ(healed->ci_halfwidth, spec.precision.epsilon);
}

TEST(RetryBackoffTest, IndependentEstimatorHoldsWithDoublingInterval) {
  auto workload = MemoryWorkload::Create(SmallMemoryConfig()).value();
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{1.0, 2.0, 0.9})
          .value();
  FaultPlan plan(FaultPlanConfig{}, 37);
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kIndependent;
  options.sampling_options.walk_length = 20;
  options.sampling_options.reset_length = 6;
  options.sampling_options.retry.hop_budget_factor = 2.0;
  options.fault_plan = &plan;
  MessageMeter meter;
  Rng rng(6);
  const NodeId origin = workload->graph().RandomLiveNode(rng).value();
  workload->ProtectNode(origin);
  auto engine = DigestEngine::Create(&workload->graph(), &workload->db(),
                                     spec, origin, rng.Fork(), &meter,
                                     options)
                    .value();

  double healthy_value = 0.0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(workload->Advance().ok());
    plan.set_now(workload->now());
    Result<EngineTickResult> tick = engine->Tick(workload->now());
    ASSERT_TRUE(tick.ok());
    healthy_value = tick->reported_value;
  }

  // INDEP has no retained pool: under total loss the engine holds the
  // previous result and doubles the uncertainty band every failed
  // snapshot, rather than crashing or blocking.
  const double epsilon = spec.precision.epsilon;
  ASSERT_TRUE(plan.set_message_loss(1.0).ok());
  ASSERT_TRUE(workload->Advance().ok());
  plan.set_now(workload->now());
  Result<EngineTickResult> first = engine->Tick(workload->now());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->degraded);
  EXPECT_FALSE(first->snapshot_executed);
  EXPECT_DOUBLE_EQ(first->reported_value, healthy_value);
  EXPECT_DOUBLE_EQ(first->ci_halfwidth, 2.0 * epsilon);

  ASSERT_TRUE(workload->Advance().ok());
  plan.set_now(workload->now());
  Result<EngineTickResult> second = engine->Tick(workload->now());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->degraded);
  EXPECT_DOUBLE_EQ(second->reported_value, healthy_value);
  EXPECT_DOUBLE_EQ(second->ci_halfwidth, 4.0 * epsilon);
  EXPECT_EQ(engine->stats().degraded_ticks, 2u);

  // Recovery snaps the interval back to the contract ε.
  ASSERT_TRUE(plan.set_message_loss(0.0).ok());
  ASSERT_TRUE(workload->Advance().ok());
  plan.set_now(workload->now());
  Result<EngineTickResult> healed = engine->Tick(workload->now());
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->degraded);
  EXPECT_TRUE(healed->snapshot_executed);
  EXPECT_DOUBLE_EQ(healed->ci_halfwidth, epsilon);
}

}  // namespace
}  // namespace digest
