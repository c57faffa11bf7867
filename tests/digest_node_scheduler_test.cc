// Multi-query DigestNode runtime: shared-snapshot scheduling. Admission
// control, tightest-ε-first coalescing over one shared walk batch,
// per-query lane traces and meter attribution, and whole-node
// checkpoint/restore bit-identity (including across thread counts).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/digest_node.h"
#include "core/query_scheduler.h"
#include "diag/diag.h"
#include "net/fault_plan.h"
#include "net/peer_health.h"
#include "net/topology.h"
#include "obs/tracer.h"
#include "sampling/sampling_operator.h"
#include "sampling/tuple_sampler.h"
#include "sampling/weight.h"

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

TEST(QuerySchedulerTest, PlanOrdersDueByEpsilonThenId) {
  QueryScheduler sched;
  ASSERT_TRUE(sched.Register(1, 2.0).ok());
  ASSERT_TRUE(sched.Register(2, 0.5).ok());
  ASSERT_TRUE(sched.Register(3, 2.0).ok());
  ASSERT_TRUE(sched.Register(4, 1.0).ok());
  EXPECT_EQ(sched.Register(2, 0.7).code(), StatusCode::kAlreadyExists);

  auto plan = sched.Plan([](QueryId id) { return id != 4; });
  // Tightest ε first, ties by id; idle queries by id.
  ASSERT_EQ(plan.due.size(), 3u);
  EXPECT_EQ(plan.due[0], 2u);
  EXPECT_EQ(plan.due[1], 1u);
  EXPECT_EQ(plan.due[2], 3u);
  ASSERT_EQ(plan.idle.size(), 1u);
  EXPECT_EQ(plan.idle[0], 4u);
}

TEST(QuerySchedulerTest, RecordTickAccumulatesPerQuery) {
  QueryScheduler sched;
  ASSERT_TRUE(sched.Register(7, 1.0).ok());
  sched.RecordTick(7, 120, /*snapshot=*/true, /*coalesced=*/true);
  sched.RecordTick(7, 5, /*snapshot=*/false, /*coalesced=*/false);
  const QueryCost* cost = sched.Cost(7);
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->ticks, 2u);
  EXPECT_EQ(cost->snapshots, 1u);
  EXPECT_EQ(cost->coalesced, 1u);
  EXPECT_EQ(cost->messages, 125u);
  EXPECT_EQ(sched.Cost(9), nullptr);
}

TEST(QuerySchedulerTest, CursorsShareOnePoolOfBorrowedTuples) {
  Fixture f;
  SamplingOperatorOptions walk;
  walk.walk_length = 40;
  walk.reset_length = 10;
  SamplingOperator op(&f.graph, ContentSizeWeight(*f.db), Rng(3), nullptr,
                      walk);
  TwoStageTupleSampler sampler(f.db.get(), &op, Rng(4));
  CoalescingSampleSource source(&sampler);
  // The same draws made directly, for what a fresh pool must hold.
  SamplingOperator twin_op(&f.graph, ContentSizeWeight(*f.db), Rng(3),
                           nullptr, walk);
  TwoStageTupleSampler twin(f.db.get(), &twin_op, Rng(4));

  source.BeginTick();
  source.SetActiveQuery(1);
  const std::vector<TupleSample> first =
      source.DrawFresh(0, 12).value().samples;
  source.SetActiveQuery(2);
  const std::vector<TupleSample> second =
      source.DrawFresh(0, 8).value().samples;
  ASSERT_EQ(first.size(), 12u);
  ASSERT_EQ(second.size(), 8u);
  EXPECT_EQ(source.shared_samples(), 12u);  // Query 2 rode the prefix.
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].ref, first[i].ref) << i;
    // One stored tuple read by both cursors, not a copy per tenant.
    EXPECT_EQ(second[i].tuple, first[i].tuple) << i;
    EXPECT_EQ(first[i].tuple, f.db->FindTuple(first[i].ref)) << i;
  }
  const std::vector<TupleSample> twin_first =
      twin.DrawFresh(0, 12).value().samples;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ref, twin_first[i].ref) << i;
  }

  // The next tick serves only its own draws: both cursors start over on
  // a pool the sampler refills, never on the previous tick's samples.
  source.BeginTick();
  EXPECT_EQ(source.shared_samples(), 0u);
  EXPECT_EQ(source.queries_served(), 0u);
  source.SetActiveQuery(2);
  const std::vector<TupleSample> next =
      source.DrawFresh(0, 12).value().samples;
  source.SetActiveQuery(1);
  const std::vector<TupleSample> next_rider =
      source.DrawFresh(0, 4).value().samples;
  EXPECT_EQ(source.shared_samples(), 12u);
  const std::vector<TupleSample> twin_next =
      twin.DrawFresh(0, 12).value().samples;
  ASSERT_EQ(next.size(), 12u);
  for (size_t i = 0; i < next.size(); ++i) {
    EXPECT_EQ(next[i].ref, twin_next[i].ref) << i;
    EXPECT_EQ(next[i].tuple, f.db->FindTuple(next[i].ref)) << i;
  }
  ASSERT_EQ(next_rider.size(), 4u);
  for (size_t i = 0; i < next_rider.size(); ++i) {
    EXPECT_EQ(next_rider[i].tuple, next[i].tuple) << i;
  }
}

TEST(QuerySchedulerTest, CutExtensionStaysInThePool) {
  // The hop budget cuts the first cursor's 12-sample extension after k
  // walks. Those k samples were walked and charged: the cursor gets them
  // with timed_out set, and a later tenant asking for no more than k
  // reads them from the pool without walking again.
  Fixture f;
  SamplingOperatorOptions walk;
  walk.walk_length = 40;
  walk.reset_length = 10;
  walk.retry.hop_budget_factor = 1.0;
  MessageMeter meter;
  SamplingOperator op(&f.graph, ContentSizeWeight(*f.db), Rng(3), &meter,
                      walk);
  FaultPlanConfig faults;
  faults.message_loss = 0.2;
  FaultPlan plan(faults, 5);
  op.SetFaultPlan(&plan);
  TwoStageTupleSampler sampler(f.db.get(), &op, Rng(4));
  CoalescingSampleSource source(&sampler);

  source.BeginTick();
  source.SetActiveQuery(1);
  const PartialTupleBatch first = source.DrawFresh(0, 12).value();
  ASSERT_TRUE(first.timed_out);
  const size_t k = first.samples.size();
  ASSERT_GT(k, 0u);
  ASSERT_LT(k, 12u);
  EXPECT_EQ(source.shared_samples(), k);

  const uint64_t messages = meter.Total();
  source.SetActiveQuery(2);
  const PartialTupleBatch second = source.DrawFresh(0, k).value();
  EXPECT_FALSE(second.timed_out);
  ASSERT_EQ(second.samples.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(second.samples[i].ref, first.samples[i].ref) << i;
    EXPECT_EQ(second.samples[i].tuple, first.samples[i].tuple) << i;
  }
  EXPECT_EQ(meter.Total(), messages);
  EXPECT_EQ(source.shared_samples(), k);
}

TEST(DigestNodeSchedulerTest, AdmissionCapEnforced) {
  Fixture f;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(3), nullptr,
                                 FastOptions())
                  .value();
  const QueryId q1 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).value();
  for (size_t i = 1; i < DigestNode::kMaxQueries; ++i) {
    ASSERT_TRUE(node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0)).ok())
        << i;
  }
  EXPECT_EQ(node->active_queries(), DigestNode::kMaxQueries);
  EXPECT_EQ(node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 2.0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Cancelling frees capacity.
  ASSERT_TRUE(node->CancelQuery(q1).ok());
  EXPECT_TRUE(node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 2.0)).ok());
}

TEST(DigestNodeSchedulerTest, CoalescingCutsSharedTickCost) {
  // Four same-ε queries all due every tick (kAll): with coalescing the
  // tightest-first query pays for the batch and the rest ride its
  // prefix; the warm-pool-only ablation pays per query.
  Fixture f;
  uint64_t cost[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    MessageMeter meter;
    DigestNodeOptions node_options;
    node_options.coalesce_snapshots = (mode == 0);
    auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(4), &meter,
                                   FastOptions(), node_options)
                    .value();
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE(
          node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).ok());
    }
    for (int64_t t = 1; t <= 5; ++t) ASSERT_TRUE(node->Tick(t).ok());
    cost[mode] = meter.Total();
    if (mode == 0) {
      EXPECT_EQ(node->coalesced_ticks(), 5u);
    } else {
      EXPECT_EQ(node->coalesced_ticks(), 0u);
    }
  }
  // The shared batch must be clearly cheaper than four private ones.
  EXPECT_LT(cost[0], (3 * cost[1]) / 4);
}

TEST(DigestNodeSchedulerTest, AttributionReconcilesWithMeter) {
  Fixture f;
  MessageMeter meter;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(5), &meter,
                                 FastOptions())
                  .value();
  const QueryId q1 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).value();
  const QueryId q2 =
      node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 2.0)).value();
  for (int64_t t = 1; t <= 4; ++t) ASSERT_TRUE(node->Tick(t).ok());
  const QueryCost c1 = node->query_cost(q1).value();
  const QueryCost c2 = node->query_cost(q2).value();
  // Every metered message is attributed to exactly one query.
  EXPECT_EQ(c1.messages + c2.messages, meter.Total());
  EXPECT_EQ(c1.ticks, 4u);
  EXPECT_EQ(c2.ticks, 4u);
  EXPECT_GT(c1.snapshots, 0u);
  // The tight query sizes the shared batch; the loose one rides it.
  EXPECT_GT(c1.messages, c2.messages);
  EXPECT_EQ(node->query_cost(999).status().code(), StatusCode::kNotFound);
}

TEST(DigestNodeSchedulerTest, TraceLanesSeparateQueries) {
  Fixture f;
  obs::MemoryTracer tracer;
  DigestEngineOptions options = FastOptions();
  options.tracer = &tracer;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(6), nullptr,
                                 options)
                  .value();
  const QueryId q1 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).value();
  const QueryId q2 =
      node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0)).value();
  for (int64_t t = 1; t <= 3; ++t) ASSERT_TRUE(node->Tick(t).ok());

  size_t coalesced_events = 0;
  std::map<int64_t, size_t> lane_events;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::strcmp(obs::EventName(ev.payload), "snapshot_coalesced") ==
        0) {
      ++coalesced_events;
      // Node-level events are unlaned; no single query owns the batch.
      EXPECT_EQ(ev.lane, -1);
      const auto& payload =
          std::get<obs::SnapshotCoalescedEvent>(ev.payload);
      EXPECT_EQ(payload.queries, 2u);
      EXPECT_GE(payload.consumed_samples, payload.shared_samples);
    }
    if (std::strcmp(obs::EventName(ev.payload), "tick") == 0) {
      ASSERT_GE(ev.lane, 0);
      ++lane_events[ev.lane];
    }
  }
  EXPECT_EQ(coalesced_events, 3u);
  // One tick event per query per tick, on that query's lane.
  EXPECT_EQ(lane_events[static_cast<int64_t>(q1)], 3u);
  EXPECT_EQ(lane_events[static_cast<int64_t>(q2)], 3u);
}

TEST(DigestNodeSchedulerTest, NodeLevelHealthEventsStayUnlaned) {
  // The shared operator's walk batches, the sampler diagnostics, the
  // peer-health monitor and the fault plan serve every tenant, so their
  // events belong to the node (lane -1); each engine's tick events ride
  // its own QueryId lane. The lossy, partitioned overlay makes the
  // breakers move.
  Fixture f;
  FaultPlanConfig faults;
  faults.message_loss = 0.2;
  faults.edge_spread = 0.5;
  faults.partition_every = 4;
  faults.partition_length = 2;
  faults.partition_components = 2;
  ASSERT_TRUE(faults.Validate().ok());
  FaultPlan plan(faults, 9);
  PeerHealthMonitor health;
  diag::SamplerDiag diag;
  obs::MemoryTracer tracer;
  DigestEngineOptions options = FastOptions();
  options.fault_plan = &plan;
  options.tracer = &tracer;
  options.diag = &diag;
  options.health = &health;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(7), nullptr,
                                 options)
                  .value();
  const QueryId q1 =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).value();
  const QueryId q2 =
      node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 2.0)).value();
  constexpr int64_t kTicks = 8;
  for (int64_t t = 1; t <= kTicks; ++t) {
    plan.set_now(t);
    ASSERT_TRUE(node->Tick(t).ok()) << "tick " << t;
  }

  const std::set<std::string> node_level = {
      "walk_batch",     "walk_batch_done",    "hop_budget_exhausted",
      "fault_stall",    "walk_mixing",        "stationary_gap",
      "peer_load",      "acceptance_rate",    "peer_suspect",
      "breaker_transition", "partition_begin", "partition_end"};
  std::map<std::string, size_t> node_events;
  std::map<int64_t, size_t> tick_lanes;
  for (const obs::TraceEvent& ev : tracer.events()) {
    const std::string name = obs::EventName(ev.payload);
    if (name == "tick") ++tick_lanes[ev.lane];
    if (node_level.count(name) == 0) continue;
    ++node_events[name];
    EXPECT_EQ(ev.lane, -1) << name;
  }
  EXPECT_GE(node_events["breaker_transition"], 1u);
  EXPECT_GE(node_events["walk_batch"], 1u);
  EXPECT_GE(node_events["stationary_gap"], 1u);
  EXPECT_EQ(tick_lanes.size(), 2u);
  EXPECT_EQ(tick_lanes[static_cast<int64_t>(q1)],
            static_cast<size_t>(kTicks));
  EXPECT_EQ(tick_lanes[static_cast<int64_t>(q2)],
            static_cast<size_t>(kTicks));
}

// Runs `ticks` ticks from `from + 1`, appending each tick's per-query
// (reported, ci) pairs for bit-exact comparison.
std::vector<std::pair<double, double>> Drive(DigestNode* node, int64_t from,
                                             int64_t ticks) {
  std::vector<std::pair<double, double>> out;
  for (int64_t t = from + 1; t <= from + ticks; ++t) {
    auto results = node->Tick(t).value();
    for (const auto& [id, r] : results) {
      out.emplace_back(r.reported_value, r.ci_halfwidth);
    }
  }
  return out;
}

TEST(DigestNodeSchedulerTest, CheckpointRestoreBitIdentical) {
  Fixture f;
  MessageMeter meter_a, meter_b;
  auto make_node = [&](MessageMeter* meter) {
    auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(7), meter,
                                   FastOptions())
                    .value();
    EXPECT_TRUE(
        node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).ok());
    EXPECT_TRUE(
        node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.5)).ok());
    return node;
  };
  auto a = make_node(&meter_a);
  Drive(a.get(), 0, 3);
  const std::string blob = a->Checkpoint().value();
  const auto tail_a = Drive(a.get(), 3, 4);

  // An identically constructed node resumes from the blob and replays
  // the exact same tail: values, CIs, meter, and attribution.
  auto b = make_node(&meter_b);
  ASSERT_TRUE(b->Restore(blob).ok());
  const auto tail_b = Drive(b.get(), 3, 4);
  ASSERT_EQ(tail_a.size(), tail_b.size());
  for (size_t i = 0; i < tail_a.size(); ++i) {
    EXPECT_EQ(tail_a[i].first, tail_b[i].first) << "entry " << i;
    EXPECT_EQ(tail_a[i].second, tail_b[i].second) << "entry " << i;
  }
  EXPECT_EQ(meter_a.Total(), meter_b.Total());
  EXPECT_EQ(a->coalesced_ticks(), b->coalesced_ticks());
  for (QueryId id : {QueryId{1}, QueryId{2}}) {
    const QueryCost ca = a->query_cost(id).value();
    const QueryCost cb = b->query_cost(id).value();
    EXPECT_EQ(ca.messages, cb.messages) << "query " << id;
    EXPECT_EQ(ca.snapshots, cb.snapshots) << "query " << id;
    EXPECT_EQ(ca.coalesced, cb.coalesced) << "query " << id;
  }
}

TEST(DigestNodeSchedulerTest, CheckpointRestoreAcrossThreadCounts) {
  // A blob cut from a single-threaded node restores into a 4-thread
  // node (same seed/queries) and the tails stay bit-identical: lanes
  // and substreams are walk-indexed, never thread-indexed.
  Fixture f;
  MessageMeter meter_a, meter_b;
  auto make_node = [&](MessageMeter* meter, size_t threads) {
    DigestEngineOptions options = FastOptions();
    options.sampling_options.num_threads = threads;
    auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(8), meter,
                                   options)
                    .value();
    EXPECT_TRUE(
        node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.7)).ok());
    EXPECT_TRUE(
        node->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0)).ok());
    return node;
  };
  auto a = make_node(&meter_a, 1);
  Drive(a.get(), 0, 2);
  const std::string blob = a->Checkpoint().value();
  const auto tail_a = Drive(a.get(), 2, 3);

  auto b = make_node(&meter_b, 4);
  ASSERT_TRUE(b->Restore(blob).ok());
  const auto tail_b = Drive(b.get(), 2, 3);
  ASSERT_EQ(tail_a.size(), tail_b.size());
  for (size_t i = 0; i < tail_a.size(); ++i) {
    EXPECT_EQ(tail_a[i].first, tail_b[i].first) << "entry " << i;
    EXPECT_EQ(tail_a[i].second, tail_b[i].second) << "entry " << i;
  }
  EXPECT_EQ(meter_a.Total(), meter_b.Total());
}

TEST(DigestNodeSchedulerTest, RestoreRejectsMismatches) {
  Fixture f;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(9), nullptr,
                                 FastOptions())
                  .value();
  ASSERT_TRUE(node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).ok());
  ASSERT_TRUE(node->Tick(1).ok());
  const std::string blob = node->Checkpoint().value();

  // Different query registry: one extra query.
  auto extra = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(9), nullptr,
                                  FastOptions())
                   .value();
  ASSERT_TRUE(extra->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).ok());
  ASSERT_TRUE(
      extra->IssueQuery(Spec("SELECT AVG(memory) FROM R", 1.0)).ok());
  EXPECT_EQ(extra->Restore(blob).code(), StatusCode::kInvalidArgument);

  // Different coalescing topology.
  DigestNodeOptions ablation;
  ablation.coalesce_snapshots = false;
  auto warm = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(9), nullptr,
                                 FastOptions(), ablation)
                  .value();
  ASSERT_TRUE(warm->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 1.0)).ok());
  EXPECT_EQ(warm->Restore(blob).code(), StatusCode::kInvalidArgument);

  // Garbage and wrong versions leave the node untouched.
  EXPECT_FALSE(node->Restore("not json").ok());
  EXPECT_EQ(node->Restore(R"({"version":"digest-node-checkpoint-v999"})")
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(node->Tick(2).ok());
}

TEST(DigestNodeSchedulerTest, WarmPoolAblationStillWorks) {
  // coalesce_snapshots = false reproduces the previous per-engine
  // sampler behavior: correct answers, no coalesced ticks.
  Fixture f;
  DigestNodeOptions ablation;
  ablation.coalesce_snapshots = false;
  auto node = DigestNode::Create(&f.graph, f.db.get(), 0, Rng(10), nullptr,
                                 FastOptions(), ablation)
                  .value();
  const QueryId id =
      node->IssueQuery(Spec("SELECT AVG(cpu) FROM R", 0.5)).value();
  for (int64_t t = 1; t <= 3; ++t) ASSERT_TRUE(node->Tick(t).ok());
  EXPECT_NEAR(node->engine(id).value()->reported_value(), 4.0, 0.7);
  EXPECT_EQ(node->coalesced_ticks(), 0u);
}

}  // namespace
}  // namespace digest
